"""Exception types shared across the toolkit."""

import json
from typing import Any, Optional


class MiningError(Exception):
    """Base class for all toolkit errors."""


class ParseError(MiningError):
    """Malformed input. Carries the 1-based line number, or None where the
    fault has no one line, and, when known, the path of the file."""

    def __init__(self, line_no: Optional[int], message: str, path: object = None):
        where = [] if path is None else [str(path)]
        if line_no is not None:
            where.append(f"line {line_no}")
        super().__init__(f"{', '.join(where)}: {message}" if where else message)
        self.line_no = line_no
        self.path = path


def read_json(path: object, kind: type, what: str) -> Any:
    """The JSON value in the file at `path`, which must be a `kind`. Bad JSON
    raises ParseError with its line; another value, ParseError saying `what`
    was expected."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(exc.lineno, f"bad JSON: {exc.msg}", path) from exc
    if not isinstance(obj, kind):
        raise ParseError(None, f"expected {what}, got {type(obj).__name__}", path)
    return obj


class ConfigError(MiningError):
    """Invalid or incomplete pipeline configuration."""


class DegenerateData(MiningError):
    """Training data cannot support a classifier (e.g. a single language)."""


class UnknownLanguage(MiningError):
    """A language code not covered by the model / matrix / cluster map."""


class ModelFormatError(MiningError):
    """A model file is corrupt or has an unsupported version."""


class InvalidCut(MiningError):
    """Dendrogram cut criterion out of range or over-specified."""


class EmptyDocument(MiningError):
    """Operation requires a document with at least one annotated sentence."""


class EmptyCorpus(MiningError):
    """Operation requires a corpus with at least one sentence / token."""


class MissingWordlist(MiningError):
    """A cluster language has no wordlist available."""


class WrongListKind(MiningError):
    """A filter was handed a wordlist of the wrong kind."""


class LengthMismatch(MiningError):
    """Paired hypothesis/reference lists differ in length."""


class InvalidBoundaries(MiningError):
    """Frequency-bin boundaries are not strictly increasing from 0."""


class InvalidFractions(MiningError):
    """Audit label fractions outside [0, 1] or summing above 1."""


class TranslatorError(MiningError):
    """A translator backend failed on a sentence."""
