"""Exception types shared across the toolkit, and the readers of text and
JSON files that raise them."""

import dataclasses
import functools
import json
import re
import types
import typing
from typing import Any, Iterator, Optional


class MiningError(Exception):
    """Base class for all toolkit errors."""


class ParseError(MiningError):
    """Malformed input. Carries the 1-based line number, or None where the
    fault has no one line, when known the path of the file, and the message
    without either."""

    def __init__(self, line_no: Optional[int], message: str, path: object = None):
        where = [] if path is None else [str(path)]
        if line_no is not None:
            where.append(f"line {line_no}")
        super().__init__(f"{', '.join(where)}: {message}" if where else message)
        self.message = message
        self.line_no = line_no
        self.path = path


# No UTF-8 text holds a surrogate code point. `read_lines` decodes a byte that
# is not UTF-8 to one (U+DC80-U+DCFF), and a JSON escape such as "\ud800"
# with no partner leaves one.
_SURROGATE = re.compile("[\ud800-\udfff]")
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")
_JSON_STRING = re.compile(r'"(?:[^"\\]|\\.)*"')


def read_lines(path: object) -> Iterator[tuple[int, str]]:
    """(line number from 1, line without its newline) for each line of the
    UTF-8 file at `path`, split where text mode splits ("\\n", "\\r\\n",
    "\\r"). A byte that is not UTF-8 comes through as a surrogate, which
    `utf8` rejects."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            yield line_no, line.rstrip("\n")


def utf8(line_no: int, line: str, path: object) -> str:
    """`line`, unless it holds a byte that was not UTF-8: then ParseError
    with the path and line."""
    if not line.isascii():
        try:
            line.encode("utf-8")  # several times faster than searching for a surrogate
        except UnicodeEncodeError:
            raise ParseError(line_no, "not UTF-8", path) from None
    return line


def check_json_strings(line_no: int, line: str, path: object) -> None:
    """ParseError if a string on this line of valid JSON decodes to a lone
    surrogate. A JSON string cannot span lines, so the line starts outside
    one and `_JSON_STRING` finds each."""
    if _SURROGATE_ESCAPE.search(line):
        for literal in _JSON_STRING.findall(line):
            if _SURROGATE.search(json.loads(literal)):
                raise ParseError(line_no, "not UTF-8: an escape leaves a lone surrogate", path)


def read_json(path: object, kind: type, what: str) -> Any:
    """The JSON value in the file at `path`, which must be a `kind`. Bad
    bytes, bad JSON or a lone surrogate in a string raise ParseError with
    the line; another value, ParseError saying `what` was expected."""
    lines = [utf8(line_no, line, path) for line_no, line in read_lines(path)]
    try:
        obj = json.loads("\n".join(lines))
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, f"bad JSON: {exc.msg}", path) from exc
    except RecursionError as exc:
        raise ParseError(None, f"bad JSON: {exc}", path) from exc
    for line_no, line in enumerate(lines, start=1):
        check_json_strings(line_no, line, path)
    if not isinstance(obj, kind):
        raise ParseError(None, f"expected {what}, got {type(obj).__name__}", path)
    return obj


def _admitted(hint: Any) -> tuple[frozenset[type], tuple[type, ...]]:
    """(the types a value of annotation `hint` may have exactly, the classes
    it may be an instance of)."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        parts = [_admitted(arg) for arg in typing.get_args(hint)]
        return frozenset().union(*(exact for exact, _ in parts)), sum((classes for _, classes in parts), ())
    if hint is float:  # an int is a float, but a bool is not
        return frozenset((float, int)), ()
    if hint in (bool, int, type(None)):  # a bool is not an int, nor a float an int
        return frozenset((hint,)), ()
    return frozenset(), (hint,)


@functools.cache
def _field_checks(cls: type) -> tuple[tuple[str, frozenset[type], tuple[type, ...]], ...]:
    # resolving annotations is slow, so each class resolves them once
    hints = typing.get_type_hints(cls)
    return tuple((f.name, *_admitted(hints[f.name])) for f in dataclasses.fields(cls))


def check_fields(obj: Any, error: type[Exception]) -> None:
    """Raise `error`, naming the field, for the first field of the dataclass
    `obj` whose value its annotation does not admit. A bool field takes only
    a bool; an int field takes neither a bool nor a float; a float field also
    takes an int, but not a bool; `Optional` takes None; any other class is
    checked with `isinstance`."""
    for name, exact, classes in _field_checks(type(obj)):
        value = getattr(obj, name)
        if type(value) not in exact and not isinstance(value, classes):
            expected = " or ".join(sorted(kind.__name__ for kind in (*exact, *classes)))
            raise error(f"{name}: expected {expected}, got {type(value).__name__} {value!r}")


def require(name: str, value: Any, ok: bool, what: str) -> None:
    """ValueError `name: expected <what>, got <value>` unless `ok`, the range
    rule of option or field `name`. Write the rule as comparisons that hold:
    a NaN fails every comparison, so it fails the rule."""
    if not ok:
        raise ValueError(f"{name}: expected {what}, got {value!r}")


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
    """A translator backend failed on a batch: nothing in it was translated."""
