"""The benchmark in `perfbench/` traces the program by module attribute name.

These checks make a rename of a traced function, or a change to the stage
table, fail here rather than only when the benchmark runs. They read
`perfbench/spans.py` and change nothing in it.
"""

import importlib
import sys
from pathlib import Path

import pytest

from monomine import pipeline

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def spans():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("spans")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_traced_attribute_is_callable(spans):
    for module_name, attr, span_name in spans.TRACED:
        fn = getattr(importlib.import_module(module_name), attr, None)
        assert callable(fn), f"{module_name}.{attr} (span {span_name})"


def test_stage_calls_follow_the_stage_table(spans):
    assert list(spans.STAGE_CALLS) == [name for name, *_ in pipeline.STAGES]
