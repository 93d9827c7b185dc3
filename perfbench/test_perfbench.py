"""Fast test of the benchmark itself, at toy size.

    python3 -m pytest perfbench -q

Each workload runs end to end, and each output check is shown to fail when
fed a corrupted output.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import langclusters  # noqa: E402
import layers  # noqa: E402
import mining  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"setup_s", "run_s", "cpu_s", "peak_rss_mb", "items_per_s", "precision", "recall"}


@pytest.mark.parametrize("name", run.NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_workload_runs_and_passes_its_checks(name, trace):
    result = run.run(name, seed=3, seconds=0.2, trace=trace, toy=True)
    assert result["correct"], result
    assert result["failed"] == 0
    assert result["attempted"] >= 4
    expected = set(layers.UNITS) if trace else END_TO_END
    assert set(result["metrics"]) == expected
    values = {k: m["value"] for k, m in result["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in values.values()), values
    elif name == "mine-long-docs":
        assert values["filters.tfiif_filtered_langs"] >= 1
        assert values["corpus.duplicates_dropped"] > 0


@pytest.fixture(scope="module")
def mined(tmp_path_factory):
    w = workloads.TOY["mine-long-docs"]
    root = tmp_path_factory.mktemp("mine")
    mining.setup(w, 5, root / "inputs")
    mining.run(root / "inputs", root / "out")
    corpora, manifests = mining.read_outputs(root / "out")
    return corpora, manifests, mining.truth(w, root / "inputs")


def test_mining_checks_pass_on_real_output(mined):
    corpora, manifests, truth = mined
    errors, quality = mining.check(corpora, manifests, truth)
    assert errors == []
    assert quality["precision"] >= mining.MIN_PRECISION
    assert quality["recall"] >= mining.MIN_RECALL


def test_mining_check_catches_a_sentence_moved_to_another_language(mined):
    corpora, manifests, truth = mined
    moved = {lang: list(lines) for lang, lines in corpora.items()}
    moved["cc"].append(moved["aa"].pop())
    errors, _ = mining.check(moved, manifests, truth)
    assert any("dedup out" in e for e in errors), errors


def test_mining_check_catches_a_duplicated_line(mined):
    corpora, manifests, truth = mined
    doubled = {lang: list(lines) for lang, lines in corpora.items()}
    doubled["dd"].append(doubled["dd"][0])
    errors, _ = mining.check(doubled, manifests, truth)
    assert any("duplicate" in e for e in errors), errors


def test_mining_check_catches_a_rule_token_left_in(mined):
    corpora, manifests, truth = mined
    planted = next(s for s, label in truth.labels.items() if label == "negative")
    rule = next(r for r in truth.rules if r["pattern"] in planted.split())
    kept = {lang: list(lines) for lang, lines in corpora.items()}
    kept[rule["lang"]].append(planted)
    errors, _ = mining.check(kept, manifests, truth)
    assert any("rule token" in e for e in errors), errors


@pytest.fixture(scope="module")
def clustered(tmp_path_factory):
    w = workloads.TOY["cluster-many-langs"]
    root = tmp_path_factory.mktemp("cluster")
    langclusters.setup(w, 5, root / "inputs")
    inputs = langclusters.Inputs(root / "inputs")
    langclusters.run(inputs, root / "out")
    return langclusters.read_outputs(root / "out"), inputs, langclusters.expected(inputs)


def test_cluster_checks_pass_on_real_output(clustered):
    result, inputs, reference = clustered
    errors, quality = langclusters.check(result, inputs, reference)
    assert errors == []
    assert 0 < quality["precision"] <= 1 and 0 < quality["recall"] <= 1


def test_cluster_check_catches_two_languages_swapped(clustered):
    result, inputs, reference = clustered
    swapped = json.loads(json.dumps(result))
    groups = [g for g in swapped["final"] if len(g) > 1]
    a, b = groups[0], next(g for g in swapped["final"] if g is not groups[0])
    a[0], b[0] = b[0], a[0]
    errors, _ = langclusters.check(swapped, inputs, reference)
    assert any("resplit differs" in e for e in errors), errors


def test_cluster_check_catches_a_wrong_paring_flag(clustered):
    result, inputs, reference = clustered
    flipped = json.loads(json.dumps(result))
    lang = inputs.languages[0]
    flipped["reasons"][lang] = [] if flipped["reasons"][lang] else ["low_precision"]
    errors, _ = langclusters.check(flipped, inputs, reference)
    assert any("paring flags" in e for e in errors), errors


def test_fails_without_the_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mine-short-docs", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
