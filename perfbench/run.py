"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark sets up the workload's inputs
from the seed (SETUP_SAMPLES times, reporting the median), then runs the
timed work in a fresh child process for S seconds of whole operations, and
checks every operation's outputs. With --trace 0 it prints the end-to-end
metrics, with --trace 1 the per-layer ones. Work files go under
.perfbench/ and are removed at the end; a traced run leaves its spans in
.perfbench/trace-NAME.json.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# the keys of workloads.WORKLOADS, named here so that argument parsing needs
# no import of the program
NAMES = ("mine-short-docs", "mine-long-docs", "cluster-many-langs")
SETUP_SAMPLES = 3
CHILD_TIMEOUT = 150.0


def run(name: str, seed: int, seconds: float, trace: bool, toy: bool = False) -> dict:
    """One run of one workload; returns the result line. `toy` picks the
    toy-size inputs the benchmark's own test uses."""
    workdir = ROOT / ".perfbench" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "child.py"), str(workdir), name, str(seconds), str(int(trace)), str(int(toy))]
    # started before set-up, while this process is small: see child.py
    child_proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, text=True)
    try:
        return _run(name, seed, trace, toy, workdir, child_proc)
    finally:
        if child_proc.poll() is None:
            child_proc.kill()
            child_proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)


def _run(name: str, seed: int, trace: bool, toy: bool, workdir: Path, child_proc: subprocess.Popen) -> dict:
    import langclusters
    import layers
    import mining
    import workloads
    from spans import Tracer

    w = (workloads.TOY if toy else workloads.WORKLOADS)[name]
    module = workloads.module_of(w)
    inputs = workdir / "inputs"
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        for _ in range(w.setup_repeats):
            with tracer.span("setup") if tracer is not None else contextlib.nullcontext():
                facts = module.setup(w, seed, inputs)
        samples.append((time.perf_counter() - t0) / w.setup_repeats)
    if tracer is not None:
        tracer.uninstall()

    child_proc.communicate("go\n", timeout=CHILD_TIMEOUT)
    if child_proc.returncode:
        raise RuntimeError(f"timed child exited with code {child_proc.returncode}")
    with open(workdir / "child.json", encoding="utf-8") as fh:
        child = json.load(fh)

    ops = child["ops"]
    raised: list[str] = []
    errors: list[str] = []  # failed output checks of completed operations
    qualities = []
    manifests = []
    cluster_counts: dict[str, int] = {}
    if module is mining:
        truth = mining.truth(w, inputs)
    else:
        loaded = langclusters.Inputs(inputs)
        reference = langclusters.expected(loaded)
    for rec in ops:
        if rec["error"]:
            raised.append(f"{rec['dir']} raised:\n{rec['error']}")
            continue
        if module is mining:
            corpora, manifest = mining.read_outputs(workdir / rec["dir"])
            op_errors, quality = mining.check(corpora, manifest, truth)
            if not rec["traced"]:
                manifests.append(manifest)
        else:
            result = langclusters.read_outputs(workdir / rec["dir"])
            op_errors, quality = langclusters.check(result, loaded, reference)
            cluster_counts = langclusters.layer_counts(result)
        errors.extend(f"{rec['dir']}: {e}" for e in op_errors)
        qualities.append(quality)
    for e in raised + errors:
        print(e, file=sys.stderr)
    done = [r for r in ops if not r["error"]]
    untraced = [r for r in done if not r["traced"]]
    if not untraced:
        raise RuntimeError("no operation completed")
    run_s = median(r["wall"] for r in untraced)
    if trace:
        with open(workdir / "spans.json", encoding="utf-8") as fh:
            spans = json.load(fh)
        setup_spans = [vars(s) for s in tracer.spans]
        fields = list(setup_spans[0] if setup_spans else spans[0])
        with open(ROOT / ".perfbench" / f"trace-{name}.json", "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "seed": seed,
                    "fields": fields,
                    "setup": [[s[f] for f in fields] for s in setup_spans],
                    "ops": [[s[f] for f in fields] for s in spans],
                },
                fh,
            )
        values = layers.per_layer(facts["items"], ops, spans, setup_spans, manifests, cluster_counts)
        metrics = {k: {"value": values[k], "unit": layers.UNITS[k][0]} for k in layers.UNITS}
    else:
        values = {
            "setup_s": (median(samples), "s"),
            "run_s": (run_s, "s"),
            "cpu_s": (median(r["cpu"] for r in untraced), "s"),
            "peak_rss_mb": (child["peak_rss_kb"] / 1024, "MB"),
            "items_per_s": (facts["items"] / run_s, "1/s"),
            "precision": (min(q["precision"] for q in qualities), "ratio"),
            "recall": (min(q["recall"] for q in qualities), "ratio"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    return {
        "correct": not errors,
        "attempted": len(ops),
        "failed": len(ops) - len(done),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "monomine" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
