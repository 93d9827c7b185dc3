"""The timed loop, run in a fresh process so that its peak RSS and CPU time
cover the timed work only, not the set-up.

    python3 child.py WORKDIR WORKLOAD SECONDS TRACE TOY

Waits for a line on standard input, then reads the inputs under
WORKDIR/inputs, runs whole operations until SECONDS have passed (at least
MIN_OPS of them), and writes WORKDIR/child.json. With TRACE 1, operations
alternate traced and untraced, starting traced, and the spans go to
WORKDIR/spans.json.

Linux carries a process's peak RSS across exec, so the parent starts this
process before it sets up (while it is still small) and signals it when the
inputs are ready; otherwise the child would report the set-up's peak.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
MIN_OPS = 4


def main(workdir: Path, name: str, seconds: float, trace: bool, toy: bool) -> None:
    if sys.stdin.readline().strip() != "go":
        return  # the parent gave up before the inputs were ready
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    import langclusters
    import mining
    import workloads
    from spans import Tracer

    w = (workloads.TOY if toy else workloads.WORKLOADS)[name]
    inputs = workdir / "inputs"
    if isinstance(w, mining.Mining):
        def op(out_dir: Path) -> None:
            mining.run(inputs, out_dir)
    else:
        loaded = langclusters.Inputs(inputs)

        def op(out_dir: Path) -> None:
            langclusters.run(loaded, out_dir)

    tracer = Tracer() if trace else None
    records = []
    start = time.perf_counter()
    while len(records) < MIN_OPS or time.perf_counter() - start < seconds:
        i = len(records)
        traced = tracer is not None and i % 2 == 0
        out_dir = workdir / f"op-{i}"
        if traced:
            tracer.install()
        kids = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        error = None
        try:
            if traced:
                with tracer.span("op"):
                    op(out_dir)
            else:
                op(out_dir)
        except Exception:
            error = traceback.format_exc()
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        kids_after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu += (kids_after.ru_utime - kids.ru_utime) + (kids_after.ru_stime - kids.ru_stime)
        if traced:
            tracer.uninstall()
        records.append(
            {"dir": out_dir.name, "wall": wall, "cpu": cpu, "traced": traced, "error": error}
        )
    peak_kb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    with open(workdir / "child.json", "w", encoding="utf-8") as fh:
        json.dump({"ops": records, "peak_rss_kb": peak_kb}, fh)
    if tracer is not None:
        tracer.write(workdir / "spans.json")


if __name__ == "__main__":
    main(Path(sys.argv[1]), sys.argv[2], float(sys.argv[3]), sys.argv[4] == "1", sys.argv[5] == "1")
