"""sympdet benchmark: one workload, one run, one JSON result line.

Run from the root of a source checkout:

    python3 bench/run.py --workload suite-default --seed 1 --seconds 30 --trace 0

Set-up imports ``sympdet`` from ``src/`` afresh, generates the workload's
inputs from ``--seed`` and warms up; it is repeated ``SETUP_REPEATS`` times
and ``setup_s`` is the median.  Passes over the inputs then run until
``--seconds`` have gone by (at least one pass).  Every reported time is
calibrated to a reference machine speed by :mod:`clock`; raw times are in
the details.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends the first
third of the time on untraced passes and the rest on passes traced by
:mod:`tracer`, and reports the per-layer metrics; it also checks that the
first traced pass gives the same verdicts and residuals as the first
untraced one.

The last line of standard output is the result: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it records the environment.
Misses are printed one per line, with their seeds.  Details and, for traced
runs, every span go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

SETUP_REPEATS = 5
TRACE_UNTRACED_SHARE = 1 / 3
BLAS_THREADS = 1  # steadier than nproc on a shared 2-core machine; must be <= nproc
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("suite-default", "certify-large", "file-roundtrip"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be > 0")
    return args


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path, args, np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except Exception as e:  # show_config's layout is not a stable numpy API
        blas = {"error": repr(e)}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_caps": {v: os.environ[v] for v in THREAD_VARS},
        "git_commit": git_commit(root),
    }


def fresh_import(src: Path):
    """Import sympdet (and its CLI) from src/, dropping any earlier import."""
    for name in [k for k in sys.modules if k == "sympdet" or k.startswith("sympdet.")]:
        del sys.modules[name]
    sd = importlib.import_module("sympdet")
    importlib.import_module("sympdet.cli")
    if not Path(sd.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"sympdet imported from {sd.__file__}, not from {src}")
    return sd


def run_passes(workload, clock, seconds: float, totals: dict, after_pass=None) -> list:
    """Passes until `seconds` have gone by, at least one.  Adds
    attempted/failed/misses/gaps to `totals`.  `after_pass` runs after each
    pass."""
    passes = []
    t_start = time.perf_counter()
    while not passes or time.perf_counter() - t_start < seconds:
        clock.begin()
        p = workload.run_pass(clock)
        passes.append(p)
        totals["attempted"] += p.attempted
        totals["failed"] += p.failed
        totals["misses"] += p.misses
        totals["gaps"] += p.gaps
        if after_pass is not None:
            after_pass()
    return passes


def canonical(records) -> str:
    return json.dumps(records, sort_keys=True, default=repr)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "sympdet" / "__init__.py").is_file():
        print(f"error: no sympdet source under {src}; run from a sympdet checkout",
              file=sys.stderr)
        return 2
    # Thread caps for this process only, before numpy loads its BLAS.
    for var in THREAD_VARS:
        os.environ[var] = str(min(BLAS_THREADS, os.cpu_count() or 1))
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import numpy as np
    from clock import Clock
    from tracer import Tracer, log10_gap
    from workloads import WORKLOADS

    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    work_root = root / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work_root))
    try:
        clock = Clock()
        setup_raw, setup_cal = [], []
        for _ in range(SETUP_REPEATS):
            workload = None  # release the previous repetition's inputs first
            clock.begin()
            t0 = time.perf_counter()
            sd = fresh_import(src)
            workload = WORKLOADS[args.workload](sd, args.seed, workdir)
            workload.warm_up()
            setup_raw.append(time.perf_counter() - t0)
            setup_cal.append(clock.calibrate(setup_raw[-1]))

        totals = {"attempted": 0, "failed": 0, "misses": [], "gaps": []}
        details = {"setup_raw_s": setup_raw, "setup_cal_s": setup_cal}
        if args.trace == 0:
            passes = run_passes(workload, clock, args.seconds, totals)
            walls = [sum(p.cal_s) for p in passes]
            latencies = [x for p in passes for x in p.latencies_ms()]
            metrics = {
                "setup_s": (statistics.median(setup_cal), "s"),
                "wall_s": (statistics.median(walls), "s"),
                "ops_per_s": (passes[0].attempted / statistics.median(walls), "1/s"),
                "op_ms_p50": (float(np.percentile(latencies, 50)), "ms"),
                "op_ms_p90": (float(np.percentile(latencies, 90)), "ms"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            details.update(op_samples=len(latencies), pass_walls_cal_s=walls,
                           pass_walls_raw_s=[sum(p.raw_s) for p in passes])
            self_test = None
        else:
            plain = run_passes(workload, clock, args.seconds * TRACE_UNTRACED_SHARE, totals)
            with Tracer() as tracer:
                traced = run_passes(workload, clock, args.seconds * (1 - TRACE_UNTRACED_SHARE),
                                    totals, after_pass=tracer.drain)
            self_test = canonical(plain[0].records) == canonical(traced[0].records)
            # Spans hold raw times, so shares and overhead use raw pass times:
            # the time spent inside the workload's calls, probes excluded.
            plain_walls = [sum(p.raw_s) for p in plain]
            traced_walls = [sum(p.raw_s) for p in traced]
            metrics = tracer.metrics(sum(traced_walls), len(traced))
            metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                           - statistics.median(plain_walls), "s")
            gap = (max(totals["gaps"], default=0.0) if workload.has_ref_gap
                   else tracer.logdet_gap_max)
            metrics["ref_gap_log10_max"] = (log10_gap(gap), "log10")
            metrics["error_ratio"] = (totals["failed"] / totals["attempted"], "1")
            details.update(absent=tracer.absent, self_test_identical=self_test,
                           pass_walls_raw_s=plain_walls, traced_pass_walls_raw_s=traced_walls,
                           spans=tracer.span_count)
            tracer.write_spans(out_dir / f"spans-{args.workload}-seed{args.seed}.tsv")

        if workload.has_ref_gap:
            details["ref_gap_log10_max"] = log10_gap(max(totals["gaps"], default=0.0))
        details["error_ratio"] = totals["failed"] / totals["attempted"]
        correct = totals["failed"] == 0 and self_test is not False
        result = {
            "correct": correct,
            "attempted": totals["attempted"],
            "failed": totals["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        env = environment(root, args, np)
        for miss in totals["misses"]:
            print(f"miss: {miss}")
        if self_test is False:
            print("miss: traced and untraced passes gave different verdicts or residuals")
        (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps({"env": env, "details": details, "misses": totals["misses"],
                        "result": result}, indent=1, default=repr) + "\n")
        print(json.dumps({"env": env, "details": {k: v for k, v in details.items()
                                                   if "walls" not in k}}))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:  # another run still uses it
            pass


if __name__ == "__main__":
    sys.exit(main())
