"""The benchmark's workloads.  Each is a closed loop in one process: the next
op starts when the previous one returns.

A workload is built from the imported ``sympdet`` package and the workload
seed; building it generates every input (that is part of set-up).  Each
``run_pass`` call runs one pass over the inputs and returns a :class:`Pass`.
Every op is checked: a miss is recorded with the seed that reproduces it and
is never retried, re-seeded or resized.

Reference gaps are measured against ``numpy.linalg.slogdet`` on the same
input and must stay within ``REF_TOL`` (the acceptance tests' 1e-8).
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

REF_TOL = 1e-8


@dataclass
class Pass:
    raw_s: list = field(default_factory=list)      # wall time of each timed call
    cal_s: list = field(default_factory=list)      # the same, calibrated (clock.py)
    weights: list = field(default_factory=list)    # ops per timed call
    attempted: int = 0
    failed: int = 0
    misses: list = field(default_factory=list)        # one line per failed op
    records: list = field(default_factory=list)       # verdicts and residuals
    gaps: list = field(default_factory=list)          # reference gaps per op

    def add(self, raw: float, clock, ops: int = 1) -> None:
        """Record a timed call of `ops` ops that took `raw` wall seconds."""
        self.raw_s.append(raw)
        self.cal_s.append(clock.calibrate(raw))
        self.weights.append(ops)

    def latencies_ms(self) -> list:
        """Calibrated latency of every op; a timed call of k ops counts as k
        ops of its mean time."""
        return [t * 1e3 / k for t, k in zip(self.cal_s, self.weights) for _ in range(k)]


def child_seed(seed: int, index: int) -> int:
    """Seed of the index-th input, derived by numpy alone."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0])


def numpy_det(a) -> complex:
    sign, logabs = np.linalg.slogdet(a)
    return complex(sign) * math.exp(logabs)


def phase_gap(p: complex, q: complex) -> float:
    return abs(cmath.phase(complex(p) * complex(q).conjugate()))


def without_elapsed(report: dict) -> dict:
    return {k: v for k, v in report.items() if k != "elapsedSeconds"}


class SuiteDefault:
    """The 7 suites through run_suite at their default trial counts and
    half-dims (1668 trials, N <= 16): ``sympdet suite all`` at defaults.
    An op is one trial.  run_suite times no single trial, so each trial's
    latency is its run_suite call's time divided by its trial count."""

    has_ref_gap = False

    def __init__(self, sd, seed: int, workdir: Path):
        self.sd = sd
        self.specs = [sd.default_suite_spec(sid, seed=seed) for sid in sd.SUITE_IDS]

    def warm_up(self) -> None:
        """One trial at each half-dim of each suite."""
        for spec in self.specs:
            self.sd.run_suite(self.sd.default_suite_spec(spec.suite_id, seed=spec.seed,
                                                         trials=len(spec.half_dims)))

    def run_pass(self, clock) -> Pass:
        out = Pass()
        for spec in self.specs:
            t0 = time.perf_counter()
            report = self.sd.run_suite(spec)
            out.add(time.perf_counter() - t0, clock, report.trials)
            out.attempted += report.trials
            out.failed += report.trials - report.passes
            if report.passes != report.trials and not report.failures:
                out.misses.append(f"{spec.suite_id} seed={spec.seed}: "
                                  f"{report.passes}/{report.trials} passed")
            for f in report.failures:
                out.misses.append(f"{spec.suite_id} seed={f['seed']} halfDim={f['halfDim']} "
                                  f"residuals={f['residuals']}")
            out.records.append(without_elapsed(report.to_json_dict()))
        return out


def make_inputs(sd, seed: int, half_dims) -> list:
    """One generated group member per (half-dim, group) class, with numpy's
    determinant of it: [(N, group, seed, matrix, det)]."""
    items = []
    for k, (n, group) in enumerate((n, g) for n in half_dims
                                   for g in ("real", "complex", "conjugate")):
        s = child_seed(seed, k)
        a = sd.generate(sd.GeneratorConfig(half_dim=n, target=sd.GroupKind(group), seed=s))
        items.append((n, group, s, a, numpy_det(a)))
    return items


class CertifyLarge:
    """certify_symplectic on real and complex members and conj_symplectic_det
    on conjugate members at N in {50, 100, 200}.  An op is one call; a pass
    is one op per class, so every prefix of a run keeps the same mix."""

    has_ref_gap = True
    HALF_DIMS = (50, 100, 200)

    def __init__(self, sd, seed: int, workdir: Path):
        self.sd = sd
        self.inputs = make_inputs(sd, seed, self.HALF_DIMS)

    def warm_up(self) -> None:
        for n, group, s, a, ref in self.inputs[:3]:
            self._op(group, a, ref)

    def _op(self, group, a, ref):
        """(verdict ok, reference gap, record)."""
        if group == "conjugate":
            phase = self.sd.conj_symplectic_det(a)
            gap = phase_gap(phase, ref)
            return True, gap, ("phase", repr(phase))
        cert = self.sd.certify_symplectic(a, self.sd.GroupKind(group))
        gap = max(abs(ref - 1.0), abs(cert.det_a.value - ref))
        return cert.verdict == "pass", gap, (cert.verdict, cert.residuals)

    def run_pass(self, clock) -> Pass:
        out = Pass()
        for n, group, s, a, ref in self.inputs:
            out.attempted += 1
            t0 = time.perf_counter()
            try:
                ok, gap, record = self._op(group, a, ref)
            except Exception as e:  # a raised op is a failed op, not a crash
                ok, gap, record = False, math.inf, ("raised", repr(e))
            out.add(time.perf_counter() - t0, clock)
            out.gaps.append(gap)
            out.records.append(record)
            if not (ok and gap <= REF_TOL):
                out.failed += 1
                out.misses.append(f"{group} N={n} seed={s}: record={record} ref_gap={gap:.3e}")
        return out


class FileRoundtrip:
    """The file flow of demos/files_and_reports.py: write one member with
    write_matrix, then run ``sympdet.cli.main`` in-process (``certify --mode
    real|complex`` or ``formula``, ``--format json --out``) at N in
    {8, 16, 32}.  In-process, because interpreter and numpy start-up would
    swamp every op.  The CLI's report carries verdicts and residuals but no
    determinant, so the reference gap is numpy's distance from the certified
    claim: |det - 1| for real and complex members, ||det| - 1| for
    conjugate ones."""

    has_ref_gap = True
    HALF_DIMS = (8, 16, 32)
    COMMANDS = {"real": ["certify", "--mode", "real"],
                "complex": ["certify", "--mode", "complex"],
                "conjugate": ["formula"]}

    def __init__(self, sd, seed: int, workdir: Path):
        self.sd = sd
        self.ops = []
        for k, (n, group, s, a, ref) in enumerate(make_inputs(sd, seed, self.HALF_DIMS)):
            matrix, report = workdir / f"m{k}.txt", workdir / f"r{k}.json"
            argv = [*self.COMMANDS[group], str(matrix), "--format", "json",
                    "--out", str(report)]
            gap = abs(abs(ref) - 1.0) if group == "conjugate" else abs(ref - 1.0)
            self.ops.append((n, group, s, a, matrix, report, argv, gap))

    def warm_up(self) -> None:
        for op in self.ops[:3]:
            self._op(*op[3:7])

    def _op(self, a, matrix, report, argv):
        self.sd.write_matrix(a, matrix)
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            code = self.sd.cli.main(argv)
        return code, captured.getvalue()

    def run_pass(self, clock) -> Pass:
        out = Pass()
        for n, group, s, a, matrix, report, argv, gap in self.ops:
            out.attempted += 1
            report.unlink(missing_ok=True)  # a failed op must not read a stale report
            t0 = time.perf_counter()
            try:
                code, text = self._op(a, matrix, report, argv)
            except Exception as e:  # a raised op is a failed op, not a crash
                code, text = None, repr(e)
            out.add(time.perf_counter() - t0, clock)
            rep = json.loads(report.read_text()) if code == 0 and report.exists() else {}
            ok = code == 0 and rep.get("passes") == rep.get("trials") == 1
            out.gaps.append(gap)
            out.records.append((code, without_elapsed(rep), text))
            if not (ok and gap <= REF_TOL):
                out.failed += 1
                out.misses.append(f"{group} N={n} seed={s}: exit={code} "
                                  f"passes={rep.get('passes')} ref_gap={gap:.3e}")
        return out


WORKLOADS = {
    "suite-default": SuiteDefault,
    "certify-large": CertifyLarge,
    "file-roundtrip": FileRoundtrip,
}
