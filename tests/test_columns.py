"""The column arithmetic against the scalar reference of tests/oracles.py:
determinant columns, the column functions on columns and on single entries,
every suite's per-round residuals, and the reports assembled from them."""

import dataclasses
import itertools
import math
import struct

import numpy as np
import pytest

import sympdet as sd
from sympdet import linalg, suites, symplectic
from sympdet.report import render_json
from sympdet.suites import _SUITES, SUITE_IDS, default_suite_spec, run_suite, run_trial
from sympdet.symplectic import DEFAULT_TOLERANCES, GroupKind, ToleranceConfig

from oracles import (ScalarLogDet, block_embed_pair, loop_lemma_trial, scalar_log_det,
                     scalar_phase_angle, scalar_sign_slacks, scalar_trial)

GATED = ToleranceConfig(membership=0.0)  # every member fails the membership gate


def _bits(x):
    """A value's bits, so that -0.0 differs from 0.0 and every NaN is alike."""
    if isinstance(x, (tuple, list)):
        return tuple(map(_bits, x))
    if isinstance(x, complex):
        return _bits((x.real, x.imag))
    return "nan" if x != x else struct.pack("<d", x)


def _items(residuals):
    return [(name, _bits(v)) for name, v in residuals.items()]


# log magnitudes and unit phases a determinant can have: zero (-inf), none
# (NaN, with a NaN phase), far outside float range, and phases with a zero
# or negative-zero part
_MAGNITUDES = (-math.inf, -800.0, -3.5, -0.0, 0.0, 1e-12, 2.25, 700.0, 709.7, 710.0, 1e5)
_PHASES = (1 + 0j, -1 + 0j, 1j, complex(-0.0, 1.0), complex(0.0, -1.0), complex(1.0, -0.0),
           complex(0.6, 0.8), complex(-0.28, -0.96), complex(math.cos(2.0), math.sin(2.0)))
_DETS = [*itertools.product(_MAGNITUDES, _PHASES), (math.nan, complex(math.nan, math.nan))]


def _columns(dets):
    return tuple(np.array(x) for x in zip(*((lm, p.real, p.imag) for lm, p in dets)))


def test_column_functions_match_the_scalar_arithmetic():
    # each pair of determinants, as columns (a round) and as entries (one
    # public call), against ScalarLogDet: a gap above 700, a zero
    # determinant, NaN and values beyond float range included
    tol = DEFAULT_TOLERANCES
    pairs = list(itertools.product(_DETS, repeat=2))
    x, y = _columns([p for p, _ in pairs]), _columns([q for _, q in pairs])
    with np.errstate(all="ignore"):
        columns = {
            "value": linalg._values(x),
            "product": linalg._products(x, y),
            "abs_squared": [np.broadcast_to(v, len(pairs)) for v in linalg._abs_squared(x)],
            "rel_diff": linalg._rel_diffs(x, y),
            "sign_slacks": symplectic._sign_slacks(x, tol),
            "phase_angle": linalg._phase_angles(x[1:], y[1:]),
        }
    for i, ((lx, px), (ly, py)) in enumerate(pairs):
        a, b = ScalarLogDet(lx, px), ScalarLogDet(ly, py)
        reference = {
            "value": lambda: (a.value.real, a.value.imag),
            "product": lambda: ((ab := a * b).log_magnitude, ab.phase.real, ab.phase.imag),
            "abs_squared": lambda: ((a2 := a.abs_squared()).log_magnitude, a2.phase.real,
                                    a2.phase.imag),
            "rel_diff": lambda: a.rel_diff(b),
            "sign_slacks": lambda: scalar_sign_slacks(a, tol),
            "phase_angle": lambda: scalar_phase_angle(px, py),
        }
        entry_x, entry_y = (lx, px.real, px.imag), (ly, py.real, py.imag)
        entries = {
            "value": linalg._values(entry_x),
            "product": linalg._products(entry_x, entry_y),
            "abs_squared": linalg._abs_squared(entry_x),
            "rel_diff": linalg._rel_diffs(entry_x, entry_y),
            "sign_slacks": symplectic._sign_slacks(entry_x, tol),
            "phase_angle": linalg._phase_angles(entry_x[1:], entry_y[1:]),
        }
        for name, scalar in reference.items():
            column = columns[name]
            got = (tuple(float(c[i]) for c in column) if isinstance(column, (tuple, list))
                   else float(column[i]))
            entry = entries[name]
            entry = tuple(map(float, entry)) if isinstance(entry, tuple) else float(entry)
            try:
                ref = _bits(scalar())
            except OverflowError:  # CPython's abs() of a complex NaN, after an underflow
                ref = _bits(tuple(math.nan for _ in got) if isinstance(got, tuple) else math.nan)
            assert _bits(got) == ref, (name, pairs[i], got)
            assert _bits(entry) == ref, (name, pairs[i], entry)
    gap = pairs.index(((710.0, 1 + 0j), (-3.5, 1 + 0j)))  # log-magnitude gap above 700
    assert columns["rel_diff"][gap] == math.inf


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # NaN pivots in slogdet
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_det_columns_match_each_matrix_alone(dtype):
    # generic, singular, zero, NaN and Inf matrices, and signs with a zero
    # part, whose sign Python's division can flip (LAPACK gives det = i the
    # sign -0.0 + 1j here), in one stack
    rng = np.random.default_rng(5)
    stack = rng.standard_normal((9, 3, 3)).astype(dtype)
    if dtype is np.complex128:
        stack += 1j * rng.standard_normal((9, 3, 3))
        stack[5] = np.diag([1.0, 1.0, complex(-0.0, 1.0)])
        stack[6] = np.diag([1.0, complex(-0.0, -1.0), -1j])
    stack[1, :, 2] = stack[1, :, 0]  # exactly singular
    stack[2] = 0.0
    stack[3, 1, 1] = math.nan
    stack[4, 0, 2] = math.inf
    dets = linalg._det_columns(stack)
    for i, a in enumerate(stack):
        ref = scalar_log_det(a)
        assert _bits(dets[:, i].tolist()) == _bits((ref.log_magnitude, ref.phase.real,
                                                    ref.phase.imag)), i
        assert _bits(linalg.log_det(a).phase) == _bits(ref.phase), i


@pytest.mark.parametrize("suite_id", SUITE_IDS)
@pytest.mark.parametrize("tol", [DEFAULT_TOLERANCES, GATED], ids=["default", "gated"])
def test_every_trial_matches_the_scalar_reference(suite_id, tol):
    # seeds 0-9 at every default half-dim: each trial's residual names, in
    # order, and their bits, judged as one round of the ten and alone
    for n in default_suite_spec(suite_id).half_dims:
        seeds = list(range(10))
        columns, present = suites._round(_SUITES[suite_id], (n,), 0, seeds,
                                         [sd.rng_from_seed(s) for s in seeds], tol)
        for t, seed in enumerate(seeds):
            ref = _items(scalar_trial(suite_id, n, seed, tol))
            assert _items(suites._residuals_of(columns, present, t)) == ref, (n, seed)
            assert _items(run_trial(suite_id, n, seed, tol).residuals) == ref, (n, seed)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # NaN pivots in slogdet
def test_lemma_edge_pairs_match_the_scalar_reference():
    # an exactly singular C, a NaN C, and C = D = 0 (a zero block
    # determinant) beside generic pairs, in one stack and each alone
    rng = np.random.default_rng(11)
    c = rng.standard_normal((6, 3, 3)) + 1j * rng.standard_normal((6, 3, 3))
    d = rng.standard_normal((6, 3, 3)) + 1j * rng.standard_normal((6, 3, 3))
    c[1, :, 2] = c[1, :, 0]
    c[2, 0, 1] = math.nan
    c[3] = d[3] = 0.0
    measured, _ = symplectic._reductions(c, d, DEFAULT_TOLERANCES, gated=True)
    with np.errstate(all="ignore"):
        columns, present = symplectic._lemma_residuals(measured, DEFAULT_TOLERANCES)
    for i in range(len(c)):
        ref = _items(loop_lemma_trial(c[i], d[i]))
        assert _items(suites._residuals_of(columns, present, i)) == ref, i
        alone, _ = symplectic._reductions(c[i:i + 1], d[i:i + 1], DEFAULT_TOLERANCES, gated=True)
        entry = symplectic._entries(alone, 0)
        residuals, reached = symplectic._lemma_residuals(entry, DEFAULT_TOLERANCES)
        got = {k: float(v) for k, v in residuals.items() if k not in reached or reached[k]}
        assert _items(got) == ref, i
    assert [("reduction" in suites._residuals_of(columns, present, i)) for i in range(6)] == [
        True, False, False, False, True, True]


class _Filling:
    """An rng whose standard normals are the given values."""

    def __init__(self, values):
        self.values = values

    def standard_normal(self, out):
        out[...] = self.values


def test_ineq_real_zero_determinant_matches_the_scalar_reference():
    # C = D = 0: a zero block determinant and zero split determinants agree
    # (0 between two zeros); a zero D beside a nonzero C too
    n, rng = 3, np.random.default_rng(2)
    draws = [np.zeros((2, n, n)), rng.standard_normal((2, n, n)), rng.standard_normal((2, n, n))]
    draws[2][1] = 0.0
    measured = suites._judge_ineq_real(n, [0, 1, 2], [_Filling(w) for w in draws],
                                       DEFAULT_TOLERANCES)
    with np.errstate(all="ignore"):
        columns, present = suites._RESIDUALS["ineq-real"](measured, DEFAULT_TOLERANCES)
    for i, (c, d) in enumerate(draws):
        dd = scalar_log_det(block_embed_pair(c, d))
        d_plus, d_minus = scalar_log_det(c + 1j * d), scalar_log_det(c - 1j * d)
        im_slack, re_slack = scalar_sign_slacks(dd)
        ref = {"imagSlack": im_slack, "realSlack": re_slack,
               "splitAgreement": dd.rel_diff(d_plus.abs_squared()),
               "splitConjugate": d_minus.rel_diff(d_plus.conjugated())}
        assert _items(suites._residuals_of(columns, present, i)) == _items(ref), i
    assert suites._residuals_of(columns, present, 0)["splitAgreement"] == 0.0


def _reference_report(spec, report):
    """report with the counts built trial by trial from run_trial: passes
    counted, failures recorded in trial order, and each residual's worst
    value kept in the order of its first appearance (a NaN, once one
    appears), with elapsed time 0."""
    passes, failures, worst = 0, [], {}
    for t in range(spec.trials):
        n = spec.half_dims[t % len(spec.half_dims)]
        seed = sd.split_seed(spec.seed, t)
        result = run_trial(spec.suite_id, n, seed, spec.tolerances)
        passes += result.passed
        if not result.passed:
            failures.append({"seed": seed, "halfDim": n, "residuals": result.residuals})
        for k, v in result.residuals.items():
            prev = worst.setdefault(k, 0.0)
            if not v <= prev and prev == prev:
                worst[k] = v
    return dataclasses.replace(report, passes=passes, failures=failures, worst_residuals=worst,
                               elapsed_seconds=0.0)


def _first_group(seed):
    return tuple(GroupKind)[int(sd.rng_from_seed(sd.split_seed(seed, 0)).integers(0, 3))]


@pytest.mark.parametrize("conjugate_first", [True, False])
def test_generator_sanity_report_names_residuals_in_order_of_appearance(conjugate_first):
    seed = next(s for s in range(100)
                if (_first_group(s) is GroupKind.CONJUGATE_SYMPLECTIC) == conjugate_first)
    spec = default_suite_spec("generator-sanity", seed=seed)
    report = run_suite(spec)
    names = list(report.worst_residuals)
    assert (names.index("detUnitModulus") < names.index("detOne")) == conjugate_first
    expected = _reference_report(spec, report)
    report.elapsed_seconds = 0.0
    assert render_json(report) == render_json(expected)


@pytest.mark.parametrize("suite_id", ["real-theorem", "complex-theorem", "conj-formula"])
def test_gated_report_matches_its_trials_across_rounds(suite_id):
    # every trial a failure record, across a round boundary (600 > 512)
    spec = default_suite_spec(suite_id, trials=600, tolerances=GATED)
    report = run_suite(spec)
    assert report.passes == 0 and len(report.failures) == 600 > suites._ROUND
    expected = _reference_report(spec, report)
    report.elapsed_seconds = 0.0
    assert render_json(report) == render_json(expected)
