"""Property suites tying the structure checks together.

A suite is one row of the suite table ``_SUITES``: its trial function, its
default trial count and half-dims, the family of the bound table
:data:`~sympdet.symplectic.RESIDUAL_BOUNDS` that judges the trial's residuals,
and, for a suite that checks sampled group members, their group.  Adding a
suite means adding that row and, if the family is new, its
``RESIDUAL_BOUNDS`` entry.  Each suite maps a trial index to a deterministic
child seed, runs one independent check, judges its residuals, and aggregates
pass counts, worst residuals, and reproducible failure records into a
:class:`~sympdet.report.Report`.  Trials touch no shared state, so they can be
executed in any order or in parallel; results are merged by trial index and
do not depend on scheduling.

The sampling suites (real-theorem, complex-theorem, conj-formula) draw the
members of their trials ahead, as stacks of one half-dim each (see
:mod:`sympdet.generators`), and check each member on its own.  A member is
the matrix ``generate`` gives for its trial's child seed, bit for bit, so
:func:`run_trial`, which generates one member alone, replays any trial.  At
most one stack per half-dim, about 1 MiB, is held at a time.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import asdict, dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from ._version import __version__
from .generators import GeneratorConfig, _sample, elementary_factor, generate
from .linalg import (
    LogDet,
    frobenius,
    log_det,
    phase_angle,
    random_gaussian,
    rng_from_seed,
    split_seed,
)
from .report import Report
from .symplectic import (
    BlockPair,
    DEFAULT_TOLERANCES,
    FormulaInconclusiveError,
    GroupKind,
    MembershipError,
    ToleranceConfig,
    _gated_conj_det,
    block_pair,
    certify_symplectic,
    conj_block_det,
    conj_block_reduction,
    embed_pair,
    membership_residual,
    sign_slacks,
    symplectic_form,
    unitary_split_det,
    within_bounds,
)

@dataclass(frozen=True)
class SuiteSpec:
    """One suite run: which checks, how many trials, over which sizes."""

    suite_id: str
    trials: int
    half_dims: tuple[int, ...]
    seed: int = 0
    tolerances: ToleranceConfig = DEFAULT_TOLERANCES

    def __post_init__(self):
        _suite(self.suite_id)
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.half_dims or any(n < 1 for n in self.half_dims):
            raise ValueError("half_dims must be nonempty, all >= 1")


def default_suite_spec(suite_id: str, seed: int = 0, trials: int | None = None,
                       half_dims: tuple[int, ...] | None = None,
                       tolerances: ToleranceConfig = DEFAULT_TOLERANCES) -> SuiteSpec:
    row = _suite(suite_id)
    return SuiteSpec(
        suite_id=suite_id,
        trials=trials if trials is not None else row.trials,
        half_dims=tuple(half_dims) if half_dims is not None else row.half_dims,
        seed=seed,
        tolerances=tolerances,
    )


@dataclass(frozen=True)
class TrialResult:
    residuals: dict
    passed: bool


def _trial_form_identities(n: int, seed: int, tol: ToleranceConfig) -> dict:
    j = symplectic_form(n)
    eye = np.eye(2 * n)
    return {
        "formSquare": frobenius(j @ j + eye),
        "formSkew": frobenius(j.T + j),
        "formInverse": frobenius(j.T @ j - eye),
        "detOne": abs(log_det(j).value - 1.0),
    }


def _trial_theorem(group: GroupKind, a: np.ndarray, tol: ToleranceConfig) -> dict:
    try:
        cert = certify_symplectic(a, group, tol)
    except MembershipError:
        return {"membership": math.inf}
    return dict(cert.residuals)


def _lemma_inputs(n: int, seed: int):
    """(C, D, mode) with mode 0 generic, 1 and 2 near-singular C."""
    rng = rng_from_seed(seed)
    mode = int(rng.integers(0, 3))
    c = random_gaussian(rng, n, np.complex128)
    d = random_gaussian(rng, n, np.complex128)
    if mode:
        eps = 1e-2 if mode == 1 else 1e-6
        if n == 1:
            rank_deficient = np.zeros((1, 1), np.complex128)
        else:
            rank_deficient = random_gaussian(rng, n, np.complex128)
            coeffs = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
            rank_deficient[:, -1] = rank_deficient[:, :-1] @ coeffs
        c = eps * np.eye(n, dtype=np.complex128) + rank_deficient
    return c, d, mode


def _trial_lemma(n: int, seed: int, tol: ToleranceConfig) -> dict:
    c, d, _ = _lemma_inputs(n, seed)
    try:
        well_conditioned = frobenius(c) * frobenius(np.linalg.inv(c)) <= tol.condition_gate
    except np.linalg.LinAlgError:
        well_conditioned = False
    if well_conditioned:  # the reduction computes the block determinant itself
        probe = conj_block_reduction(c, d, tol)
        dd, reduction_residuals = probe.block_det, probe.residuals
    else:
        dd, reduction_residuals = conj_block_det(c, d), {}
    im_slack, re_slack = sign_slacks(dd, tol)
    return {"imagSlack": im_slack, "realSlack": re_slack, **reduction_residuals}


def _trial_ineq_real(n: int, seed: int, tol: ToleranceConfig) -> dict:
    rng = rng_from_seed(seed)
    c = random_gaussian(rng, n)
    d = random_gaussian(rng, n)
    pair = BlockPair(c, d, GroupKind.REAL_SYMPLECTIC)
    dd = log_det(embed_pair(pair))
    im_slack, re_slack = sign_slacks(dd, tol)
    d_plus, d_minus = unitary_split_det(pair)
    return {
        "imagSlack": im_slack,
        "realSlack": re_slack,
        "splitAgreement": dd.rel_diff(d_plus.abs_squared()),
        "splitConjugate": d_minus.rel_diff(d_plus.conjugated()),
    }


def _conj_oracle_residuals(a) -> tuple[dict, LogDet]:
    oracle = log_det(a)
    return {"membership": membership_residual(a, GroupKind.CONJUGATE_SYMPLECTIC),
            "detModulusOne": abs(math.expm1(oracle.log_magnitude))}, oracle


def conj_formula_check(a, tol: ToleranceConfig = DEFAULT_TOLERANCES
                       ) -> tuple[TrialResult, complex, complex]:
    """The conj-formula suite's check on one matrix.

    Returns the result (residuals membership, detModulusOne and
    phaseAgreement, judged against ``RESIDUAL_BOUNDS["conj-formula"]``), the
    subblock formula phase, and the log_det phase it was compared with.  Raises
    MembershipError or FormulaInconclusiveError as conj_symplectic_det does,
    gating on the membership residual it reports.
    """
    residuals, oracle = _conj_oracle_residuals(a)
    formula_phase = _gated_conj_det(a, residuals["membership"], tol)
    residuals["phaseAgreement"] = phase_angle(formula_phase, oracle.phase)
    passed = within_bounds("conj-formula", residuals, tol)
    return TrialResult(residuals, passed), formula_phase, oracle.phase


def _trial_conj_formula(a: np.ndarray, tol: ToleranceConfig) -> dict:
    residuals, oracle = _conj_oracle_residuals(a)
    try:
        formula_phase = _gated_conj_det(a, residuals["membership"], tol)
    except (MembershipError, FormulaInconclusiveError):
        residuals["phaseAgreement"] = math.inf
    else:
        residuals["phaseAgreement"] = phase_angle(formula_phase, oracle.phase)
    return residuals


def _trial_generator_sanity(n: int, seed: int, tol: ToleranceConfig) -> dict:
    rng = rng_from_seed(seed)
    target = (GroupKind.REAL_SYMPLECTIC, GroupKind.COMPLEX_SYMPLECTIC,
              GroupKind.CONJUGATE_SYMPLECTIC)[int(rng.integers(0, 3))]
    cfg = GeneratorConfig(half_dim=n, target=target, seed=split_seed(seed, 1))

    names = ["shear_lower", "shear_upper", "diag_block", "form"]
    if target is GroupKind.CONJUGATE_SYMPLECTIC:
        names.append("phase")
    worst_factor = 0.0
    for name in names:
        f = elementary_factor(name, cfg, rng)
        worst_factor = max(worst_factor, membership_residual(f, target))

    a = generate(cfg, tol=tol)
    residuals = {
        "factorResidual": worst_factor,
        "productResidual": membership_residual(a, target),
    }
    dd = log_det(a)
    if target is GroupKind.CONJUGATE_SYMPLECTIC:
        residuals["detUnitModulus"] = abs(math.expm1(dd.log_magnitude))
    else:
        residuals["detOne"] = abs(dd.value - 1.0)
    b = generate(cfg, tol=tol)
    same = b.dtype == a.dtype and b.shape == a.shape and b.tobytes() == a.tobytes()
    residuals["determinism"] = 0.0 if same else 1.0
    return residuals


class _Suite(NamedTuple):
    """One property suite: its trial, default trial count and half-dims, the
    RESIDUAL_BOUNDS family that judges the trial's residuals, and the group
    whose generated members it checks.  A trial is called as
    ``trial(n, seed, tol)``, or as ``trial(member, tol)`` when group is set."""

    trial: Callable[..., dict]
    trials: int
    half_dims: tuple[int, ...]
    family: str
    group: GroupKind | None = None


_SUITES = {
    "form-identities": _Suite(_trial_form_identities, 8, tuple(range(1, 9)), "form-identities"),
    "real-theorem": _Suite(partial(_trial_theorem, GroupKind.REAL_SYMPLECTIC), 200,
                           (1, 2, 4, 8, 10), "certificate", GroupKind.REAL_SYMPLECTIC),
    "complex-theorem": _Suite(partial(_trial_theorem, GroupKind.COMPLEX_SYMPLECTIC), 200,
                              (1, 2, 4, 8, 10), "certificate", GroupKind.COMPLEX_SYMPLECTIC),
    "lemma": _Suite(_trial_lemma, 500, tuple(range(1, 9)), "lemma"),
    "ineq-real": _Suite(_trial_ineq_real, 500, tuple(range(1, 9)), "ineq-real"),
    "conj-formula": _Suite(_trial_conj_formula, 200, tuple(range(1, 17)), "conj-formula",
                           GroupKind.CONJUGATE_SYMPLECTIC),
    "generator-sanity": _Suite(_trial_generator_sanity, 60, (1, 2, 3, 4, 6, 8),
                               "generator-sanity"),
}

SUITE_IDS = tuple(_SUITES)


def _suite(suite_id: str) -> _Suite:
    if suite_id not in SUITE_IDS:
        raise ValueError(f"unknown suite {suite_id!r}; known: {', '.join(SUITE_IDS)}")
    return _SUITES[suite_id]


def _judged(row: _Suite, n_half: int, seed: int, member, tol: ToleranceConfig) -> TrialResult:
    residuals = row.trial(n_half, seed, tol) if row.group is None else row.trial(member, tol)
    return TrialResult(residuals=residuals, passed=within_bounds(row.family, residuals, tol))


def run_trial(suite_id: str, n_half: int, seed: int,
              tol: ToleranceConfig = DEFAULT_TOLERANCES) -> TrialResult:
    """Run one trial in isolation; rerunning a recorded failure seed through
    this function reproduces its residuals exactly."""
    row = _suite(suite_id)
    member = None
    if row.group is not None:
        member = generate(GeneratorConfig(half_dim=n_half, target=row.group, seed=seed), tol=tol)
    return _judged(row, n_half, seed, member, tol)


def _trial_inputs(spec: SuiteSpec, group: GroupKind | None):
    """(half-dim, child seed, member) of each trial of spec, in trial order.

    With a group, member is the trial's generated member of it, and each
    half-dim's members come from one sampler, built a stack at a time;
    without one, member is None.
    """
    dims = spec.half_dims
    seeds = [(split_seed(spec.seed, t) for t in range(i, spec.trials, len(dims)))
             for i in range(len(dims))]
    if group is None:
        members = [itertools.repeat(None)] * len(dims)
    else:  # the sampler reads a half-dim's seeds a stack ahead of the trials
        seeds, ahead = zip(*map(itertools.tee, seeds))
        members = [_sample(GeneratorConfig(half_dim=n, target=group), s, tol=spec.tolerances)
                   for n, s in zip(dims, ahead)]
    for t in range(spec.trials):
        i = t % len(dims)
        yield dims[i], next(seeds[i]), next(members[i])


def run_suite(spec: SuiteSpec) -> Report:
    """Run every trial of a suite and aggregate the report.

    Trial t runs at half_dims[t % len(half_dims)] with the t-th child seed of
    spec.seed, so the report is independent of execution order.
    """
    t0 = time.perf_counter()
    row = _suite(spec.suite_id)
    passes = 0
    failures = []
    worst: dict = {}
    for n, child, member in _trial_inputs(spec, row.group):
        result = _judged(row, n, child, member, spec.tolerances)
        if result.passed:
            passes += 1
        else:
            failures.append({"seed": child, "halfDim": n, "residuals": result.residuals})
        for k, v in result.residuals.items():
            prev = worst.get(k, 0.0)
            worst[k] = prev if math.isnan(prev) or v <= prev else v  # NaN wins
    elapsed = time.perf_counter() - t0
    return Report(
        tool=f"sympdet {__version__}",
        suite=spec.suite_id,
        config={
            "suiteId": spec.suite_id,
            "trials": spec.trials,
            "halfDims": list(spec.half_dims),
            "seed": spec.seed,
            "tolerances": asdict(spec.tolerances),
        },
        trials=spec.trials,
        passes=passes,
        failures=failures,
        worst_residuals=worst,
        elapsed_seconds=elapsed,
    )
