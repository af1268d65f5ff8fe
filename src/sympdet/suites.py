"""Property suites tying the structure checks together.

A suite is one row of the suite table ``_SUITES``: its judge, its default
trial count and half-dims, the family of the bound table
:data:`~sympdet.symplectic.RESIDUAL_BOUNDS` that judges the trials'
residuals, and, for a suite that checks sampled group members, their group.
Adding a suite means adding that row and, if the family is new, its
``RESIDUAL_BOUNDS`` entry.  Each suite maps a trial index to a deterministic
child seed, runs one independent check, judges its residuals, and aggregates
pass counts, worst residuals, and reproducible failure records into a
:class:`~sympdet.report.Report`.  Trials touch no shared state, so they can be
executed in any order or in parallel; results are merged by trial index and
do not depend on scheduling.

A judge checks the trials of one half-dim a stack at a time, about 1 MiB of
matrices.  The sampling suites (real-theorem, complex-theorem, conj-formula)
draw the stack of their members (see :mod:`sympdet.generators`) and judge it
through the stacked certificate and formula cores of
:mod:`sympdet.symplectic`; ineq-real and lemma draw their block pairs the
same way, each trial from its own rng, and judge them through the stacked
determinant and block-elimination cores; form-identities and
generator-sanity check their trials one by one.  A stack's results are
merged back in trial order.  Every matrix gets the bits it gets alone, so
:func:`run_trial`, which judges a stack of one, replays any trial.  At most
one stack per half-dim is held at a time.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from ._version import __version__
from .generators import GeneratorConfig, _kinds, _sample, _stacks, elementary_factor, generate
from .linalg import (
    LogDet,
    _log_dets,
    _square,
    frobenius,
    log_det,
    phase_angle,
    rng_from_seed,
    split_seed,
)
from .report import Report
from .symplectic import (
    BlockPair,
    Certificate,
    DEFAULT_TOLERANCES,
    GroupKind,
    ToleranceConfig,
    _certificates,
    _conj_phases,
    _membership_residuals,
    _one,
    _reductions,
    _split_dets,
    embed_pair,
    membership_residual,
    sign_slacks,
    symplectic_form,
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


def _each(trial: Callable[..., dict], n: int, seeds, tol: ToleranceConfig) -> list[dict]:
    """The judge of a suite whose trials are checked one by one."""
    return [trial(n, seed, tol) for seed in seeds]


def _judge_theorem(group: GroupKind, a: np.ndarray, tol: ToleranceConfig) -> list[dict]:
    return [c.residuals if isinstance(c, Certificate) else {"membership": math.inf}
            for c in _certificates(a, group, tol)]


def _lemma_inputs(n: int, seeds) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """The (k, N, N) stacks of C and D of the lemma trials with the given
    seeds, and each trial's mode: 0 generic, 1 and 2 a near-singular C, eps I
    (eps 1e-2 or 1e-6) plus, at N > 1, a matrix whose last column is a
    combination of the others.  A trial draws from its own rng its mode, C
    and D (as random_gaussian does), then that matrix and the combination's
    coefficients (real parts, then imaginary parts)."""
    w = np.empty((len(seeds), 4, n, n))
    modes, rngs = [], []
    for wi, seed in zip(w, seeds):
        rngs.append(rng := rng_from_seed(seed))
        modes.append(int(rng.integers(0, 3)))
        rng.standard_normal(out=wi)  # random_gaussian's C, then D
    c, d = w[:, 0] + 1j * w[:, 1], w[:, 2] + 1j * w[:, 3]
    near = [i for i, mode in enumerate(modes) if mode]
    eps = np.array([1e-2 if modes[i] == 1 else 1e-6 for i in near])
    c[near] = eps[:, None, None] * np.eye(n, dtype=np.complex128)
    if near and n > 1:
        v, q = np.empty((len(near), 2, n, n)), np.empty((len(near), 2, n - 1))
        for vi, qi, i in zip(v, q, near):
            rngs[i].standard_normal(out=vi)
            rngs[i].standard_normal(out=qi)
        r = v[:, 0] + 1j * v[:, 1]
        r[:, :, -1:] = r[:, :, :-1] @ (q[:, 0] + 1j * q[:, 1])[:, :, None]
        c[near] += r
    return c, d, modes


def _judge_lemma(n: int, seeds, tol: ToleranceConfig) -> list[dict]:
    """Each trial's block determinant sign slacks, and the block-elimination
    residuals of those whose C passes the condition gate."""
    out = []
    for probe in _reductions(*_lemma_inputs(n, seeds)[:2], tol, gated=True):
        im_slack, re_slack = sign_slacks(probe.block_det, tol)
        out.append({"imagSlack": im_slack, "realSlack": re_slack, **probe.residuals})
    return out


def _judge_ineq_real(n: int, seeds, tol: ToleranceConfig) -> list[dict]:
    w = np.empty((len(seeds), 2, n, n))
    for wi, seed in zip(w, seeds):
        rng_from_seed(seed).standard_normal(out=wi)  # random_gaussian's C, then D
    c, d = w[:, 0], w[:, 1]
    dets = _log_dets(embed_pair(BlockPair(c, d, GroupKind.REAL_SYMPLECTIC)))
    out = []
    for dd, d_plus, d_minus in zip(dets, *_split_dets(c, d)):
        im_slack, re_slack = sign_slacks(dd, tol)
        out.append({"imagSlack": im_slack, "realSlack": re_slack,
                    "splitAgreement": dd.rel_diff(d_plus.abs_squared()),
                    "splitConjugate": d_minus.rel_diff(d_plus.conjugated())})
    return out


def conj_formula_check(a, tol: ToleranceConfig = DEFAULT_TOLERANCES
                       ) -> tuple[TrialResult, complex, complex]:
    """The conj-formula suite's check on one matrix.

    Returns the result (residuals membership, detModulusOne and
    phaseAgreement, judged against ``RESIDUAL_BOUNDS["conj-formula"]``), the
    subblock formula phase, and the log_det phase it was compared with.  Raises
    MembershipError as conj_symplectic_det does, gating on the membership
    residual it reports before any determinant.
    """
    a = _square(a)
    res_mem = membership_residual(a, GroupKind.CONJUGATE_SYMPLECTIC)
    formula_phase = _one(_conj_phases(a[None], [res_mem], tol)[0])
    oracle = log_det(a)
    residuals = _conj_residuals(res_mem, formula_phase, oracle)
    return (TrialResult(residuals, within_bounds("conj-formula", residuals, tol)),
            formula_phase, oracle.phase)


def _conj_residuals(res_mem: float, phase: complex | Exception, oracle: LogDet) -> dict:
    """The conj-formula residuals; a phase the formula refused to give (a
    MembershipError) disagrees by inf."""
    return {"membership": res_mem,
            "detModulusOne": abs(math.expm1(oracle.log_magnitude)),
            "phaseAgreement": (math.inf if isinstance(phase, Exception)
                               else phase_angle(phase, oracle.phase))}


def _judge_conj_formula(a: np.ndarray, tol: ToleranceConfig) -> list[dict]:
    res_mem = _membership_residuals(a, GroupKind.CONJUGATE_SYMPLECTIC)
    return list(map(_conj_residuals, res_mem, _conj_phases(a, res_mem, tol), _log_dets(a)))


def _trial_generator_sanity(n: int, seed: int, tol: ToleranceConfig) -> dict:
    rng = rng_from_seed(seed)
    target = (GroupKind.REAL_SYMPLECTIC, GroupKind.COMPLEX_SYMPLECTIC,
              GroupKind.CONJUGATE_SYMPLECTIC)[int(rng.integers(0, 3))]
    cfg = GeneratorConfig(half_dim=n, target=target, seed=split_seed(seed, 1))

    worst_factor = 0.0
    for name in _kinds(target):
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
    """One property suite: its judge, default trial count and half-dims, the
    RESIDUAL_BOUNDS family that judges the trials' residuals, and the group
    whose generated members it checks.  A judge returns the residuals of a
    stack of trials at one half-dim, in order; it is called as
    ``judge(n, seeds, tol)``, drawing each trial from its seed, or as
    ``judge(members, tol)`` with the (k, 2N, 2N) stack of the trials'
    members when group is set."""

    judge: Callable[..., list[dict]]
    trials: int
    half_dims: tuple[int, ...]
    family: str
    group: GroupKind | None = None


_SUITES = {
    "form-identities": _Suite(partial(_each, _trial_form_identities), 8, tuple(range(1, 9)),
                              "form-identities"),
    "real-theorem": _Suite(partial(_judge_theorem, GroupKind.REAL_SYMPLECTIC), 200,
                           (1, 2, 4, 8, 10), "certificate", GroupKind.REAL_SYMPLECTIC),
    "complex-theorem": _Suite(partial(_judge_theorem, GroupKind.COMPLEX_SYMPLECTIC), 200,
                              (1, 2, 4, 8, 10), "certificate", GroupKind.COMPLEX_SYMPLECTIC),
    "lemma": _Suite(_judge_lemma, 500, tuple(range(1, 9)), "lemma"),
    "ineq-real": _Suite(_judge_ineq_real, 500, tuple(range(1, 9)), "ineq-real"),
    "conj-formula": _Suite(_judge_conj_formula, 200, tuple(range(1, 17)), "conj-formula",
                           GroupKind.CONJUGATE_SYMPLECTIC),
    "generator-sanity": _Suite(partial(_each, _trial_generator_sanity), 60, (1, 2, 3, 4, 6, 8),
                               "generator-sanity"),
}

SUITE_IDS = tuple(_SUITES)


def _suite(suite_id: str) -> _Suite:
    if suite_id not in SUITE_IDS:
        raise ValueError(f"unknown suite {suite_id!r}; known: {', '.join(SUITE_IDS)}")
    return _SUITES[suite_id]


def _judgements(row: _Suite, n_half: int, seeds, tol: ToleranceConfig):
    """The residuals of the trials with the given seeds at half-dim n_half,
    in order, judged a stack at a time."""
    if row.group is None:
        for batch in _stacks(seeds, 2 * n_half, np.float64):
            yield from row.judge(n_half, batch, tol)
    else:
        for members in _sample(GeneratorConfig(half_dim=n_half, target=row.group), seeds,
                               tol=tol):
            yield from row.judge(members, tol)


def run_trial(suite_id: str, n_half: int, seed: int,
              tol: ToleranceConfig = DEFAULT_TOLERANCES) -> TrialResult:
    """Run one trial in isolation, as a stack of one; rerunning a recorded
    failure seed through this function reproduces its residuals exactly."""
    row = _suite(suite_id)
    residuals = next(_judgements(row, n_half, [seed], tol))
    return TrialResult(residuals=residuals, passed=within_bounds(row.family, residuals, tol))


def run_suite(spec: SuiteSpec) -> Report:
    """Run every trial of a suite and aggregate the report.

    Trial t runs at half_dims[t % len(half_dims)] with the t-th child seed of
    spec.seed, so the report is independent of execution order.
    """
    t0 = time.perf_counter()
    row = _suite(spec.suite_id)
    dims, tol = spec.half_dims, spec.tolerances
    judged = [_judgements(row, n, (split_seed(spec.seed, t)
                                   for t in range(i, spec.trials, len(dims))), tol)
              for i, n in enumerate(dims)]
    passes = 0
    failures = []
    worst: dict = {}
    for t in range(spec.trials):
        residuals = next(judged[t % len(dims)])
        if within_bounds(row.family, residuals, tol):
            passes += 1
        else:
            failures.append({"seed": split_seed(spec.seed, t), "halfDim": dims[t % len(dims)],
                             "residuals": residuals})
        for k, v in residuals.items():
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
