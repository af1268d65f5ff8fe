"""Property suites tying the structure checks together.

A suite is one row of the suite table ``_SUITES``: its judge, its default
trial count and half-dims, and the family of the bound table
:data:`~sympdet.symplectic.RESIDUAL_BOUNDS` that judges the trials'
residuals.  Adding a suite means adding that row and, if the family is new,
its ``RESIDUAL_BOUNDS`` entry.  Each suite maps a trial index to a
deterministic child seed and an rng seeded with it (both derived for a round
of trials at once), runs one independent check, judges its residuals, and
aggregates pass counts, worst residuals, and reproducible failure records
into a :class:`~sympdet.report.Report`.  Trials touch no shared state, so
they can be executed in any order or in parallel; results are merged by
trial index and do not depend on scheduling.

Every judge is called alike, on the seeds and rngs of a stack of trials at
one half-dim (1 MiB of complex128 matrices), and draws what it checks, each
trial from its own rng.  The sampling suites (real-theorem, complex-theorem,
conj-formula) sample their members (see :mod:`sympdet.generators`) and judge
them, with the sampler's membership residuals, through the stacked
certificate and formula cores of :mod:`sympdet.symplectic`; ineq-real and
lemma draw block pairs and judge them through the stacked determinant and
block-elimination cores; generator-sanity gates the factors and samples the
members of each group's trials as stacks; form-identities reads no seed and
checks each half-dim once.  No suite is judged one trial at a time.  A
stack's results are merged back in trial order.  Every matrix gets the bits
it gets alone, so :func:`run_trial`, which judges a stack of one, replays
any trial.  At most one stack per half-dim is held at a time, with the seeds
and rngs of one round of ``_ROUND`` trials: a suite's memory grows with its
trials up to a round, then stays flat.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from ._version import __version__
from . import generators
from .generators import GeneratorConfig, _factors, _kind_count, _sample
from .linalg import (
    LogDet,
    _child_seeds,
    _frobeniuses,
    _index,
    _log_dets,
    _rngs,
    _square,
    log_det,
    phase_angle,
    rng_from_seed,
)
from .report import Report
from .symplectic import (
    BlockPair,
    DEFAULT_TOLERANCES,
    GroupKind,
    MembershipError,
    ToleranceConfig,
    _certificates,
    _checker,
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

__all__ = ["SUITE_IDS", "SuiteSpec", "TrialResult", "conj_formula_check", "default_suite_spec",
           "run_suite", "run_trial"]


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
        # numpy integers are kept as ints, which the report's JSON can hold
        object.__setattr__(self, "trials", _index(self.trials, "trials"))
        try:
            dims = tuple(_index(n, "half_dims") for n in self.half_dims)
        except TypeError:  # not a sequence
            raise ValueError(f"half_dims must be integers, got {self.half_dims!r}") from None
        object.__setattr__(self, "half_dims", dims)
        object.__setattr__(self, "seed", _index(self.seed, "seed"))
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


def _judge_form_identities(n: int, seeds, rngs, tol: ToleranceConfig) -> list[dict]:
    """The trials read no seed: each gets a copy of one check at half-dim n."""
    j = symplectic_form(n)
    eye = np.eye(2 * n)
    square, skew, inverse = _frobeniuses(np.stack([j @ j + eye, j.T + j, j.T @ j - eye]))
    residuals = {"formSquare": square, "formSkew": skew, "formInverse": inverse,
                 "detOne": abs(log_det(j).value - 1.0)}
    return [dict(residuals) for _ in seeds]


def _judge_theorem(group: GroupKind, n: int, seeds, rngs, tol: ToleranceConfig) -> list[dict]:
    """Each member's certificate residuals, or the membership residual that gated it out."""
    a, res_mem = _sample(GeneratorConfig(half_dim=n, target=group), rngs, tol=tol)
    return [{"membership": r} if isinstance(c, MembershipError) else c[0]
            for c, r in zip(_certificates(a, res_mem, group, tol), res_mem)]


def _lemma_inputs(n: int, rngs) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """The (k, N, N) stacks of C and D of the lemma trials with the given
    rngs, and each trial's mode: 0 generic, 1 and 2 a near-singular C, eps I
    (eps 1e-2 or 1e-6) plus, at N > 1, a matrix whose last column is a
    combination of the others.  A trial draws from its own rng its mode,
    then C, D, that matrix and the combination's coefficients, each as its
    real parts, then its imaginary parts."""
    w = np.empty((len(rngs), 4, n, n))
    modes = []
    for wi, rng in zip(w, rngs):
        modes.append(int(rng.integers(0, 3)))
        rng.standard_normal(out=wi)  # C's real and imaginary parts, then D's
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


def _judge_lemma(n: int, seeds, rngs, tol: ToleranceConfig) -> list[dict]:
    """Each trial's block determinant sign slacks, and the block-elimination
    residuals of those whose C passes the condition gate."""
    out = []
    for _, block_det, _, residuals in _reductions(*_lemma_inputs(n, rngs)[:2], tol, gated=True):
        im_slack, re_slack = sign_slacks(block_det, tol)
        out.append({"imagSlack": im_slack, "realSlack": re_slack, **residuals})
    return out


def _judge_ineq_real(n: int, seeds, rngs, tol: ToleranceConfig) -> list[dict]:
    w = np.empty((len(rngs), 2, n, n))
    for wi, rng in zip(w, rngs):
        rng.standard_normal(out=wi)  # C, then D
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


def _judge_conj_formula(n: int, seeds, rngs, tol: ToleranceConfig) -> list[dict]:
    cfg = GeneratorConfig(half_dim=n, target=GroupKind.CONJUGATE_SYMPLECTIC)
    a, res_mem = _sample(cfg, rngs, tol=tol)
    return list(map(_conj_residuals, res_mem, _conj_phases(a, res_mem, tol), _log_dets(a)))


def _judge_generator_sanity(n: int, seeds, rngs, tol: ToleranceConfig) -> list[dict]:
    """Each trial draws its group, then one factor of each kind, from its rng;
    its member is sampled twice, from fresh rngs seeded split_seed(seed, 1),
    and must be the same bytes.  Each group's trials are judged as a stack."""
    groups = [tuple(GroupKind)[int(rng.integers(0, 3))] for rng in rngs]
    member_rngs = _rngs(np.tile(_child_seeds(seeds, 1), 2))  # the two samplings
    out = [{} for _ in rngs]
    for group in GroupKind:
        idx = [i for i, g in enumerate(groups) if g is group]
        if not idx:
            continue
        cfg = GeneratorConfig(half_dim=n, target=group)
        kinds = np.tile(np.arange(_kind_count(group)), (len(idx), 1))  # one of each kind
        factors = _factors(cfg, [rngs[i] for i in idx], kinds)
        factor_res = np.reshape(_membership_residuals(factors.reshape(-1, 2 * n, 2 * n), group),
                                kinds.shape)
        (a, res_a), (b, _) = (_sample(cfg, [member_rngs[i + k] for i in idx], tol=tol)
                              for k in (0, len(rngs)))
        for j, (i, res, dd) in enumerate(zip(idx, res_a, _log_dets(a))):
            r = out[i]
            r["factorResidual"] = max(0.0, *factor_res[j].tolist())
            r["productResidual"] = res
            if group is GroupKind.CONJUGATE_SYMPLECTIC:
                r["detUnitModulus"] = abs(math.expm1(dd.log_magnitude))
            else:
                r["detOne"] = abs(dd.value - 1.0)
            r["determinism"] = 0.0 if a[j].tobytes() == b[j].tobytes() else 1.0
    return out


class _Suite(NamedTuple):
    """One property suite: its judge, default trial count and half-dims, and
    the RESIDUAL_BOUNDS family that judges the trials' residuals.  A judge is
    called as ``judge(n, seeds, rngs, tol)`` on a stack of trials at half-dim
    n, each trial drawing from its rng (which is rng_from_seed of its seed),
    and returns their residuals in order."""

    judge: Callable[..., list[dict]]
    trials: int
    half_dims: tuple[int, ...]
    family: str


_SUITES = {
    "form-identities": _Suite(_judge_form_identities, 8, tuple(range(1, 9)), "form-identities"),
    "real-theorem": _Suite(partial(_judge_theorem, GroupKind.REAL_SYMPLECTIC), 200,
                           (1, 2, 4, 8, 10), "certificate"),
    "complex-theorem": _Suite(partial(_judge_theorem, GroupKind.COMPLEX_SYMPLECTIC), 200,
                              (1, 2, 4, 8, 10), "certificate"),
    "lemma": _Suite(_judge_lemma, 500, tuple(range(1, 9)), "lemma"),
    "ineq-real": _Suite(_judge_ineq_real, 500, tuple(range(1, 9)), "ineq-real"),
    "conj-formula": _Suite(_judge_conj_formula, 200, tuple(range(1, 17)), "conj-formula"),
    "generator-sanity": _Suite(_judge_generator_sanity, 60, (1, 2, 3, 4, 6, 8),
                               "generator-sanity"),
}

SUITE_IDS = tuple(_SUITES)


def _suite(suite_id: str) -> _Suite:
    if suite_id not in SUITE_IDS:
        raise ValueError(f"unknown suite {suite_id!r}; known: {', '.join(SUITE_IDS)}")
    return _SUITES[suite_id]


def _judgements(row: _Suite, n_half: int, seeds: list, rngs: list, tol: ToleranceConfig):
    """The residuals of the trials with the given seeds, and rngs seeded with
    them, at half-dim n_half, in order, judged as many as fit in _STACK_BYTES
    as complex128 matrices at a time (one, if larger): every suite's one cut."""
    k = max(1, generators._STACK_BYTES // ((2 * n_half) ** 2 * 16))
    for i in range(0, len(seeds), k):
        yield from row.judge(n_half, seeds[i:i + k], rngs[i:i + k], tol)


def run_trial(suite_id: str, n_half: int, seed: int,
              tol: ToleranceConfig = DEFAULT_TOLERANCES) -> TrialResult:
    """Run one trial in isolation, as a stack of one; rerunning a recorded
    failure seed through this function reproduces its residuals exactly."""
    row = _suite(suite_id)
    if _index(n_half, "n_half") < 1:
        raise ValueError("half_dim must be >= 1")
    residuals = next(_judgements(row, n_half, [seed], [rng_from_seed(seed)], tol))
    return TrialResult(residuals=residuals, passed=within_bounds(row.family, residuals, tol))


# trials whose child seeds and rngs are derived at once: one pass of the seed
# hash per round, and a round's rngs (under 1 KiB each) bound the memory held
_ROUND = 512


def run_suite(spec: SuiteSpec) -> Report:
    """Run every trial of a suite and aggregate the report.

    Trial t runs at half_dims[t % len(half_dims)] with the t-th child seed of
    spec.seed, so the report is independent of execution order.  The child
    seeds and their rngs are derived a round of _ROUND trials at a time.
    """
    t0 = time.perf_counter()
    row = _suite(spec.suite_id)
    dims, tol, within = spec.half_dims, spec.tolerances, _checker(row.family, spec.tolerances)
    passes = 0
    failures = []
    worst: dict = {}
    for start in range(0, spec.trials, _ROUND):
        block = _child_seeds(spec.seed, np.arange(start, min(start + _ROUND, spec.trials)))
        seeds, rngs = block.tolist(), _rngs(block)
        lanes = [slice((i - start) % len(dims), None, len(dims)) for i in range(len(dims))]
        judged = [_judgements(row, n, seeds[lane], rngs[lane], tol)
                  for n, lane in zip(dims, lanes)]
        for t, seed in enumerate(seeds, start):
            residuals = next(judged[t % len(dims)])
            if within(residuals):
                passes += 1
            else:
                failures.append({"seed": seed, "halfDim": dims[t % len(dims)],
                                 "residuals": residuals})
            for k, v in residuals.items():
                prev = worst.setdefault(k, 0.0)
                if not v <= prev and prev == prev:  # NaN wins, and stays
                    worst[k] = v
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
