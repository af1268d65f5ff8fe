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
one half-dim (1 MiB of complex128 matrices), draws what it checks, each
trial from its own rng, and measures it through the stacked cores of
:mod:`sympdet.symplectic`, returning columns.  The sampling suites
(real-theorem, complex-theorem, conj-formula) sample their members (see
:mod:`sympdet.generators`) and measure them with the sampler's membership
residuals; ineq-real and lemma draw block pairs; generator-sanity gates the
factors and samples the members of each group's trials as stacks;
form-identities reads no seed and checks each half-dim once.  Trials are
judged a round at a time: ``_ROUND`` consecutive trials, every half-dim's
stacks of them measured, their columns placed in trial order, and the
residual function of the suite's family run once over the round.
:func:`run_suite` then compares each residual column with its bound once,
takes each residual's worst value with one NaN-propagating max (names in
order of first appearance), and builds a residual dict only for a failing
trial.  Every matrix gets the bits it gets alone, and the column arithmetic
those of Python's scalar arithmetic, so :func:`run_trial`, a round of one,
replays any trial.  One stack is held at a time, with the seeds, rngs and
columns of one round: a suite's memory grows with its trials up to a
round, then stays flat.
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
    _abs_squared,
    _child_seeds,
    _det_columns,
    _frobeniuses,
    _index,
    _map,
    _phase_angles,
    _rel_diffs,
    _rngs,
    _square,
    _where,
    rng_from_seed,
)
from .report import Report
from .symplectic import (
    BlockPair,
    DEFAULT_TOLERANCES,
    GroupKind,
    ToleranceConfig,
    _bounds,
    _certificate_residuals,
    _certificates,
    _conj_phases,
    _entries,
    _formula_phase,
    _formula_phases,
    _lemma_residuals,
    _membership_residuals,
    _off_one,
    _reductions,
    _sign_slacks,
    _split_dets,
    embed_pair,
    membership_residual,
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


def _judge_form_identities(n: int, seeds, rngs, tol: ToleranceConfig) -> dict:
    """The trials read no seed: each gets a copy of one check at half-dim n."""
    j = symplectic_form(n)
    eye = np.eye(2 * n)
    norms = np.array(_frobeniuses(np.stack([j @ j + eye, j.T + j, j.T @ j - eye])))
    k = len(seeds)
    return {"norms": np.repeat(norms[:, None], k, 1),
            "det": np.repeat(_det_columns(j[None]), k, 1)}


def _form_identities_residuals(m: dict, tol: ToleranceConfig) -> tuple[dict, dict]:
    square, skew, inverse = m["norms"]
    return {"formSquare": square, "formSkew": skew, "formInverse": inverse,
            "detOne": _off_one(m["det"])}, {}


def _judge_theorem(group: GroupKind, n: int, seeds, rngs, tol: ToleranceConfig) -> dict:
    """Each member's certificate, or the membership residual that gated it out."""
    a, res_mem = _sample(GeneratorConfig(half_dim=n, target=group), rngs, tol=tol)
    return _certificates(a, res_mem, group, tol)


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


def _judge_lemma(n: int, seeds, rngs, tol: ToleranceConfig) -> dict:
    """Each trial's block determinant, and the block elimination of those
    whose C passes the condition gate."""
    return _reductions(*_lemma_inputs(n, rngs)[:2], tol, gated=True)[0]


def _judge_ineq_real(n: int, seeds, rngs, tol: ToleranceConfig) -> dict:
    w = np.empty((len(rngs), 2, n, n))
    for wi, rng in zip(w, rngs):
        rng.standard_normal(out=wi)  # C, then D
    c, d = w[:, 0], w[:, 1]
    d_plus, d_minus = _split_dets(c, d)
    return {"block": _det_columns(embed_pair(BlockPair(c, d, GroupKind.REAL_SYMPLECTIC))),
            "d_plus": d_plus, "d_minus": d_minus}


def _ineq_real_residuals(m: dict, tol: ToleranceConfig) -> tuple[dict, dict]:
    imag, real = _sign_slacks(m["block"], tol)
    d_plus = m["d_plus"]
    return {"imagSlack": imag, "realSlack": real,
            "splitAgreement": _rel_diffs(m["block"], _abs_squared(d_plus)),
            "splitConjugate": _rel_diffs(m["d_minus"], (d_plus[0], d_plus[1], -d_plus[2]))}, {}


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
    entry = _entries(_conj_phases(a[None], np.array([res_mem]), tol), 0)
    formula_phase = _formula_phase(entry, tol)
    entry["oracle"] = _det_columns(a[None])[:, 0].tolist()
    residuals = _conj_formula_residuals(entry, tol)[0]
    return (TrialResult(residuals, within_bounds("conj-formula", residuals, tol)),
            formula_phase, complex(*entry["oracle"][1:]))


def _judge_conj_formula(n: int, seeds, rngs, tol: ToleranceConfig) -> dict:
    cfg = GeneratorConfig(half_dim=n, target=GroupKind.CONJUGATE_SYMPLECTIC)
    a, res_mem = _sample(cfg, rngs, tol=tol)
    return {**_conj_phases(a, res_mem, tol), "oracle": _det_columns(a)}


def _conj_formula_residuals(m: dict, tol: ToleranceConfig) -> tuple[dict, dict]:
    """The conj-formula residuals; a phase the formula refused to give (a
    MembershipError) disagrees by inf."""
    re, im, given, _ = _formula_phases(m, tol)
    lm, *phase = m["oracle"]
    return {"membership": m["membership"],
            "detModulusOne": abs(_map(math.expm1, lm)),
            "phaseAgreement": _where(given, _phase_angles((re, im), phase), math.inf)}, {}


def _judge_generator_sanity(n: int, seeds, rngs, tol: ToleranceConfig) -> dict:
    """Each trial draws its group, then one factor of each kind, from its rng;
    its member is sampled twice, from fresh rngs seeded split_seed(seed, 1),
    and must be the same bytes.  Each group's trials are measured as a stack."""
    codes = np.array([int(rng.integers(0, 3)) for rng in rngs], int)
    member_rngs = _rngs(np.tile(_child_seeds(seeds, 1), 2))  # the two samplings
    k = len(rngs)
    out = {"conjugate": codes == tuple(GroupKind).index(GroupKind.CONJUGATE_SYMPLECTIC),
           "factors": np.full((_kind_count(GroupKind.CONJUGATE_SYMPLECTIC), k), math.nan),
           "product": np.empty(k), "det": np.empty((3, k)), "same": np.empty(k, bool)}
    for code, group in enumerate(GroupKind):
        idx = np.flatnonzero(codes == code)
        if not len(idx):
            continue
        cfg = GeneratorConfig(half_dim=n, target=group)
        kinds = np.tile(np.arange(_kind_count(group)), (len(idx), 1))  # one of each kind
        factors = _factors(cfg, [rngs[i] for i in idx], kinds)
        out["factors"][:kinds.shape[1], idx] = np.reshape(
            _membership_residuals(factors.reshape(-1, 2 * n, 2 * n), group), kinds.shape).T
        (a, res_a), (b, _) = (_sample(cfg, [member_rngs[i + j] for i in idx.tolist()], tol=tol)
                              for j in (0, k))
        out["product"][idx] = res_a
        out["det"][:, idx] = _det_columns(a)
        out["same"][idx] = [x.tobytes() == y.tobytes() for x, y in zip(a, b)]
    return out


def _generator_sanity_residuals(m: dict, tol: ToleranceConfig) -> tuple[dict, dict]:
    """The generator-sanity residuals: a conjugate member's determinant is
    judged by its modulus, any other's by its distance from 1."""
    conjugate = m["conjugate"]
    return {
        # max(0.0, *residuals): a NaN residual never wins
        "factorResidual": np.fmax.reduce(m["factors"], axis=0, initial=0.0),
        "productResidual": m["product"],
        "detOne": _off_one(m["det"]),
        "detUnitModulus": np.abs(_map(math.expm1, m["det"][0])),
        "determinism": np.where(m["same"], 0.0, 1.0),
    }, {"detOne": ~conjugate, "detUnitModulus": conjugate}


class _Suite(NamedTuple):
    """One property suite: its judge, default trial count and half-dims, and
    the RESIDUAL_BOUNDS family that judges the trials' residuals.  A judge is
    called as ``judge(n, seeds, rngs, tol)`` on a stack of trials at half-dim
    n, each trial drawing from its rng (which is rng_from_seed of its seed),
    and returns their measurement columns, in order."""

    judge: Callable[..., dict]
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

# The residual function of each RESIDUAL_BOUNDS family: from the measurement
# columns of a round, one column per residual name in the family's order,
# and the presence mask of each residual some trials never reach.
_RESIDUALS = {
    "form-identities": _form_identities_residuals,
    "certificate": _certificate_residuals,
    "lemma": _lemma_residuals,
    "ineq-real": _ineq_real_residuals,
    "conj-formula": _conj_formula_residuals,
    "generator-sanity": _generator_sanity_residuals,
}


def _suite(suite_id: str) -> _Suite:
    if suite_id not in SUITE_IDS:
        raise ValueError(f"unknown suite {suite_id!r}; known: {', '.join(SUITE_IDS)}")
    return _SUITES[suite_id]


def _round(row: _Suite, dims: tuple, start: int, seeds: list, rngs: list,
           tol: ToleranceConfig) -> tuple[dict, dict]:
    """The residual columns, and presence masks, of the trials start,
    start + 1, ... with the given seeds, and rngs seeded with them, in trial
    order; trial t runs at half-dim dims[t % len(dims)].  Each half-dim's
    trials are measured as many as fit in _STACK_BYTES as complex128
    matrices at a time (one, if larger): every suite's one cut.  Their
    measurements are put in trial order, and the family's residual function
    judges the whole round at once."""
    stacks, trials = [], []
    for i, n in enumerate(dims):
        lane = range(len(seeds))[(i - start) % len(dims)::len(dims)]
        k = max(1, generators._STACK_BYTES // ((2 * n) ** 2 * 16))
        for j in range(0, len(lane), k):
            stack = lane[j:j + k]
            stacks.append(row.judge(n, [seeds[t] for t in stack], [rngs[t] for t in stack], tol))
            trials.append(stack)
    order = np.argsort(np.concatenate(trials), kind="stable")
    measured = {key: np.concatenate([m[key] for m in stacks], axis=-1)[..., order]
                for key in stacks[0]}
    with np.errstate(all="ignore"):  # NaN and inf entries take Python's values, unwarned
        return _RESIDUALS[row.family](measured, tol)


def _passed(columns: dict, present: dict, bounds: dict) -> np.ndarray:
    """Whether each trial's residuals are all within their bounds (a NaN
    residual never is): one comparison per residual name."""
    ok = np.ones(len(next(iter(columns.values()))), bool)
    for name, column in columns.items():
        within = column <= bounds[name]
        if name in present:
            within |= ~present[name]
        ok &= within
    return ok


def _residuals_of(columns: dict, present: dict, t: int) -> dict:
    """Trial t's residuals, in the family's order, as Python floats."""
    return {name: float(column[t]) for name, column in columns.items()
            if name not in present or present[name][t]}


def run_trial(suite_id: str, n_half: int, seed: int,
              tol: ToleranceConfig = DEFAULT_TOLERANCES) -> TrialResult:
    """Run one trial in isolation, as a round of one; rerunning a recorded
    failure seed through this function reproduces its residuals exactly."""
    row = _suite(suite_id)
    if _index(n_half, "n_half") < 1:
        raise ValueError("half_dim must be >= 1")
    columns, present = _round(row, (n_half,), 0, [seed], [rng_from_seed(seed)], tol)
    return TrialResult(residuals=_residuals_of(columns, present, 0),
                       passed=bool(_passed(columns, present, _bounds(row.family, tol))[0]))


# trials whose child seeds and rngs are derived, and whose residuals are
# judged, at once: one pass of the seed hash and of the residual function
# per round, and a round's rngs (under 1 KiB each) bound the memory held
_ROUND = 512


def run_suite(spec: SuiteSpec) -> Report:
    """Run every trial of a suite and aggregate the report.

    Trial t runs at half_dims[t % len(half_dims)] with the t-th child seed of
    spec.seed, so the report is independent of execution order.  The child
    seeds and their rngs are derived, and the trials judged, a round of
    _ROUND trials at a time.  A report names each residual in the order of
    its first appearance in a trial, and keeps the worst value of each (a
    NaN, once one appears); a failing trial's residuals are recorded with
    its seed.
    """
    t0 = time.perf_counter()
    row = _suite(spec.suite_id)
    dims, tol = spec.half_dims, spec.tolerances
    bounds = _bounds(row.family, tol)
    passes = 0
    failures = []
    worst: dict = {}
    for start in range(0, spec.trials, _ROUND):
        block = _child_seeds(spec.seed, np.arange(start, min(start + _ROUND, spec.trials)))
        seeds = block.tolist()
        columns, present = _round(row, dims, start, seeds, _rngs(block), tol)
        passed = _passed(columns, present, bounds)
        passes += int(np.count_nonzero(passed))
        for t in np.flatnonzero(~passed).tolist():
            failures.append({"seed": seeds[t], "halfDim": dims[(start + t) % len(dims)],
                             "residuals": _residuals_of(columns, present, t)})
        found = []
        for position, (name, column) in enumerate(columns.items()):
            mask = present.get(name)
            values = column if mask is None else column[mask]
            if len(values):
                first = 0 if mask is None else int(mask.argmax())
                found.append((first, position, name, float(values.max())))  # max keeps a NaN
        for _, _, name, v in sorted(found):  # in order of first appearance
            prev = worst.setdefault(name, 0.0)
            if not v <= prev and prev == prev:  # NaN wins, and stays
                worst[name] = v
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
