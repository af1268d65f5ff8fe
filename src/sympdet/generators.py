"""Seeded random sampling of real/complex symplectic and conjugate symplectic
matrices as products of elementary structured factors.

Each factor family is in its group exactly (up to rounding): shears
[[I, 0], [S, I]] and [[I, S], [0, I]] with S symmetric (Hermitian for the
conjugate group), block diagonals [[P, 0], [0, P^{-T}]] (P^{-*} for the
conjugate group), the form J itself, and unit scalar phases for the conjugate
group.  Products therefore stay in the group to rounding, with per-factor
condition clamps keeping downstream determinant checks meaningful.  The
sampled distribution is deliberately simple, not uniform over the group.

Members are sampled as stacks: :func:`generate` is the stack of one, and the
property suites build the members of many trials of one half-dim at once.
Each member still draws from its own rng exactly what it would draw alone,
and numpy's stacked arithmetic does to each matrix what it does to that
matrix alone, so every member is bitwise independent of the stack it was
built in.  Every factor kind has one fill, over a stack; the public single
factor builders are its stack of one.  The product gate takes the membership
residuals of a whole stack at once, and the sampler hands the suites whole
stacks to judge.  A stack holds at most about 1 MiB of
members (one member, if that is larger), so memory does not grow with the
number of members sampled.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .linalg import SingularMatrixError, _frobeniuses, _square, rng_from_seed
from .symplectic import (
    DEFAULT_TOLERANCES,
    GroupKind,
    ToleranceConfig,
    _forms,
    _membership_residuals,
)

FACTOR_KINDS = ("shear_lower", "shear_upper", "diag_block", "form", "phase")

_MAX_ATTEMPTS = 5
_STACK_BYTES = 1 << 20  # members built as one stack; larger stacks save little more


def _kinds(group: GroupKind) -> tuple[str, ...]:
    """The factor kinds of a group, in FACTOR_KINDS order: phase belongs to
    the conjugate group only."""
    return FACTOR_KINDS[:5 if group is GroupKind.CONJUGATE_SYMPLECTIC else 4]


class GenerationError(RuntimeError):
    """Generation could not produce a matrix passing its group residual."""


@dataclass(frozen=True)
class GeneratorConfig:
    """Sampling parameters for one structured-group matrix.

    factor_scale sets the entry scale of shear and perturbation blocks
    (normalized by sqrt(N) so factor norms are dimension-stable);
    condition_cap clamps each factor's condition number.  Both must be
    finite.
    """

    half_dim: int
    target: GroupKind = GroupKind.REAL_SYMPLECTIC
    num_factors: int = 12
    factor_scale: float = 1.0
    condition_cap: float = 20.0
    seed: int = 0

    def __post_init__(self):
        if self.half_dim < 1:
            raise ValueError("half_dim must be >= 1")
        if self.num_factors < 1:
            raise ValueError("num_factors must be >= 1")
        if not 0 < self.factor_scale < math.inf:
            raise ValueError("factor_scale must be finite and > 0")
        if not 1 < self.condition_cap < math.inf:
            raise ValueError("condition_cap must be finite and > 1")


def _symmetrized(s: np.ndarray, hermitian: bool) -> np.ndarray:
    """(S + S^T) / 2, or (S + S^*) / 2 if hermitian, of each matrix of a stack."""
    return (s + (s.conj() if hermitian else s).swapaxes(-1, -2)) / 2


def _norm_clamped(x: np.ndarray, cap: float) -> np.ndarray:
    """Each matrix of a stack scaled down, in place, to Frobenius norm <= cap
    (each norm is the one frobenius gives for that matrix alone)."""
    for i, f in enumerate(_frobeniuses(x)):
        if not f <= cap:
            x[i] *= cap / f
    return x


def _identities(k: int, m: int, dtype) -> np.ndarray:
    """A stack of k m x m identities."""
    out = np.zeros((k, m, m), dtype)
    out.reshape(k, m * m)[:, ::m + 1] = 1
    return out


def _shears(s: np.ndarray, lower: bool) -> np.ndarray:
    """[[I, 0], [S, I]] if lower else [[I, S], [0, I]] for each S of a stack
    of already symmetrized blocks."""
    k, n, _ = s.shape
    out = _identities(k, 2 * n, s.dtype)
    if lower:
        out[:, n:, :n] = s
    else:
        out[:, :n, n:] = s
    return out


def _diag_blocks(p: np.ndarray, conjugate: bool) -> np.ndarray:
    """[[P, 0], [0, P^{-T}]] (P^{-*} if conjugate) for each P of a stack."""
    k, n, _ = p.shape
    try:
        pinv = np.linalg.inv(p)
    except np.linalg.LinAlgError:
        raise SingularMatrixError("diag_block needs an invertible P") from None
    out = np.zeros((k, 2 * n, 2 * n), p.dtype)
    out[:, :n, :n] = p
    out[:, n:, n:] = (pinv.conj() if conjugate else pinv).swapaxes(-1, -2)
    return out


def _phases(thetas, n_half: int) -> np.ndarray:
    """exp(i theta) I_2N for each theta, as a stack."""
    z = np.array([complex(math.cos(t), math.sin(t)) for t in thetas])
    return z[:, None, None] * np.eye(2 * n_half, dtype=np.complex128)


def shear_lower(s, target: GroupKind = GroupKind.REAL_SYMPLECTIC) -> np.ndarray:
    """[[I, 0], [S, I]] with S symmetrized (Hermitian for the conjugate group)."""
    s = _symmetrized(_square(s), target is GroupKind.CONJUGATE_SYMPLECTIC)
    return _shears(s[None], True)[0]


def shear_upper(s, target: GroupKind = GroupKind.REAL_SYMPLECTIC) -> np.ndarray:
    """[[I, S], [0, I]] with S symmetrized (Hermitian for the conjugate group)."""
    s = _symmetrized(_square(s), target is GroupKind.CONJUGATE_SYMPLECTIC)
    return _shears(s[None], False)[0]


def diag_block(p, target: GroupKind = GroupKind.REAL_SYMPLECTIC) -> np.ndarray:
    """[[P, 0], [0, P^{-T}]] (P^{-*} for the conjugate group); P must be invertible."""
    return _diag_blocks(_square(p)[None], target is GroupKind.CONJUGATE_SYMPLECTIC)[0]


def phase_factor(theta: float, n_half: int) -> np.ndarray:
    """exp(i theta) I_2N: conjugate symplectic, det = exp(2 i N theta)."""
    return _phases([theta], n_half)[0]


def _gaussians(config: GeneratorConfig, rngs) -> np.ndarray:
    """factor_scale / sqrt(N) times an N x N standard normal matrix (complex
    but for the real group) from each rng, as a stack."""
    n = config.half_dim
    real = config.target is GroupKind.REAL_SYMPLECTIC
    w = np.empty((len(rngs), 1 if real else 2, n, n))
    for i, rng in enumerate(rngs):
        rng.standard_normal(out=w[i])  # the draw of random_gaussian(rng, n, dtype)
    g = w[:, 0] if real else w[:, 0] + 1j * w[:, 1]
    return config.factor_scale * g / math.sqrt(n)


def _factors(name: str, config: GeneratorConfig, rngs) -> np.ndarray:
    """Factor kind ``name`` of config's group drawn from each rng, as a stack,
    clamped as :func:`elementary_factor` describes."""
    n = config.half_dim
    conjugate = config.target is GroupKind.CONJUGATE_SYMPLECTIC
    cap = config.condition_cap
    if name in ("shear_lower", "shear_upper"):
        s = _symmetrized(_gaussians(config, rngs), conjugate)
        return _shears(_norm_clamped(s, (cap - 1.0) / math.sqrt(cap)), name == "shear_lower")
    if name == "diag_block":
        g = _norm_clamped(_gaussians(config, rngs), 1.0 - 1.0 / math.sqrt(cap))
        return _diag_blocks(np.eye(n, dtype=config.target.dtype) + g, conjugate)
    if name == "form":
        return _forms(len(rngs), n, config.target.dtype)
    if name == "phase":
        if not conjugate:
            raise ValueError("phase factors exist only in the conjugate group")
        return _phases([float(rng.uniform(-math.pi, math.pi)) for rng in rngs], n)
    raise ValueError(f"unknown factor kind {name!r}")


def elementary_factor(name: str, config: GeneratorConfig,
                      rng: np.random.Generator) -> np.ndarray:
    """Draw one elementary factor with parameters clamped to condition_cap.

    Shear blocks are clamped to ||S||_F <= (cap - 1)/sqrt(cap) and diagonal
    blocks use P = I + G with ||G||_F <= 1 - 1/sqrt(cap); both bounds give a
    factor condition number of at most cap.
    """
    return _factors(name, config, [rng])[0]


def _step(config: GeneratorConfig, rngs, names, dtype) -> np.ndarray:
    """The factors of one product step as a stack: kind names[i] from rngs[i]."""
    members: dict[str, list[int]] = {}
    for i, name in enumerate(names):
        members.setdefault(name, []).append(i)
    if len(members) == 1:
        return _factors(names[0], config, rngs)
    m = 2 * config.half_dim
    f = np.empty((len(rngs), m, m), dtype)
    for name, idx in members.items():
        f[idx] = _factors(name, config, [rngs[i] for i in idx])
    return f


def _stacks(items: Iterable, m: int, dtype) -> Iterator[list]:
    """items in lists of as many as fit in _STACK_BYTES as m x m matrices of
    dtype (one, if a single matrix is larger), read lazily."""
    per_stack = max(1, _STACK_BYTES // (m * m * np.dtype(dtype).itemsize))
    items = iter(items)
    while batch := list(itertools.islice(items, per_stack)):
        yield batch


def _sample(config: GeneratorConfig, rngs: Iterable, factors: list[str] | None = None,
            tol: ToleranceConfig = DEFAULT_TOLERANCES) -> Iterator[np.ndarray]:
    """Yield, as (k, 2N, 2N) stacks in order, what generate gives for config
    with each rng in place of rng_from_seed(config.seed), which is not read.

    The members are built as stacks of up to _STACK_BYTES (one member if it
    is larger), one stack at a time, so an unbounded ``rngs`` holds at most
    one stack.  Step t draws factor t of every member from that member's own
    rng and multiplies the stack of products by the stack of factors; numpy
    does to each matrix of a stack what it does to that matrix alone, so each
    member is bitwise the one generate builds with its rng.  Members that
    fail the residual test are drawn again, as a smaller stack, and copied
    back into their place.  On reaching a member whose attempts all failed,
    yields the members before it in its stack and raises GenerationError.
    """
    allowed = _kinds(config.target)
    if factors is not None:
        factors = list(factors)
    dtype = config.target.dtype
    m = 2 * config.half_dim
    for block in _stacks(rngs, m, dtype):
        out = None
        todo = list(range(len(block)))
        for _ in range(_MAX_ATTEMPTS):
            live = [block[i] for i in todo]
            if factors is None:  # kind draws first, as one call: PCG64 buffers 32-bit halves
                seqs = [[allowed[k] for k in
                         rng.integers(0, len(allowed), config.num_factors).tolist()]
                        for rng in live]
            else:
                seqs = [factors] * len(live)
            a = _identities(len(live), m, dtype)
            for names in zip(*seqs):  # full products: a structured update would round differently
                a = a @ _step(config, live, names, dtype)
            if out is None:
                out = a
            else:
                out[todo] = a
            todo = [i for i, r in zip(todo, _membership_residuals(a, config.target))
                    if not r <= tol.product_residual]
            if not todo or factors is not None:
                break
        if todo:
            if todo[0]:
                yield out[:todo[0]]
            raise GenerationError(f"no {config.target.value} product within residual "
                                  f"after {_MAX_ATTEMPTS} attempts")
        yield out


def generate(config: GeneratorConfig, factors: list[str] | None = None,
             tol: ToleranceConfig = DEFAULT_TOLERANCES) -> np.ndarray:
    """Sample one matrix of the target group as a product of elementary factors.

    Factor kinds are drawn uniformly (phases only for the conjugate group);
    ``factors`` forces an explicit sequence of kind names instead.  The result
    is checked against the group residual at tol.product_residual and
    regeneration is attempted a bounded number of times before failing.
    Deterministic given config: every draw comes from one rng seeded with
    config.seed.  This is the stack of one of the sampler the property
    suites draw their members from, so a suite's member and generate's
    matrix for the same config are the same bits.
    """
    return next(_sample(config, [rng_from_seed(config.seed)], factors, tol))[0]
