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
property suites sample each stack of trials they cut (by _STACK_BYTES) whole.
Each member still draws from its own rng exactly what it would draw alone,
and numpy's stacked arithmetic does to each matrix what it does to that
matrix alone, so every member is bitwise independent of the stack it was
built in.  A stack's factors are built a chunk of product steps at a time,
in one pass sorted by kind: one clamp, one inversion, one fill per kind
(:func:`elementary_factor` is its stack of one).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import _diagonals, _frobeniuses, _index, rng_from_seed
from .symplectic import (
    DEFAULT_TOLERANCES,
    GroupKind,
    ToleranceConfig,
    _forms,
    _membership_residuals,
)

__all__ = ["GenerationError", "GeneratorConfig", "elementary_factor", "generate"]

FACTOR_KINDS = ("shear_lower", "shear_upper", "diag_block", "form", "phase")
_FORM, _PHASE = FACTOR_KINDS.index("form"), FACTOR_KINDS.index("phase")  # the rest draw a block

_MAX_ATTEMPTS = 5
_STACK_BYTES = 1 << 20  # a suite stack of members; larger stacks save little more


def _kind_count(group: GroupKind) -> int:
    """How many kinds the group's factors are drawn from, uniformly: codes
    0 to this count - 1, as phase, the last kind, is the conjugate group's alone."""
    return len(FACTOR_KINDS) if group is GroupKind.CONJUGATE_SYMPLECTIC else _PHASE


def _kind_codes(names, group: GroupKind) -> np.ndarray:
    """The FACTOR_KINDS index of each name of a factor of the group."""
    for name in names:
        if name not in FACTOR_KINDS:
            raise ValueError(f"unknown factor kind {name!r}")
        if FACTOR_KINDS.index(name) >= _kind_count(group):
            raise ValueError("phase factors exist only in the conjugate group")
    return np.array([FACTOR_KINDS.index(name) for name in names], int)


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
        for name in ("half_dim", "num_factors", "seed"):  # a numpy integer is kept as an int
            object.__setattr__(self, name, _index(getattr(self, name), name))
        if self.half_dim < 1:
            raise ValueError("half_dim must be >= 1")
        if self.num_factors < 1:
            raise ValueError("num_factors must be >= 1")
        if not 0 < self.factor_scale < math.inf:
            raise ValueError("factor_scale must be finite and > 0")
        if not 1 < self.condition_cap < math.inf:
            raise ValueError("condition_cap must be finite and > 1")


def _symmetrized(s: np.ndarray, hermitian: bool, out: np.ndarray | None = None) -> np.ndarray:
    """(S + S^T) / 2, or (S + S^*) / 2 if hermitian, of each matrix of a stack (into out)."""
    t = np.add(s, (s.conj() if hermitian else s).swapaxes(-1, -2), out=out)
    t /= 2  # in place: a temporary less, which at large N is a fresh mapping less
    return t


def _norm_clamped(x: np.ndarray, cap) -> np.ndarray:
    """Each matrix of a stack scaled down, in place, to Frobenius norm <= cap
    (or its own cap[i]; each norm is the one np.linalg.norm gives for that
    matrix alone).  Only the matrices over the cap are scaled; the others keep their bits."""
    f = np.array(_frobeniuses(x))
    over = ~(f <= cap)  # a NaN norm is over
    # a masked multiply in place: x[over] *= ... would copy the stack out and back
    np.multiply(x, (cap / np.maximum(f, cap))[:, None, None], out=x, where=over[:, None, None])
    return x


# The fill of each factor kind (the form's is symplectic._forms) writes the
# factor of each parameter of a stack into the zeroed matrices ``slots`` (an
# index array or a slice) of a (K, 2N, 2N) stack, a block at a time.

def _fill_shears(out: np.ndarray, slots, s: np.ndarray, lower: bool) -> np.ndarray:
    """[[I, 0], [S, I]] if lower else [[I, S], [0, I]] for each S of a stack
    of already symmetrized blocks."""
    n = s.shape[-1]
    _diagonals(out)[slots] = 1
    if lower:
        out[slots, n:, :n] = s
    else:
        out[slots, :n, n:] = s
    return out


def _fill_diag_blocks(out: np.ndarray, slots, p: np.ndarray, pinv, conjugate: bool) -> np.ndarray:
    """[[P, 0], [0, P^{-T}]] (P^{-*} if conjugate), given P^{-1} as pinv (conjugated in place)."""
    n = p.shape[-1]
    out[slots, :n, :n] = p
    out[slots, n:, n:] = (np.conjugate(pinv, out=pinv) if conjugate else pinv).swapaxes(-1, -2)
    return out


def _fill_phases(out: np.ndarray, slots, thetas) -> np.ndarray:
    """exp(i theta) I_2N for each theta, with the signed zeros off the
    diagonal that exp(i theta) times the identity has."""
    z = np.array([complex(math.cos(t), math.sin(t)) for t in thetas])
    on, off = (z[:, None] * np.array([1, 0], np.complex128)).T
    out[slots] = off[:, None, None]
    _diagonals(out)[slots] = on[:, None]
    return out


def _draws(config: GeneratorConfig, rngs, codes: np.ndarray,
           counts: list[int]) -> tuple[np.ndarray, list]:
    """What each member draws from its rng for its factors codes[i], given
    the chunk's count of each kind, in factor order: a run of kinds other
    than phase is one standard_normal call, an N x N block (complex but for
    the real group: real then imaginary parts) for each but the forms, and
    a run of phases is one uniform call, an angle each (the doubles of as
    many scalar calls).  In a chunk without phases, which is every chunk of
    the real and complex groups, a member is one run, and numpy counts the
    blocks of all of them at once.  Returns the blocks, times factor_scale
    / sqrt(N), and the angles, both in (member, step) order."""
    n = config.half_dim
    real = config.target is GroupKind.REAL_SYMPLECTIC
    blocks = sum(counts[:_FORM])
    w = np.empty((blocks, n, n) if real else (blocks, 2, n, n))
    thetas, lo = [], 0
    if not counts[_PHASE]:
        for rng, hi in zip(rngs, (codes < _FORM).sum(1).cumsum().tolist()):
            rng.standard_normal(out=w[lo:hi])  # draws nothing for a member of forms alone
            lo = hi
    else:
        for rng, row in zip(rngs, codes.tolist()):
            for phase, run in itertools.groupby(row, _PHASE.__eq__):
                if phase:
                    thetas += rng.uniform(-math.pi, math.pi, len(list(run))).tolist()
                elif k := sum(map(_FORM.__gt__, run)):
                    rng.standard_normal(out=w[lo:lo + k])
                    lo += k
    if real:
        g = w
    else:  # w[:, 0] + 1j * w[:, 1]
        g = 1j * w[:, 1]
        g += w[:, 0]
    g *= config.factor_scale
    g /= math.sqrt(n)
    return g, thetas


def _factors(config: GeneratorConfig, rngs, codes: np.ndarray) -> np.ndarray:
    """The (k, steps, 2N, 2N) stack of the factors of kinds codes[i] (a row of
    FACTOR_KINDS indices) drawn from rngs[i], clamped as elementary_factor
    describes.  A stable sort makes each kind's slots, and its blocks, one
    segment in (member, step) order, which its fill writes."""
    n, cap = config.half_dim, config.condition_cap
    conjugate = config.target is GroupKind.CONJUGATE_SYMPLECTIC
    counts = np.bincount(codes.ravel(), minlength=len(FACTOR_KINDS)).tolist()
    g, thetas = _draws(config, rngs, codes, counts)
    if sum(map(bool, counts[:_FORM])) > 1:  # blocks of several kinds: sort them as the slots
        g = g[np.argsort(codes[codes < _FORM], kind="stable")]
    order = np.argsort(codes, axis=None, kind="stable")
    shears, p = counts[0] + counts[1], g[counts[0] + counts[1]:]
    if shears:
        _symmetrized(g[:shears], conjugate, out=g[:shears])
    if len(g):  # one clamp over all the blocks, each at its kind's cap
        caps = np.full(len(g), 1.0 - 1.0 / math.sqrt(cap))
        caps[:shears] = (cap - 1.0) / math.sqrt(cap)
        _norm_clamped(g, caps)
    if len(p):  # P = I + G (invertible: ||G||_F < 1), inverted before f is allocated
        p += np.eye(n, dtype=p.dtype)
        pinv = np.linalg.inv(p)  # so its temporaries are not freed above f
    f = np.zeros(codes.shape + (2 * n, 2 * n), config.target.dtype)
    out, end = f.reshape(-1, 2 * n, 2 * n), 0
    for name, count in zip(FACTOR_KINDS, counts):
        seg, end = slice(end, end + count), end + count
        if not count:
            continue
        if name in ("shear_lower", "shear_upper"):
            _fill_shears(out, order[seg], g[seg], name == "shear_lower")
        elif name == "diag_block":
            _fill_diag_blocks(out, order[seg], p, pinv, conjugate)
        elif name == "form":
            _forms(out, order[seg])
        else:
            _fill_phases(out, order[seg], thetas)
    return f


def elementary_factor(name: str, config: GeneratorConfig,
                      rng: np.random.Generator) -> np.ndarray:
    """Draw one elementary factor with parameters clamped to condition_cap.

    Shear blocks are clamped to ||S||_F <= (cap - 1)/sqrt(cap) and diagonal
    blocks use P = I + G with ||G||_F <= 1 - 1/sqrt(cap); both bounds give a
    factor condition number of at most cap.
    """
    return _factors(config, [rng], _kind_codes([name], config.target)[None])[0, 0]


def _sample(config: GeneratorConfig, rngs: list, factors: list[str] | None = None,
            tol: ToleranceConfig = DEFAULT_TOLERANCES) -> tuple[np.ndarray, list]:
    """The (k, 2N, 2N) stack of what generate gives for config with each of
    the k rngs in place of rng_from_seed(config.seed), which is not read,
    and the members' membership residuals, from the test that kept them.

    Each member draws its factor kinds, then the stack is built a chunk of
    product steps at a time: every member draws the chunk's parameters from
    its own rng, _factors builds the chunk, and the stack of products is
    multiplied by each step's factors.  A chunk holds at most _STACK_BYTES
    of factors (one budget beside the stack's) and _STACK_BYTES // 16 of
    them per member (so a large member takes a step at a time), but one
    step at least.  Members that fail the membership test are drawn again,
    as a smaller stack, and copied back into their place.  Each member, and
    its residual, is bitwise what generate and membership_residual give it,
    whatever its stack and chunks.  Raises GenerationError if the attempts
    of any member all fail.
    """
    forced = None if factors is None else _kind_codes(factors, config.target)
    kinds = _kind_count(config.target)
    dtype, m = config.target.dtype, 2 * config.half_dim
    member = m * m * np.dtype(dtype).itemsize
    out, res = None, np.empty(len(rngs))
    todo = list(range(len(rngs)))
    for _ in range(_MAX_ATTEMPTS):
        live = [rngs[i] for i in todo]
        if forced is None:  # kind draws first, as one call: PCG64 buffers 32-bit halves
            codes = np.array([rng.integers(0, kinds, config.num_factors) for rng in live])
        else:
            codes = np.tile(forced, (len(live), 1))
        chunk = max(1, min(_STACK_BYTES // (len(live) * member), _STACK_BYTES // 16 // member))
        a = np.tile(np.eye(m, dtype=dtype), (len(live), 1, 1))
        for t in range(0, codes.shape[1], chunk):
            f = _factors(config, live, codes[:, t:t + chunk])
            for step in range(f.shape[1]):
                a = a @ f[:, step]  # full products: a structured update would round differently
            del f  # so the next chunk is built without this one
        if out is None:
            out = a
        else:
            out[todo] = a
        res[todo] = _membership_residuals(a, config.target)
        todo = [i for i in todo if not res[i] <= tol.product_residual]
        if not todo or factors is not None:
            break
    if todo:
        raise GenerationError(f"no {config.target.value} product within residual "
                              f"after {_MAX_ATTEMPTS} attempts")
    return out, res.tolist()


def generate(config: GeneratorConfig, factors: list[str] | None = None,
             tol: ToleranceConfig = DEFAULT_TOLERANCES) -> np.ndarray:
    """Sample one matrix of the target group as a product of elementary factors.

    Factor kinds are drawn uniformly (phases only for the conjugate group);
    ``factors`` forces an explicit sequence of kind names instead.  The result
    is checked against the group residual at tol.product_residual and
    regeneration is attempted a bounded number of times before failing.
    Deterministic given config: every draw comes from one rng seeded with
    config.seed.  This is the sampler's stack of one, so a property suite's
    member and generate's matrix for the same config are the same bits.
    """
    return _sample(config, [rng_from_seed(config.seed)], factors, tol)[0][0]
