"""Seeded random sampling of real/complex symplectic and conjugate symplectic
matrices as products of elementary structured factors.

Each factor family is in its group exactly (up to rounding): shears
[[I, 0], [S, I]] and [[I, S], [0, I]] with S symmetric (Hermitian for the
conjugate group), block diagonals [[P, 0], [0, P^{-T}]] (P^{-*} for the
conjugate group), the form J itself, and unit scalar phases for the conjugate
group.  Products therefore stay in the group to rounding, with per-factor
condition clamps keeping downstream determinant checks meaningful.  The
sampled distribution is deliberately simple, not uniform over the group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    SingularMatrixError,
    _square,
    frobenius,
    identity,
    kind_of,
    random_gaussian,
    rng_from_seed,
    zeros,
)
from .symplectic import (
    DEFAULT_TOLERANCES,
    GroupKind,
    ToleranceConfig,
    membership_residual,
    symplectic_form,
)

FACTOR_KINDS = ("shear_lower", "shear_upper", "diag_block", "form", "phase")

_MAX_ATTEMPTS = 5


class GenerationError(RuntimeError):
    """Generation could not produce a matrix passing its group residual."""


@dataclass(frozen=True)
class GeneratorConfig:
    """Sampling parameters for one structured-group matrix.

    factor_scale sets the entry scale of shear and perturbation blocks
    (normalized by sqrt(N) so factor norms are dimension-stable);
    condition_cap clamps each factor's condition number.
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
        if not self.factor_scale > 0:
            raise ValueError("factor_scale must be > 0")
        if not self.condition_cap > 1:
            raise ValueError("condition_cap must be > 1")


def _symmetrized(s: np.ndarray, hermitian: bool) -> np.ndarray:
    return (s + s.conj().T) / 2 if hermitian else (s + s.T) / 2


def _norm_clamped(x: np.ndarray, cap: float) -> np.ndarray:
    f = frobenius(x)
    return x if f <= cap else x * (cap / f)


def _shear(s: np.ndarray, lower: bool) -> np.ndarray:
    """[[I, 0], [S, I]] if lower else [[I, S], [0, I]], for an S already symmetrized."""
    n = s.shape[0]
    out = identity(2 * n, kind_of(s))
    if lower:
        out[n:, :n] = s
    else:
        out[:n, n:] = s
    return out


def shear_lower(s, target: GroupKind = GroupKind.REAL_SYMPLECTIC) -> np.ndarray:
    """[[I, 0], [S, I]] with S symmetrized (Hermitian for the conjugate group)."""
    return _shear(_symmetrized(_square(s), target is GroupKind.CONJUGATE_SYMPLECTIC), True)


def shear_upper(s, target: GroupKind = GroupKind.REAL_SYMPLECTIC) -> np.ndarray:
    """[[I, S], [0, I]] with S symmetrized (Hermitian for the conjugate group)."""
    return _shear(_symmetrized(_square(s), target is GroupKind.CONJUGATE_SYMPLECTIC), False)


def diag_block(p, target: GroupKind = GroupKind.REAL_SYMPLECTIC) -> np.ndarray:
    """[[P, 0], [0, P^{-T}]] (P^{-*} for the conjugate group); P must be invertible."""
    p = _square(p)
    n = p.shape[0]
    try:
        pinv = np.linalg.inv(p)
    except np.linalg.LinAlgError:
        raise SingularMatrixError("diag_block needs an invertible P") from None
    out = zeros(2 * n, kind_of(p))
    out[:n, :n] = p
    out[n:, n:] = pinv.conj().T if target is GroupKind.CONJUGATE_SYMPLECTIC else pinv.T
    return out


def phase_factor(theta: float, n_half: int) -> np.ndarray:
    """exp(i theta) I_2N: conjugate symplectic, det = exp(2 i N theta)."""
    return complex(math.cos(theta), math.sin(theta)) * identity(2 * n_half, "C")


def elementary_factor(name: str, config: GeneratorConfig,
                      rng: np.random.Generator) -> np.ndarray:
    """Draw one elementary factor with parameters clamped to condition_cap.

    Shear blocks are clamped to ||S||_F <= (cap - 1)/sqrt(cap) and diagonal
    blocks use P = I + G with ||G||_F <= 1 - 1/sqrt(cap); both bounds give a
    factor condition number of at most cap.
    """
    n = config.half_dim
    target = config.target
    kind = "R" if target is GroupKind.REAL_SYMPLECTIC else "C"
    cap = config.condition_cap
    if name in ("shear_lower", "shear_upper"):
        s = config.factor_scale * random_gaussian(rng, n, kind) / math.sqrt(n)
        s = _symmetrized(s, target is GroupKind.CONJUGATE_SYMPLECTIC)
        return _shear(_norm_clamped(s, (cap - 1.0) / math.sqrt(cap)), name == "shear_lower")
    if name == "diag_block":
        g = config.factor_scale * random_gaussian(rng, n, kind) / math.sqrt(n)
        g = _norm_clamped(g, 1.0 - 1.0 / math.sqrt(cap))
        return diag_block(identity(n, kind) + g, target)
    if name == "form":
        return symplectic_form(n, kind)
    if name == "phase":
        if target is not GroupKind.CONJUGATE_SYMPLECTIC:
            raise ValueError("phase factors exist only in the conjugate group")
        return phase_factor(float(rng.uniform(-math.pi, math.pi)), n)
    raise ValueError(f"unknown factor kind {name!r}")


def generate(config: GeneratorConfig, factors: list[str] | None = None,
             tol: ToleranceConfig = DEFAULT_TOLERANCES) -> np.ndarray:
    """Sample one matrix of the target group as a product of elementary factors.

    Factor kinds are drawn uniformly (phases only for the conjugate group);
    ``factors`` forces an explicit sequence of kind names instead.  The result
    is checked against the group residual at tol.product_residual and
    regeneration is attempted a bounded number of times before failing.
    Deterministic given config: every draw comes from one rng seeded with
    config.seed.
    """
    rng = rng_from_seed(config.seed)
    allowed = list(FACTOR_KINDS[:4])
    if config.target is GroupKind.CONJUGATE_SYMPLECTIC:
        allowed.append("phase")
    kind = "R" if config.target is GroupKind.REAL_SYMPLECTIC else "C"

    for _ in range(_MAX_ATTEMPTS):
        if factors is None:
            seq = [allowed[int(rng.integers(0, len(allowed)))]
                   for _ in range(config.num_factors)]
        else:
            seq = list(factors)
        a = identity(2 * config.half_dim, kind)
        for name in seq:  # a full product: a structured update would round differently
            a = a @ elementary_factor(name, config, rng)
        if membership_residual(a, config.target) <= tol.product_residual:
            return a
        if factors is not None:
            break
    raise GenerationError(
        f"no {config.target.value} product within residual after {_MAX_ATTEMPTS} attempts")

