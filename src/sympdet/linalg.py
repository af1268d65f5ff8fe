"""Dense real/complex linear algebra helpers: log-scaled determinants and seeds.

Determinants come from LAPACK's LU with partial pivoting (``getrf``) through
:func:`numpy.linalg.slogdet`, which is backward stable (Higham, *Accuracy and
Stability of Numerical Algorithms*, ch. 9); :class:`LogDet` keeps them finite
over large dimensions.

Matrices are plain numpy arrays, square, in one of two kinds: "R" (float64)
or "C" (complex128).  Every function has value semantics: arguments are never
mutated and results are freshly allocated, so any matrix may be shared freely
across threads.  The only stateful object is the numpy Generator returned by
:func:`rng_from_seed`; keep each generator confined to one logical thread and
derive per-task generators with :func:`split_seed`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_SEED_MASK = (1 << 64) - 1


class SingularMatrixError(ArithmeticError):
    """An operation required an invertible matrix."""


def kind_of(a: np.ndarray) -> str:
    """Return "C" for complex matrices, "R" otherwise."""
    return "C" if np.iscomplexobj(a) else "R"


def as_square(a, kind: str | None = None) -> np.ndarray:
    """Coerce to a square float64/complex128 array (always a fresh copy).

    With ``kind`` given, additionally enforces that scalar kind.
    """
    m = np.array(a)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    dtype = np.complex128 if np.iscomplexobj(m) else np.float64
    m = m.astype(dtype, copy=False)  # np.array above already copied
    if kind is not None and kind_of(m) != kind:
        raise ValueError(f"expected a matrix of kind {kind}, got {kind_of(m)}")
    return m


def identity(n: int, kind: str = "R") -> np.ndarray:
    return np.eye(n, dtype=np.complex128 if kind == "C" else np.float64)


def zeros(n: int, kind: str = "R") -> np.ndarray:
    return np.zeros((n, n), dtype=np.complex128 if kind == "C" else np.float64)


def frobenius(a) -> float:
    return float(np.linalg.norm(a))


def phase_angle(p, q) -> float:
    """Angular distance between two unit-modulus complex scalars."""
    r = complex(p) * complex(q).conjugate()
    return abs(math.atan2(r.imag, r.real))


@dataclass(frozen=True)
class LogDet:
    """A determinant as det = exp(log_magnitude) * phase with |phase| = 1.

    Keeps determinant chains over large dimensions finite: magnitudes add in
    log space and the unit phase is renormalized after every accumulation
    step, so it never drifts off the unit circle.  A zero determinant is
    represented as (-inf, 1).
    """

    log_magnitude: float
    phase: complex

    @property
    def value(self) -> complex:
        """exp(log_magnitude) * phase; inf/0 when the magnitude is out of range."""
        if self.log_magnitude == -math.inf:
            return 0j
        return self.phase * math.exp(min(self.log_magnitude, 709.78))

    def __mul__(self, other: "LogDet") -> "LogDet":
        if self.log_magnitude == -math.inf or other.log_magnitude == -math.inf:
            return LogDet(-math.inf, 1 + 0j)
        p = self.phase * other.phase
        p /= abs(p)
        return LogDet(self.log_magnitude + other.log_magnitude, p)

    def conjugated(self) -> "LogDet":
        return LogDet(self.log_magnitude, self.phase.conjugate())

    def abs_squared(self) -> "LogDet":
        """|det|^2 as a LogDet (real nonnegative phase)."""
        if self.log_magnitude == -math.inf:
            return LogDet(-math.inf, 1 + 0j)
        return LogDet(2.0 * self.log_magnitude, 1 + 0j)

    def rel_diff(self, other: "LogDet") -> float:
        """|self/other - 1|, robust to magnitudes far outside float range."""
        if self.log_magnitude == -math.inf and other.log_magnitude == -math.inf:
            return 0.0
        if self.log_magnitude == -math.inf or other.log_magnitude == -math.inf:
            return math.inf
        dl = self.log_magnitude - other.log_magnitude
        if dl > 700.0:
            return math.inf
        return abs(math.exp(dl) * self.phase * other.phase.conjugate() - 1.0)


def log_det(a) -> LogDet:
    """Determinant in log-scaled form via LAPACK's LU (numpy.linalg.slogdet).

    A singular input gives (-inf, 1); the phase is renormalized onto the unit
    circle.
    """
    sign, logabs = np.linalg.slogdet(as_square(a))
    if sign == 0:
        return LogDet(-math.inf, 1 + 0j)
    p = complex(sign)
    return LogDet(float(logabs), p / abs(p))


def rng_from_seed(seed: int) -> np.random.Generator:
    """Deterministic generator: same seed and call sequence, same stream."""
    return np.random.default_rng(int(seed) & _SEED_MASK)


def split_seed(seed: int, index: int) -> int:
    """Derive the index-th child seed of a master seed (counter splitting)."""
    ss = np.random.SeedSequence([int(seed) & _SEED_MASK, int(index)])
    return int(ss.generate_state(1, np.uint64)[0])


def random_gaussian(rng: np.random.Generator, n: int, kind: str = "R") -> np.ndarray:
    """n x n matrix of i.i.d. standard normals per real component."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    z = rng.standard_normal((n, n))
    if kind == "C":
        return z + 1j * rng.standard_normal((n, n))
    if kind != "R":
        raise ValueError(f"unknown kind {kind!r}")
    return z
