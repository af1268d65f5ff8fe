"""Dense real/complex linear algebra helpers: log-scaled determinants and seeds.

Determinants come from LAPACK's LU with partial pivoting (``getrf``) through
:func:`numpy.linalg.slogdet`, which is backward stable (Higham, *Accuracy and
Stability of Numerical Algorithms*, ch. 9); :class:`LogDet` keeps them finite
over large dimensions.

Matrices are plain numpy arrays, square, of dtype float64 (real) or
complex128 (complex).  Every function has value semantics: arguments are never
mutated and results are freshly allocated, so any matrix may be shared freely
across threads.  Internal callers that only read their input coerce it with
the private ``_square``, which passes a contiguous float64/complex128 array
through without copying; no public result shares memory with an argument.
Determinants are taken a stack at a time (the private ``_log_dets``);
:func:`log_det` is the stack of one, with the same bits as in any stack.
The only stateful object is the numpy Generator returned by
:func:`rng_from_seed`; keep each generator confined to one logical thread and
derive per-task generators with :func:`split_seed`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_SEED_MASK = (1 << 64) - 1
_LOG_FLOAT_MAX = math.log(np.finfo(np.float64).max)  # exp() overflows above this


class SingularMatrixError(ArithmeticError):
    """An operation required an invertible matrix."""


def as_square(a) -> np.ndarray:
    """Coerce to a square float64/complex128 array (always a fresh copy).

    Internal code that only reads the matrix uses ``_square`` instead, which
    skips the copy when there is nothing to convert.
    """
    m = _square(a)
    return np.array(m) if m is a else m


def _square(a) -> np.ndarray:
    """as_square for read-only use: ``a`` itself when it already is an
    aligned, C- or F-contiguous float64/complex128 ndarray, else the same
    fresh copy as_square makes (so the layout, and every BLAS rounding that
    depends on it, is the same either way)."""
    keep = (type(a) is np.ndarray and a.dtype in (np.float64, np.complex128)
            and a.flags.aligned and (a.flags.c_contiguous or a.flags.f_contiguous))
    m = a if keep else np.array(a)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if keep:
        return m
    dtype = np.complex128 if np.iscomplexobj(m) else np.float64
    return m.astype(dtype, copy=False)  # np.array above already copied


def frobenius(a) -> float:
    """||a||_F as a Python float: the one place a norm leaves numpy.

    Residuals are norms, and each must be a plain float.  A numpy scalar's
    repr is ``np.float64(x)`` on numpy 2, and text reports print residuals
    with repr.
    """
    return float(np.linalg.norm(a))


def _frobeniuses(a: np.ndarray) -> list[float]:
    """frobenius of each matrix of a (k, r, c) float64/complex128 stack, bit
    for bit.  norm takes a BLAS dot of the entries (real and imaginary parts
    apart) in memory order, ``ravel(order='K')``, as one contiguous vector;
    ``np.vecdot`` takes the same dot of each matrix laid out that way."""
    if abs(a.strides[-2]) < abs(a.strides[-1]):  # column-major matrices sum by column
        a = a.swapaxes(-1, -2)
    x = np.ascontiguousarray(a).reshape(len(a), -1)
    if np.iscomplexobj(x):
        sq = np.vecdot(x.real, x.real) + np.vecdot(x.imag, x.imag)
    else:
        sq = np.vecdot(x, x)
    return np.sqrt(sq).tolist()


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
        """exp(log_magnitude) * phase; 0j for a zero determinant.  Beyond float
        range each nonzero part of the phase becomes +-inf and a zero part
        stays 0 (never nan)."""
        if self.log_magnitude == -math.inf:
            return 0j
        if self.log_magnitude > _LOG_FLOAT_MAX:
            return complex(*(math.copysign(math.inf, x) if x else 0.0
                             for x in (self.phase.real, self.phase.imag)))
        return self.phase * math.exp(self.log_magnitude)

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
    circle.  An input with a NaN or Inf entry has no determinant and gives
    (nan, nan + nanj), where LAPACK would call a NaN pivot zero or an Inf
    one an infinite magnitude with a sign.
    """
    return _log_dets(_square(a)[None])[0]


def _log_dets(a: np.ndarray, slogdet=None) -> list[LogDet]:
    """log_det of each matrix of a (k, m, m) float64/complex128 stack, from
    one slogdet call, which factors each matrix as it would alone (or from
    ``slogdet``, that call's result, for a caller that reads its signs)."""
    signs, logabs = np.linalg.slogdet(a) if slogdet is None else slogdet
    out = []
    for i, (sign, la) in enumerate(zip(signs.tolist(), logabs.tolist())):
        if (sign == 0 or not math.isfinite(la)) and not np.isfinite(a[i]).all():
            out.append(LogDet(math.nan, complex(math.nan, math.nan)))
        elif sign == 0:
            out.append(LogDet(-math.inf, 1 + 0j))
        else:
            p = complex(sign)
            out.append(LogDet(la, p / abs(p)))
    return out


def rng_from_seed(seed: int) -> np.random.Generator:
    """Deterministic generator: same seed and call sequence, same stream."""
    return np.random.default_rng(int(seed) & _SEED_MASK)


def split_seed(seed: int, index: int) -> int:
    """Derive the index-th child seed of a master seed (counter splitting)."""
    ss = np.random.SeedSequence([int(seed) & _SEED_MASK, int(index)])
    return int(ss.generate_state(1, np.uint64)[0])


def random_gaussian(rng: np.random.Generator, n: int, dtype=np.float64) -> np.ndarray:
    """n x n matrix of i.i.d. standard normals per real component, of dtype
    float64 or complex128 (any other dtype raises ValueError)."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if np.dtype(np.complex128) == dtype:
        # one draw: the stream, and the bits, of a real then an imaginary draw
        z = rng.standard_normal((2, n, n))
        return z[0] + 1j * z[1]
    if np.dtype(np.float64) != dtype:
        raise ValueError(f"unsupported dtype {dtype!r}")
    return rng.standard_normal((n, n))
