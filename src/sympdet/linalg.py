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
derive per-task generators with :func:`split_seed`, the stack of one of
``_child_seeds``.  That private core and ``_rngs`` run numpy's SeedSequence
hash (frozen by NEP 19) over a round of seeds at once, bit for bit numpy's
seeds; :func:`rng_from_seed` is numpy's own ``default_rng``.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = ["LogDet", "log_det", "phase_angle", "rng_from_seed", "split_seed"]

_SEED_MASK = (1 << 64) - 1
_LOG_FLOAT_MAX = math.log(np.finfo(np.float64).max)  # exp() overflows above this


def _square(a) -> np.ndarray:
    """``a`` as a square float64/complex128 array, for read-only use: ``a``
    itself when it already is an aligned, C- or F-contiguous float64/complex128
    ndarray, else a fresh copy in the layout ``np.array(a)`` gives (so the
    layout, and every BLAS rounding that depends on it, is the same either
    way)."""
    keep = (type(a) is np.ndarray and a.dtype in (np.float64, np.complex128)
            and a.flags.aligned and (a.flags.c_contiguous or a.flags.f_contiguous))
    m = a if keep else np.array(a)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if keep:
        return m
    dtype = np.complex128 if np.iscomplexobj(m) else np.float64
    return m.astype(dtype, copy=False)  # np.array above already copied


def _frobeniuses(a: np.ndarray) -> list[float]:
    """||A||_F of each matrix of a (k, r, c) float64/complex128 stack, bit for
    bit ``np.linalg.norm`` of each alone, as Python floats (reports print
    residuals with repr, which is ``np.float64(x)`` for a numpy scalar).
    norm takes a BLAS dot of the entries (real and imaginary parts apart) in
    memory order, ``ravel(order='K')``, as one contiguous vector;
    ``np.vecdot`` takes the same dot of each matrix laid out that way."""
    if abs(a.strides[-2]) < abs(a.strides[-1]):  # column-major matrices sum by column
        a = a.swapaxes(-1, -2)
    x = np.ascontiguousarray(a).reshape(len(a), -1)
    if np.iscomplexobj(x):
        sq = np.vecdot(x.real, x.real) + np.vecdot(x.imag, x.imag)
    else:
        sq = np.vecdot(x, x)
    return np.sqrt(sq).tolist()


def _diagonals(x: np.ndarray) -> np.ndarray:
    """The diagonals of a C-ordered (k, n, n) stack, as a writable (k, n) view."""
    return x.reshape(len(x), -1)[:, ::x.shape[-1] + 1]


def _index(value, name: str) -> int:
    """An integer field's value as an int (numpy integers pass), or
    ValueError naming the field: a float seed would otherwise truncate."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


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


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx, frozen by NEP 19)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash_keys(init: int, mult: int, steps: int) -> np.ndarray:
    """The (xor, multiplier) of ``steps`` successive hash steps, (2, steps, 1)
    uint32: xor the running constant, advance it by ``mult``, multiply."""
    h = list(itertools.accumulate(range(steps), lambda x, _: x * mult & 0xFFFFFFFF, initial=init))
    return np.array([h[:-1], h[1:]], np.uint32)[..., None]


def _hashed(v: np.ndarray, keys: np.ndarray) -> np.ndarray:
    v = (v ^ keys[0]) * keys[1]  # uint32 arrays wrap silently, as the C code does
    return v ^ v >> 16


_POOL_KEYS = _hash_keys(_INIT_A, _MULT_A, 16)
# mixing round src takes steps 4 + 3 src on, for the pool words other than src
_MIX_KEYS = [np.insert(_POOL_KEYS[:, 4 + 3 * src:7 + 3 * src], src, 0, axis=1)
             for src in range(4)]
_OUT_KEYS = _hash_keys(_INIT_B, _MULT_B, 8).reshape(2, 2, 4, 1)


def _seed_state(entropy: np.ndarray, n_words: int) -> np.ndarray:
    """SeedSequence(e).generate_state(n_words, np.uint64) for each row of a
    (k, 2) uint64 array whose four little-endian 32-bit words are e (a zero
    word hashes as a missing one), as (k, n_words) uint64, n_words <= 4."""
    pool = _hashed(np.ascontiguousarray(entropy, "<u8").view("<u4").T, _POOL_KEYS[:, :4])
    for src in range(4):  # mix pool word src into the other three
        r = _MIX_L * pool - _MIX_R * _hashed(pool[src], _MIX_KEYS[src])
        r ^= r >> 16
        r[src] = pool[src]
        pool = r
    words = _hashed(pool, _OUT_KEYS).reshape(8, -1)[:2 * n_words]
    return np.ascontiguousarray(words.T).view("<u8").astype(np.uint64)


def _child_seeds(seed, indices) -> np.ndarray:
    """split_seed(s, t) for each lane of ``seed`` and ``indices`` (an int or a
    sequence each, one a sequence), as uint64: SeedSequence([s & mask, t])
    takes the 32-bit words of s, then of t < 2**64, four entropy words."""
    s = np.asarray(np.asarray(seed, object) & _SEED_MASK, np.uint64)
    t = np.asarray(indices, np.uint64)
    two = s > 0xFFFFFFFF  # the words of t start at the third entropy word
    lo, hi = np.where(two, s, s | t << 32), np.where(two, t, t >> 32)
    return _seed_state(np.stack([lo, hi], -1), 1)[:, 0]


class _StateWords(np.random.bit_generator.ISeedSequence):
    """Hands PCG64 the four uint64 state words it was built with."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _rngs(seeds) -> list[np.random.Generator]:
    """default_rng(s) for each seed 0 <= s < 2**64, bit for bit."""
    s = np.asarray(seeds, np.uint64)
    return [np.random.Generator(np.random.PCG64(_StateWords(w)))
            for w in _seed_state(np.stack([s, np.zeros_like(s)], -1), 4)]


def rng_from_seed(seed: int) -> np.random.Generator:
    """Deterministic generator: numpy's default_rng(seed & (2**64 - 1))."""
    return np.random.default_rng(_index(seed, "seed") & _SEED_MASK)


def split_seed(seed: int, index: int) -> int:
    """Derive the index-th child seed of a master seed (counter splitting)."""
    return int(_child_seeds(seed, [index])[0])
