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
Determinants are taken a stack at a time, as columns: the private
``_det_columns`` returns the log magnitudes of a stack and the real and
imaginary parts of its unit phases, (3, k) float64, from one slogdet call,
and the column functions compute with them (see the comment above
``_hypot``).  A :class:`LogDet` is built only at the public boundary, from
one entry; :func:`log_det` is the stack of one, with the same bits as in
any stack.  The only stateful object is the numpy Generator returned by
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
    ``np.vecdot`` takes the same dot of each matrix laid out that way.  A
    matrix of finite entries whose sum of squares overflows, where norm gives
    inf, is summed again scaled by its largest entry, as LAPACK's ``dnrm2``
    does (Anderson, "Algorithm 978: Safe Scaling in the Level 1 BLAS", ACM
    TOMS 44(1), 2017), so its norm is finite wherever ||A||_F is."""
    if abs(a.strides[-2]) < abs(a.strides[-1]):  # column-major matrices sum by column
        a = a.swapaxes(-1, -2)
    x = np.ascontiguousarray(a).reshape(len(a), -1)
    with np.errstate(over="ignore"):  # an overflowed sum is summed again below
        if np.iscomplexobj(x):
            sq = np.vecdot(x.real, x.real) + np.vecdot(x.imag, x.imag)
        else:
            sq = np.vecdot(x, x)
    norms = np.sqrt(sq).tolist()
    if math.inf in norms:  # a sum overflowed: sum again scaled by max |a_ij|, as dnrm2 does
        for i in [i for i, f in enumerate(norms) if f == math.inf]:
            v = x[i].view(np.float64)  # real and imaginary parts apart
            s = float(np.abs(v).max())
            if s < math.inf:  # an Inf entry keeps its inf norm
                u = v / s
                norms[i] = s * math.sqrt(u @ u)
    return norms


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
    p, q = complex(p), complex(q)
    return _phase_angles((p.real, p.imag), (q.real, q.imag))


@dataclass(frozen=True)
class LogDet:
    """A determinant as det = exp(log_magnitude) * phase with |phase| = 1.

    Keeps determinant chains over large dimensions finite: magnitudes add in
    log space and the unit phase is renormalized after every accumulation
    step, so it never drifts off the unit circle.  A zero determinant is
    represented as (-inf, 1).  The arithmetic is that of the column
    functions the stacked cores judge with, on one entry.
    """

    log_magnitude: float
    phase: complex

    def _entry(self) -> tuple:
        return self.log_magnitude, self.phase.real, self.phase.imag

    @property
    def value(self) -> complex:
        """exp(log_magnitude) * phase; 0j for a zero determinant.  Beyond float
        range each nonzero part of the phase becomes +-inf and a zero part
        stays 0 (never nan)."""
        return complex(*_values(self._entry()))

    def __mul__(self, other: "LogDet") -> "LogDet":
        lm, re, im = _products(self._entry(), other._entry())
        return LogDet(lm, complex(re, im))

    def conjugated(self) -> "LogDet":
        return LogDet(self.log_magnitude, self.phase.conjugate())

    def abs_squared(self) -> "LogDet":
        """|det|^2 as a LogDet (real nonnegative phase)."""
        lm, re, im = _abs_squared(self._entry())
        return LogDet(lm, complex(re, im))

    def rel_diff(self, other: "LogDet") -> float:
        """|self/other - 1|, robust to magnitudes far outside float range."""
        return _rel_diffs(self._entry(), other._entry())


def log_det(a) -> LogDet:
    """Determinant in log-scaled form via LAPACK's LU (numpy.linalg.slogdet).

    A singular input gives (-inf, 1); the phase is renormalized onto the unit
    circle.  An input with a NaN or Inf entry has no determinant and gives
    (nan, nan + nanj), where LAPACK would call a NaN pivot zero or an Inf
    one an infinite magnitude with a sign.
    """
    a = _square(a)
    with np.errstate(all="ignore"):  # a NaN or Inf entry gives NaN, unwarned
        return _log_det_at(_det_columns(a[None]), 0)


def _log_det_at(dets, i: int) -> LogDet:
    """The LogDet of entry i of determinant columns."""
    lm, re, im = dets[:, i].tolist()
    return LogDet(lm, complex(re, im))


def _det_columns(a: np.ndarray, slogdet=None) -> np.ndarray:
    """log_det of each matrix of a (k, m, m) float64/complex128 stack, as
    (3, k) determinant columns, from one slogdet call, which factors each
    matrix as it would alone (or from ``slogdet``, that call's result, for
    a caller that reads its signs)."""
    signs, logabs = np.linalg.slogdet(a) if slogdet is None else slogdet
    out = np.empty((3, len(a)))
    out[0] = logabs
    bad = zero = []
    if np.count_nonzero(np.isfinite(logabs)) < len(a):
        bad = np.flatnonzero(~np.isfinite(logabs)).tolist()  # a zero or non-finite pivot
        zero = [i for i in bad if signs[i] == 0]
        signs = signs.copy()
        signs[zero] = 1.0  # no phase to normalize, and no 0 to divide by
    if signs.dtype.kind == "c":  # sign / abs(sign), as Python divides a complex by a float
        parts = signs.view(np.float64).reshape(-1, 2).T
        h = np.hypot(parts[0], parts[1])
        np.divide(parts, h, out=out[1:])
        if np.count_nonzero(parts) < parts.size:  # Python adds the other part times 0.0:
            sr, si = parts  # to a zero, that can flip its sign
            np.divide(sr + si * 0.0, h, out=out[1])
            np.divide(si - sr * 0.0, h, out=out[2])
    else:
        out[1] = signs
        out[2] = 0.0
    for i in bad:
        if not np.isfinite(a[i]).all():
            out[:, i] = math.nan
        elif i in zero:
            out[:, i] = (-math.inf, 1.0, 0.0)
    return out


# The column functions take determinant columns (a round of trials) or one
# entry of them (Python floats, for one public call) alike, and give each
# entry the bits Python's float and complex arithmetic gives it: they use
# IEEE + - * /, comparisons and the helpers below, which call np.hypot
# (abs(complex) for an entry) and math.exp, math.expm1 or math.atan2 entry by
# entry (numpy's own round differently on a few percent of inputs), and they
# write out CPython's formulas for a complex product and quotient.  Columns
# are judged under np.errstate(all="ignore"), so NaN and inf pass unwarned.

def _hypot(x, y):
    """abs(complex(x, y)) of each entry."""
    if isinstance(x, np.ndarray):
        return np.hypot(x, y)
    if x == x and y == y:
        return abs(complex(x, y))
    # abs() of a complex NaN raises OverflowError if an earlier math call left
    # ERANGE behind (math.exp of -800 does); C's hypot does not
    return math.inf if math.inf in (abs(x), abs(y)) else math.nan


def _map(f, *xs):
    """f, a function of the math module, of each entry."""
    if not isinstance(xs[0], np.ndarray):
        return f(*xs)
    return np.array(list(map(f, *(x.tolist() for x in xs))), np.float64)


def _any(mask) -> bool:
    return np.count_nonzero(mask) > 0 if isinstance(mask, np.ndarray) else mask


def _where(mask, x, y):
    """x where mask holds, else y, entry by entry."""
    return np.where(mask, x, y) if isinstance(mask, np.ndarray) else (x if mask else y)


def _values(dets) -> tuple:
    """LogDet.value of each determinant, as (real part, imaginary part)."""
    lm, re, im = dets
    big, zero = lm > _LOG_FLOAT_MAX, lm == -math.inf
    e = _map(math.exp, _where(big, _LOG_FLOAT_MAX, lm))
    value = re * e - im * 0.0, re * 0.0 + im * e  # phase * e, as Python multiplies by a float
    if not _any(big | zero):
        return value
    inf = e * 0.0 + math.inf  # past float range a nonzero part (NaN too) goes to +-inf
    return tuple(_where(big, _where(p != 0.0, _map(math.copysign, inf, p), 0.0),
                        _where(zero, 0.0, v)) for p, v in zip((re, im), value))


def _products(x, y) -> tuple:
    """LogDet.__mul__ of each pair of determinants."""
    (lx, xr, xi), (ly, yr, yi) = x, y
    pr, pi = xr * yr - xi * yi, xr * yi + xi * yr
    h = _hypot(pr, pi)
    lm, re, im = lx + ly, (pr + pi * 0.0) / h, (pi - pr * 0.0) / h  # p / abs(p), as Python divides
    zero = (lx == -math.inf) | (ly == -math.inf)
    if _any(zero):
        lm, re, im = _where(zero, -math.inf, lm), _where(zero, 1.0, re), _where(zero, 0.0, im)
    return lm, re, im


def _abs_squared(dets) -> tuple:
    """LogDet.abs_squared of each determinant."""
    return 2.0 * dets[0], 1.0, 0.0  # the phase 1 broadcasts over columns


def _rel_diffs(x, y):
    """LogDet.rel_diff of each pair of determinants: |x/y - 1|, inf past a
    log-magnitude gap of 700 or against a zero determinant, 0 between two."""
    (lx, xr, xi), (ly, yr, yi) = x, y
    dl = lx - ly
    e = _map(math.exp, _where(dl > 700.0, 700.0, dl))
    pr, pi = e * xr - 0.0 * xi, e * xi + 0.0 * xr  # e * x.phase, as Python multiplies a float
    qi = -yi  # times conj(y.phase)
    out = _hypot(pr * yr - pi * qi - 1.0, pr * qi + pi * yr - 0.0)
    zx, zy = lx == -math.inf, ly == -math.inf
    far = (dl > 700.0) | zx | zy
    return _where(zx & zy, 0.0, _where(far, math.inf, out)) if _any(far) else out


def _phase_angles(p, q):
    """phase_angle of each pair of phases, given as (real, imaginary) parts."""
    pr, pi = p
    qr, qi = q[0], -q[1]  # conj(q)
    return abs(_map(math.atan2, pr * qi + pi * qr, pr * qr - pi * qi))


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
