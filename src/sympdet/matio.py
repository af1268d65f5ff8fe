"""Plain-text square matrix files.

Format: a header line ``"n kind"`` with kind R or C, then n rows of n
whitespace-separated entries.  Real entries are decimal floats; complex
entries are ``re,im`` pairs; nan and inf are rejected.  Floats are written
with repr (shortest round-trip form), so write -> read is exact and
locale-independent.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .linalg import _square, kind_of


def format_matrix(a) -> str:
    a = _square(a)
    n = a.shape[0]
    kind = kind_of(a)
    lines = [f"{n} {kind}"]
    for row in a:
        if kind == "R":
            lines.append(" ".join(repr(float(x)) for x in row))
        else:
            lines.append(" ".join(f"{float(x.real)!r},{float(x.imag)!r}" for x in row))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> np.ndarray:
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty matrix text")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"line 1: expected 'n kind' header, got {lines[0]!r}")
    try:
        n = int(header[0])
    except ValueError:
        raise ValueError(f"line 1: bad dimension {header[0]!r}") from None
    kind = header[1]
    if n < 1:
        raise ValueError(f"line 1: dimension must be >= 1, got {n}")
    if kind not in ("R", "C"):
        raise ValueError(f"line 1: kind must be R or C, got {kind!r}")

    rows = [(i + 2, ln) for i, ln in enumerate(lines[1:]) if ln.strip()]
    if len(rows) != n:
        raise ValueError(f"expected {n} rows of entries, found {len(rows)}")

    out = np.zeros((n, n), dtype=np.complex128 if kind == "C" else np.float64)
    for r, (lineno, ln) in enumerate(rows):
        toks = ln.split()
        if len(toks) != n:
            raise ValueError(f"line {lineno}: expected {n} entries, got {len(toks)}")
        for c, tok in enumerate(toks):
            try:
                if kind == "R":
                    if "," in tok:
                        raise ValueError
                    out[r, c] = float(tok)
                else:
                    re, im = tok.split(",")
                    out[r, c] = complex(float(re), float(im))
            except ValueError:
                raise ValueError(f"line {lineno}: bad {kind}-kind entry {tok!r}") from None
    bad = np.argwhere(~np.isfinite(out))
    if bad.size:
        r, c = bad[0]
        lineno, ln = rows[r]
        raise ValueError(f"line {lineno}: non-finite entry {ln.split()[c]!r}")
    return out


def write_matrix(a, path) -> None:
    Path(path).write_text(format_matrix(a), encoding="ascii")


def read_matrix(path) -> np.ndarray:
    return parse_matrix(Path(path).read_text(encoding="ascii"))
