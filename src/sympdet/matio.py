"""Plain-text square matrix files.

Format: a header line ``"n kind"`` with kind R or C, then n rows of n
whitespace-separated entries.  Real entries are decimal floats; complex
entries are ``re,im`` pairs.  Every number parses as Python ``float()``;
nan and inf are rejected.  A malformed file raises ValueError naming the
line and the first bad entry on it.  Floats are written with repr (shortest
round-trip form), so write -> read is exact, sign of zero included, and
locale-independent.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .linalg import _square


def format_matrix(a) -> str:
    a = _square(a)
    n = a.shape[0]
    kind = "C" if np.iscomplexobj(a) else "R"
    if kind == "R":
        entry, values = "%r", a.ravel().tolist()
    else:  # re, im interleaved in row-major order, whatever the layout of a
        entry, values = "%r,%r", np.stack((a.real, a.imag), axis=-1).ravel().tolist()
    row = " ".join([entry] * n)
    return f"{n} {kind}\n" + "\n".join([row] * n) % tuple(values) + "\n"


# Every byte but comma and space, for bytes.translate to delete.
_NON_SEPARATORS = bytes(c for c in range(256) if c not in b", ")


def _row_floats(ln: str, toks: list[str], kind: str) -> list[float]:
    """The floats of one line of entries, ``toks = ln.split()``: one per entry
    for R, re and im interleaved for C.  Raises ValueError if any entry is
    malformed."""
    if kind == "R":
        if "," in ln:
            raise ValueError
        return list(map(float, toks))
    # One comma in each entry: in the entries joined by single spaces, commas
    # and spaces alternate.  (UTF-8 puts no comma or space byte inside a
    # multibyte character.)
    separators = " ".join(toks).encode("utf-8", "surrogatepass").translate(None, _NON_SEPARATORS)
    if separators != b", " * (len(toks) - 1) + b",":
        raise ValueError
    parts = ln.replace(",", " ").split()
    if len(parts) != 2 * len(toks):  # an empty re or im, as in "1," or ",2"
        raise ValueError
    return list(map(float, parts))


def _parses(tok: str, kind: str) -> bool:
    try:
        _row_floats(tok, [tok], kind)
    except ValueError:
        return False
    return True


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

    values = []
    for lineno, ln in rows:
        toks = ln.split()
        if len(toks) != n:
            raise ValueError(f"line {lineno}: expected {n} entries, got {len(toks)}")
        try:
            values.append(_row_floats(ln, toks, kind))
        except ValueError:  # name the first bad entry
            tok = next(t for t in toks if not _parses(t, kind))
            raise ValueError(f"line {lineno}: bad {kind}-kind entry {tok!r}") from None
    out = np.array(values, dtype=np.float64)
    if kind == "C":
        out = out.view(np.complex128)  # bitwise complex(re, im)
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
