"""Value semantics of every public function that takes a matrix, and the
private coercion ``linalg._square`` that lets internal callers read an input
without copying it."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import sympdet as sd
from sympdet.linalg import _square
from sympdet.symplectic import GroupKind

REAL = GroupKind.REAL_SYMPLECTIC
COMPLEX = GroupKind.COMPLEX_SYMPLECTIC
CONJ = GroupKind.CONJUGATE_SYMPLECTIC


def _member(group, n):
    return sd.generate(sd.GeneratorConfig(half_dim=n, target=group, seed=sd.split_seed(71, n)))


def _layouts(a):
    """The same matrix as C-ordered, F-ordered, strided and read-only arrays."""
    big = np.zeros((2 * a.shape[0], 2 * a.shape[1]), a.dtype)
    big[::2, ::2] = a
    readonly = np.array(a, order="C")
    readonly.flags.writeable = False
    return {"C": np.ascontiguousarray(a), "F": np.asfortranarray(a),
            "strided": big[::2, ::2], "readonly": readonly}


def _arrays(result):
    """Every array in a result: itself, tuple items, dataclass fields."""
    if isinstance(result, np.ndarray):
        yield result
    elif isinstance(result, tuple):
        for item in result:
            yield from _arrays(item)
    elif dataclasses.is_dataclass(result):
        for f in dataclasses.fields(result):
            yield from _arrays(getattr(result, f.name))


def _calls(group, tmp_path):
    """Each public function that takes a matrix, applied to x where valid."""
    calls = {
        "as_square": sd.as_square,
        "frobenius": sd.frobenius,
        "log_det": sd.log_det,
        "half_dim": sd.half_dim,
        "format_matrix": sd.format_matrix,
        "write_matrix": lambda x: sd.write_matrix(x, tmp_path / "m.txt"),
        "membership_residual": lambda x: sd.membership_residual(x, group),
        "block_pair": lambda x: sd.block_pair(x, group),
        "conj_block_det": lambda x: sd.conj_block_det(x, x),
        "conj_block_reduction": lambda x: sd.conj_block_reduction(x, 2.0 * x),
        "diag_block": lambda x: sd.diag_block(x, group),
        "shear_lower": lambda x: sd.shear_lower(x, group),
        "shear_upper": lambda x: sd.shear_upper(x, group),
    }
    if group is not CONJ:
        calls["certify_symplectic"] = lambda x: sd.certify_symplectic(x, group)
    if group is not COMPLEX:
        calls["conj_symplectic_det"] = sd.conj_symplectic_det
        calls["conj_formula_check"] = sd.conj_formula_check
    return calls


@pytest.mark.parametrize("group", list(GroupKind))
def test_public_functions_neither_mutate_nor_alias_their_input(group, tmp_path):
    for layout, x in _layouts(_member(group, 3)).items():
        before = x.tobytes()
        for name, call in _calls(group, tmp_path).items():
            result = call(x)
            assert x.tobytes() == before, (layout, name)
            for out in _arrays(result):
                assert not np.shares_memory(out, x), (layout, name)
        assert x.flags.writeable == (layout != "readonly")


@pytest.mark.parametrize("n", [1, 3, 50, 100])
@pytest.mark.parametrize("group", list(GroupKind))
def test_uncopied_input_gives_the_copied_result(group, n):
    # f(x) reads x in place where it can; f(np.array(x)) reads a fresh copy of
    # the same layout, as every call did before the copy was skipped
    for layout, x in _layouts(_member(group, n)).items():
        y = np.array(x)
        assert sd.membership_residual(x, group) == sd.membership_residual(y, group), layout
        assert sd.log_det(x) == sd.log_det(y), layout
        assert sd.format_matrix(x) == sd.format_matrix(y), layout
        if group is not CONJ:
            cx, cy = sd.certify_symplectic(x, group), sd.certify_symplectic(y, group)
            assert cx.residuals == cy.residuals, layout
            assert cx.narrative == cy.narrative, layout
            assert cx.verdict == cy.verdict == "pass", layout
        if group is not COMPLEX:
            assert sd.conj_symplectic_det(x) == sd.conj_symplectic_det(y), layout


def _peak_over_input(call, a) -> float:
    """Peak of newly traced memory during call(a), as a multiple of a.nbytes."""
    call(a)  # warm up: first-call imports and caches are not the call's cost
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        call(a)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    return peak / a.nbytes


@pytest.mark.parametrize("group", list(GroupKind))
def test_allocation_peaks_at_n50(group):
    # without the coercion copies the peaks are about 2x for the residual
    # (A^# J and its product with A), 0 for log_det (LAPACK's workspace is not
    # traced), 2x for a certificate (the block pair is embedded into the Gram
    # matrix's array) and 2x for the conjugate formula; each bound sits below
    # what one more full-size copy would give
    a = _member(group, 50)
    assert _peak_over_input(lambda x: sd.membership_residual(x, group), a) < 2.5
    assert _peak_over_input(sd.log_det, a) < 0.5
    if group is not CONJ:
        assert _peak_over_input(lambda x: sd.certify_symplectic(x, group), a) < 2.5
    if group is not COMPLEX:
        assert _peak_over_input(sd.conj_symplectic_det, a) < 3.0


def test_square_passes_contiguous_input_through():
    for dtype in (np.float64, np.complex128):
        a = np.arange(16, dtype=dtype).reshape(4, 4)
        for x in (a, np.asfortranarray(a), a.T):
            assert _square(x) is x
            copy = sd.as_square(x)  # still a fresh copy, in the same layout
            assert not np.shares_memory(copy, x) and copy.strides == x.strides
        readonly = a.copy()
        readonly.flags.writeable = False
        assert _square(readonly) is readonly
        for x in (a[::2, ::2], a[::-1]):  # not contiguous: copied like as_square
            m = _square(x)
            assert not np.shares_memory(m, x)
            assert m.strides == np.array(x).strides
            assert np.array_equal(m, x)
    for x, dtype in ((np.eye(3, dtype=np.float32), np.float64),
                     (np.eye(3, dtype=np.int64), np.float64),
                     (np.eye(3, dtype=np.complex64), np.complex128),
                     ([[1, 2], [3, 4]], np.float64),
                     ([[1j, 2], [3, 4]], np.complex128)):
        m = _square(x)
        assert m.dtype == dtype and m is not x
        assert np.array_equal(m, sd.as_square(x))
    for bad in (np.zeros((2, 3)), np.zeros(4), np.zeros((0, 0)), np.zeros((2, 2, 2))):
        with pytest.raises(ValueError, match="expected a square matrix"):
            _square(bad)

