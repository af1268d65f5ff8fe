"""Matrix text format: exact round trips and parse diagnostics."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sympdet.linalg import random_gaussian, rng_from_seed
from sympdet.matio import format_matrix, parse_matrix, read_matrix, write_matrix


def test_real_fixture():
    m = parse_matrix("2 R\n1.0 2.0\n3.0 4.0\n")
    assert m.dtype == np.float64
    assert_allclose(m, [[1.0, 2.0], [3.0, 4.0]])


def test_complex_fixture():
    m = parse_matrix("1 C\n0.5,-0.25\n")
    assert m.dtype == np.complex128
    assert m[0, 0] == 0.5 - 0.25j


@pytest.mark.parametrize("kind", ["R", "C"])
def test_round_trip_is_exact(kind):
    a = random_gaussian(rng_from_seed(8), 5, kind)
    a[0, 0] *= 1e-200   # subnormal-adjacent magnitudes survive repr
    a[1, 1] *= 1e200
    assert np.array_equal(parse_matrix(format_matrix(a)), a)


def test_round_trip_through_files(tmp_path):
    a = random_gaussian(rng_from_seed(9), 3, "C")
    path = tmp_path / "m.txt"
    write_matrix(a, path)
    assert np.array_equal(read_matrix(path), a)


def test_header_errors():
    with pytest.raises(ValueError, match="header"):
        parse_matrix("2\n1 0\n0 1\n")
    with pytest.raises(ValueError, match="kind"):
        parse_matrix("2 Q\n1 0\n0 1\n")
    with pytest.raises(ValueError, match="dimension"):
        parse_matrix("x R\n")
    with pytest.raises(ValueError, match="dimension"):
        parse_matrix("0 R\n")
    with pytest.raises(ValueError, match="empty"):
        parse_matrix("")


def test_shape_errors():
    with pytest.raises(ValueError, match="2 rows"):
        parse_matrix("2 R\n1.0 2.0\n")
    with pytest.raises(ValueError, match="expected 2 entries"):
        parse_matrix("2 R\n1.0 2.0\n3.0\n")


def test_entry_errors():
    with pytest.raises(ValueError, match="line 2: bad R-kind"):
        parse_matrix("1 R\n1.0,2.0\n")
    with pytest.raises(ValueError, match="line 3: bad C-kind"):
        parse_matrix("2 C\n1,0 0,0\n0,0 nope\n")


@pytest.mark.parametrize("text", ["2 R\n1.0 0.0\n\n0.0 nan\n", "2 C\n1,0 0,0\n\n0,0 1,-inf\n"],
                         ids=["R-nan", "C-inf"])
def test_non_finite_entries_rejected(text):
    with pytest.raises(ValueError, match="line 4: non-finite entry"):
        parse_matrix(text)
