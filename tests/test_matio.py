"""Matrix text format: exact round trips and parse diagnostics."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sympdet.linalg import rng_from_seed
from sympdet.matio import format_matrix, parse_matrix, read_matrix, write_matrix

from oracles import random_gaussian


def test_real_fixture():
    m = parse_matrix("2 R\n1.0 2.0\n3.0 4.0\n")
    assert m.dtype == np.float64
    assert_allclose(m, [[1.0, 2.0], [3.0, 4.0]])


def test_complex_fixture():
    m = parse_matrix("1 C\n0.5,-0.25\n")
    assert m.dtype == np.complex128
    assert m[0, 0] == 0.5 - 0.25j


@pytest.mark.parametrize("dtype", [np.float64, np.complex128], ids=["R", "C"])
def test_round_trip_is_exact(dtype):
    a = random_gaussian(rng_from_seed(8), 5, dtype)
    a[0, 0] *= 1e-200   # subnormal-adjacent magnitudes survive repr
    a[1, 1] *= 1e200
    assert np.array_equal(parse_matrix(format_matrix(a)), a)


def test_golden_file_text():
    # the exact bytes written, and read back bit for bit, sign of zero included
    r = np.array([[-0.0, 5e-324, 1e-05],
                  [1e16, 0.1, 1.7976931348623157e308],
                  [-1.5, 0.0, -2.2250738585072014e-308]])
    c = np.array([[complex(0.1, -0.0), complex(-0.0, 5e-324)],
                  [complex(1e-05, -1e16), complex(1.7976931348623157e308, 0.0)]])
    golden = {
        "3 R\n"
        "-0.0 5e-324 1e-05\n"
        "1e+16 0.1 1.7976931348623157e+308\n"
        "-1.5 0.0 -2.2250738585072014e-308\n": r,
        "2 C\n"
        "0.1,-0.0 -0.0,5e-324\n"
        "1e-05,-1e+16 1.7976931348623157e+308,0.0\n": c,
    }
    for text, a in golden.items():
        assert format_matrix(a) == text
        back = parse_matrix(text)
        assert back.dtype == a.dtype
        assert back.tobytes() == a.tobytes()


def test_complex_rows_with_unusual_whitespace_and_digits():
    # entries split on any whitespace; float() reads any decimal digits
    m = parse_matrix("2 C\n 1,2\t\t3,4 \n5,6\u30007,\u0668\n")
    assert m.tolist() == [[1 + 2j, 3 + 4j], [5 + 6j, 7 + 8j]]


def test_round_trip_through_files(tmp_path):
    a = random_gaussian(rng_from_seed(9), 3, np.complex128)
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
    # each message names the line and the first bad entry on it
    cases = {
        "1 R\n1.0,2.0\n": "line 2: bad R-kind entry '1.0,2.0'",
        "2 C\n1,0 0,0\n0,0 nope\n": "line 3: bad C-kind entry 'nope'",
        "1 C\n1,2,3\n": "line 2: bad C-kind entry '1,2,3'",
        "1 C\n1\n": "line 2: bad C-kind entry '1'",
        "1 C\n1,\n": "line 2: bad C-kind entry '1,'",
        "1 C\n,2\n": "line 2: bad C-kind entry ',2'",
        "2 R\n1.0 2.0\nfoo bar\n": "line 3: bad R-kind entry 'foo'",
        "3 R\n1 2 3\n4 x 5,6\n7 8 9\n": "line 3: bad R-kind entry 'x'",
        "2 C\n1,0 1,2,3\n4 0,0\n": "line 2: bad C-kind entry '1,2,3'",
        "3 C\n1,1 ,3 4,\n1,1 1,1 1,1\n1,1 1,1 1,1\n": "line 2: bad C-kind entry ',3'",
        # as many commas as entries, but not one in each
        "2 C\n0,0 0,0\n1,2,3 4\n": "line 3: bad C-kind entry '1,2,3'",
        "2 C\n0,0 0,0\n1 2,3,4\n": "line 3: bad C-kind entry '1'",
    }
    for text, message in cases.items():
        with pytest.raises(ValueError) as exc:
            parse_matrix(text)
        assert str(exc.value) == message, text


@pytest.mark.parametrize("text", ["2 R\n1.0 0.0\n\n0.0 nan\n", "2 C\n1,0 0,0\n\n0,0 1,-inf\n"],
                         ids=["R-nan", "C-inf"])
def test_non_finite_entries_rejected(text):
    with pytest.raises(ValueError, match="line 4: non-finite entry"):
        parse_matrix(text)
