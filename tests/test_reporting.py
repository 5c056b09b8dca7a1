from fractions import Fraction

import numpy as np
import pytest

from bml import reporting as rep


def test_write_csv_formats(tmp_path):
    path = tmp_path / "t.csv"
    rep.write_csv(str(path), ("a", "b", "c"), [(0.1, Fraction(2, 3), "x")])
    lines = path.read_text().splitlines()
    assert lines[0] == "a,b,c"
    assert lines[1] == "0.1,2/3,x"


def test_write_csv_empty(tmp_path):
    path = tmp_path / "e.csv"
    rep.write_csv(str(path), ("a",), [])
    assert path.read_text().splitlines() == ["a"]


def test_write_json_deterministic(tmp_path):
    obj = {
        "z": Fraction(-1, 3),
        "a": [np.float64(1.5), np.int64(2)],
        "nested": {"k": (1, 2)},
    }
    p1, p2 = tmp_path / "1.json", tmp_path / "2.json"
    rep.write_json(str(p1), obj)
    rep.write_json(str(p2), obj)
    text = p1.read_text()
    assert text == p2.read_text()
    assert '"-1/3"' in text
    assert text.endswith("\n")
    # keys sorted
    assert text.index('"a"') < text.index('"nested"') < text.index('"z"')


def test_write_json_refuses_an_array(tmp_path):
    """Only numpy scalars are unwrapped: an array is a named error, raised
    before the file is opened."""
    with pytest.raises(ValueError, match="size 1"):
        rep.write_json(str(tmp_path / "a.json"), {"a": np.array([1.0, 2.0])})
    assert not (tmp_path / "a.json").exists()


def test_slope_rows_blanks():
    rows = list(rep.slope_rows([1.0, 2.0], m2=[0.5, 0.25], prediction=Fraction(-2, 3)))
    assert rows[0] == (1.0, None, 0.5, None, -2, 3)
    cells = [rep._cell(v) for v in rows[0]]
    assert cells == ["1.0", "", "0.5", "", "-2", "3"]


def test_balance_rows():
    from bml.balance import HistoryRow

    rows = list(rep.balance_rows([HistoryRow(0, 1.0, -0.5, 0.1)]))
    assert rows == [(0, 1.0, -0.5, 0.1)]
