import numpy as np
import pytest

from trapgas.errors import DomainError
from trapgas.tables import SweepTable, format_cell


def test_format_cell():
    assert format_cell(94.0494) == "9.40494000e+01"
    assert format_cell(None) == ""
    assert format_cell(1e-12) == "1.00000000e-12"


def test_csv_layout(tmp_path):
    table = SweepTable(["a", "b"], {"tool": "trapgas 0.1.0"})
    table.add_row(1.0, None)
    table.add_row(2.0, 3.0)
    text = table.to_csv()
    lines = text.splitlines()
    assert lines[0] == "# tool=trapgas 0.1.0"
    assert lines[1] == "a,b"
    assert lines[2] == "1.00000000e+00,"
    assert text.endswith("\n")
    path = table.write_csv(tmp_path / "out.csv")
    assert path.read_text() == text


def test_validation():
    with pytest.raises(DomainError):
        SweepTable(["a", "a"])
    with pytest.raises(DomainError):
        SweepTable([])
    table = SweepTable(["a", "b"])
    with pytest.raises(DomainError):
        table.add_row(1.0)


def test_rows_take_format_cell_bytes():
    # Full float rows take one % operation; rows with a None cell take the
    # cell-by-cell path; both give format_cell's bytes.
    rows = [
        [1, np.float64(2.5), -0.0],
        [None, np.float32(0.1), 10**20],
        [np.int64(-7), None, None],
        [np.float64(np.nan), np.inf, 1e-320],
        [True, 3.0, np.float64(6.02214076e23)],
    ]
    table = SweepTable(["a", "b", "c"])
    for row in rows:
        table.add_row(*row)
    lines = table.to_csv().splitlines()[1:]
    assert lines == [",".join(format_cell(v) for v in row) for row in rows]
    assert lines[0] == "1.00000000e+00,2.50000000e+00,-0.00000000e+00"
    assert lines[2] == "-7.00000000e+00,,"
