import re

import pytest

from crmgraph.fileio import column, read_csv
from crmgraph.measures import ParameterError


def table(tmp_path, text):
    path = tmp_path / "t.csv"
    path.write_text(text)
    return path, *read_csv(path)


class TestColumn:
    def test_converts_named_column(self, tmp_path):
        path, header, rows = table(tmp_path, "V,E\n1,2.5\n3,4e1\n")
        assert header == ("V", "E")
        assert column(path, header, rows, "E", float) == [2.5, 40.0]
        assert column(path, header, rows, "V", int) == [1, 3]
        assert column(path, header, rows, "V", str) == ["1", "3"]

    def test_non_number_names_file_row_and_column(self, tmp_path):
        path, header, rows = table(tmp_path, "V,E\n1,2\nx,4\n")
        with pytest.raises(ParameterError, match=re.escape(
                f"{path}: data row 2 has V 'x', expected a number")):
            column(path, header, rows, "V", float)

    @pytest.mark.parametrize("text", ["-9223372036854775809", "9223372036854775808", "1.0"])
    def test_int_outside_int64_or_fractional_rejected(self, tmp_path, text):
        path, header, rows = table(tmp_path, f"i\n0\n{text}\n")
        with pytest.raises(ParameterError, match=re.escape(
                f"{path}: data row 2 has i {text!r}, expected an integer in [-2**63, 2**63)")):
            column(path, header, rows, "i", int)

    def test_int64_limits_accepted(self, tmp_path):
        path, header, rows = table(tmp_path, "i\n-9223372036854775808\n9223372036854775807\n")
        assert column(path, header, rows, "i", int) == [-2**63, 2**63 - 1]

    def test_missing_column_names_file_and_header(self, tmp_path):
        path, header, rows = table(tmp_path, "a,b\n1,2\n")
        with pytest.raises(ParameterError, match=re.escape(
                f"{path}: no column 'V' in CSV header 'a,b'")):
            column(path, header, rows, "V", float)

