"""Unit tests for the text-table renderer."""

from __future__ import annotations

import pytest

from repro.utils.tables import Table, format_table


class TestTable:
    def test_render_aligns_columns(self):
        table = Table(headers=["name", "value"])
        table.add_row("alpha", 0.25)
        table.add_row("long-name", 1.0)
        text = table.render()
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "0.2500" in text
        assert "1.0000" in text
        # Header separator uses dashes of the right width.
        assert set(lines[1].replace("  ", "")) == {"-"}

    def test_title_is_first_line(self):
        table = Table(headers=["a"], title="My table")
        table.add_row(1)
        assert table.render().splitlines()[0] == "My table"

    def test_row_length_mismatch_rejected(self):
        table = Table(headers=["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_float_format_configurable(self):
        table = Table(headers=["x"], float_format=".1f")
        table.add_row(0.25)
        assert "0.2" in table.render()
        assert "0.25" not in table.render()

    def test_round_off_below_zero_prints_unsigned(self):
        table = Table(headers=["x"])
        table.add_row(-1e-17)
        table.add_row(-0.25)
        assert table.rows == [["0.0000"], ["-0.2500"]]

    def test_bool_rendering(self):
        table = Table(headers=["flag"])
        table.add_row(True)
        table.add_row(False)
        text = table.render()
        assert "yes" in text and "no" in text

    def test_str_matches_render(self):
        table = Table(headers=["a"])
        table.add_row("x")
        assert str(table) == table.render()


class TestFormatTable:
    def test_one_shot_helper(self):
        text = format_table(["k", "v"], [["a", 1.5], ["b", 2.0]], title="T")
        assert text.splitlines()[0] == "T"
        assert "1.5000" in text

    def test_empty_rows_render_headers_only(self):
        text = format_table(["only"], [])
        assert "only" in text
