"""Tests for the shared benchmark harness (formatting and timing)."""

from repro.bench import Timer, format_table, speedup


class TestTimer:
    def test_measures_nonnegative(self):
        with Timer() as timer:
            sum(range(1000))
        assert timer.seconds >= 0


class TestFormatTable:
    def test_unit_scaling(self):
        text = format_table(
            ["label", "time"],
            [["us", 5e-6], ["ms", 5e-3], ["s", 5.0], ["zero", 0.0]],
        )
        assert "5.0µs" in text
        assert "5.00ms" in text
        assert "5.000s" in text

    def test_title_and_alignment(self):
        text = format_table(["a", "bee"], [["x", 1], ["longer", 2]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert len({len(line) for line in lines[1:]}) == 1  # aligned

    def test_empty_rows(self):
        text = format_table(["a"], [])
        assert "a" in text

    def test_non_float_cells_passthrough(self):
        text = format_table(["n"], [[12345]])
        assert "12345" in text


class TestSpeedup:
    def test_ratio(self):
        assert speedup(1.0, 0.5) == "2.0x"

    def test_zero_subject(self):
        assert speedup(1.0, 0.0) == "inf"
