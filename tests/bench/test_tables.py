"""Tests for the benchmark table/series renderers."""

from repro.bench.tables import format_series, format_table


class TestFormatTable:
    def test_alignment(self):
        text = format_table(["name", "n"], [["a", 1], ["longer", 22]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert all(len(line) <= len(max(lines, key=len)) for line in lines)
        assert "longer" in lines[3]

    def test_title_prepended(self):
        text = format_table(["x"], [[1]], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_non_string_cells_stringified(self):
        text = format_table(["a", "b"], [[1.5, None]])
        assert "1.5" in text and "None" in text

    def test_empty_rows(self):
        text = format_table(["col"], [])
        assert "col" in text


class TestFormatSeries:
    def test_bars_scale_to_peak(self):
        text = format_series([(0.0, 1.0), (1.0, 2.0)], width=10)
        lines = text.splitlines()
        assert lines[-1].count("#") == 10
        assert lines[-2].count("#") == 5

    def test_empty_series(self):
        assert "(no data)" in format_series([])

    def test_labels_shown(self):
        text = format_series([(1.0, 1.0)], x_label="time", y_label="found")
        assert "time" in text and "found" in text

    def test_zero_peak_does_not_divide_by_zero(self):
        text = format_series([(0.0, 0.0)])
        assert text  # renders without error


class TestExperimentDrivers:
    def test_pbft_analysis_driver(self):
        from repro.bench.experiments import run_pbft_analysis

        report = run_pbft_analysis()
        assert report.trojan_count == 2

    def test_trojan_pattern_count_matches_class_structure(self):
        from repro.bench.experiments import _count_trojan_bit_patterns
        from repro.systems.fsp import FSP_PARAMS, all_trojan_classes

        total = _count_trojan_bit_patterns(FSP_PARAMS)
        # 80 classes, each contributing 94^t * 256^(free) patterns: the
        # count is dominated by the three-free-byte classes.
        assert total > len(all_trojan_classes())
        assert total == 8 * sum(94 ** t * 256 ** (5 - t - 2)
                                for length in range(1, 5)
                                for t in range(length)) == 727_557_056
