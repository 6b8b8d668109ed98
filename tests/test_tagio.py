import io

import numpy as np
import pytest

from vistest import photostat as ps
from vistest import tagio
from vistest.util import DomainError

HEADER = "channel,timestamp_ns\n"


def make_stream(text):
    return tagio.parse_tags(io.StringIO(text))


class TestParseTags:
    def test_basic_parse(self):
        stream = make_stream(HEADER + "0,100\n1,103.3\n0,200.0\n")
        assert len(stream) == 3
        records = list(stream)
        assert records[0] == tagio.TagRecord(0, 1000)
        assert records[1] == tagio.TagRecord(1, 1033)
        assert records[2].timestamp_ns == pytest.approx(200.0)

    @pytest.mark.parametrize("text,line", [("", 1), ("\n  \n\n", 4)],
                             ids=["empty", "blank-lines"])
    def test_file_without_header_rejected(self, text, line):
        # an empty or blank file is not an empty stream: it has no header
        with pytest.raises(tagio.TagFormatError, match="expected header") as err:
            make_stream(text)
        assert err.value.line_number == line

    def test_header_only(self):
        assert len(make_stream(HEADER)) == 0
        assert len(make_stream("\n" + HEADER + "\n")) == 0

    def test_missing_header_reports_line_1(self):
        with pytest.raises(tagio.TagFormatError) as err:
            make_stream("0,100\n")
        assert err.value.line_number == 1

    def test_bad_channel_reports_line(self):
        with pytest.raises(tagio.TagFormatError) as err:
            make_stream(HEADER + "0,100\n2,200\n")
        assert err.value.line_number == 3
        assert "channel" in str(err.value)

    def test_decreasing_timestamps_rejected(self):
        with pytest.raises(tagio.TagFormatError) as err:
            make_stream(HEADER + "0,200\n0,100\n")
        assert err.value.line_number == 3

    def test_equal_timestamps_allowed(self):
        assert len(make_stream(HEADER + "0,100\n1,100\n")) == 2

    def test_too_many_decimal_digits_rejected(self):
        with pytest.raises(tagio.TagFormatError):
            make_stream(HEADER + "0,100.33\n")

    def test_non_numeric_timestamp_rejected(self):
        with pytest.raises(tagio.TagFormatError):
            make_stream(HEADER + "0,abc\n")

    def test_wrong_field_count_rejected(self):
        with pytest.raises(tagio.TagFormatError):
            make_stream(HEADER + "0,100,extra\n")

    def test_blank_lines_skipped(self):
        assert len(make_stream(HEADER + "\n0,100\n\n")) == 1

    def test_roundtrip_through_writer(self):
        stream = make_stream(HEADER + "0,100\n1,103.3\n")
        buf = io.StringIO()
        tagio.write_tags(stream, buf)
        again = make_stream(buf.getvalue())
        assert np.array_equal(again.channels, stream.channels)
        assert np.array_equal(again.timestamps_tenths, stream.timestamps_tenths)


class TestBinCounts:
    def test_single_window(self):
        stream = make_stream(HEADER + "0,10\n0,20\n1,30\n")
        counts = tagio.bin_counts(stream, tagio.BinningConfig())
        assert counts.tolist() == [[2, 1]]

    def test_window_boundaries(self):
        # 80 us windows: a tag at exactly 80000 ns opens the second window
        stream = make_stream(HEADER + "0,79999.9\n1,80000\n")
        counts = tagio.bin_counts(stream, tagio.BinningConfig())
        assert counts.tolist() == [[1, 0], [0, 1]]

    def test_explicit_duration_discards_partial_window(self):
        stream = make_stream(HEADER + "0,10\n0,90000\n")
        counts = tagio.bin_counts(stream, tagio.BinningConfig(), duration_ns=160_000)
        assert counts.tolist() == [[1, 0], [1, 0]]
        partial = tagio.bin_counts(stream, tagio.BinningConfig(), duration_ns=150_000)
        assert partial.tolist() == [[1, 0]]

    def test_stream_duration_takes_precedence(self):
        stream = tagio.TagStream([0], [100], duration_tenths=3 * 800_000)
        counts = tagio.bin_counts(stream, tagio.BinningConfig())
        assert counts.shape == (3, 2)
        assert counts.sum() == 1

    def test_counts_clamped_at_truncation(self):
        lines = "".join(f"0,{10 * i}\n" for i in range(20))
        stream = make_stream(HEADER + lines)
        counts = tagio.bin_counts(stream, tagio.BinningConfig(truncation=15))
        assert counts.tolist() == [[15, 0]]

    def test_empty_stream(self):
        counts = tagio.bin_counts(make_stream(HEADER), tagio.BinningConfig())
        assert counts.shape == (0, 2)
        assert counts.dtype == np.int64

    def test_empty_stream_over_a_duration_gives_empty_windows(self):
        counts = tagio.bin_counts(make_stream(HEADER), tagio.BinningConfig(),
                                  duration_ns=160_000)
        assert counts.tolist() == [[0, 0], [0, 0]]


class TestHistogram:
    def test_tally(self):
        hist = tagio.histogram([(0, 0), (0, 0), (1, 2)], truncation=3)
        assert hist.counts[0, 0] == 2
        assert hist.counts[1, 2] == 1
        assert hist.total == 3

    def test_overflow_folds_into_top_bucket(self):
        hist = tagio.histogram([(9, 0)], truncation=3)
        assert hist.counts[3, 0] == 1

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            tagio.histogram([(-1, 0)], truncation=3)

    def test_csv_format(self):
        hist = tagio.histogram([(0, 1)], truncation=1)
        buf = io.StringIO()
        tagio.histogram_to_csv(hist, buf)
        assert buf.getvalue() == "k,kprime,count\n0,0,0\n0,1,1\n1,0,0\n1,1,0\n"


class TestCompareToTheory:
    def test_exact_match_has_zero_residuals(self):
        theory = ps.joint_random_phase(ps.DetectionParams(1.0, 0.0, 3), 0.5)
        counts = np.round(theory.probs * 1e6).astype(np.int64)
        hist = tagio.EmpiricalHistogram(3, counts)
        result = tagio.compare_to_theory(hist, theory)
        assert result.tv_distance < 1e-3
        assert result.fraction_within_2 == 1.0

    def test_truncation_mismatch_rejected(self):
        theory = ps.joint_random_phase(ps.DetectionParams(1.0, 0.0, 3), 0.5)
        hist = tagio.histogram([(0, 0)], truncation=2)
        with pytest.raises(DomainError):
            tagio.compare_to_theory(hist, theory)

    def test_empty_histogram_rejected(self):
        theory = ps.joint_random_phase(ps.DetectionParams(1.0, 0.0, 3), 0.5)
        hist = tagio.EmpiricalHistogram(3, np.zeros((4, 4), dtype=np.int64))
        with pytest.raises(DomainError):
            tagio.compare_to_theory(hist, theory)

    def test_gross_mismatch_detected(self):
        theory = ps.joint_random_phase(ps.DetectionParams(6.3, 0.0, 5), 0.56)
        hist = tagio.EmpiricalHistogram(
            5, np.full((6, 6), 10_000, dtype=np.int64))
        result = tagio.compare_to_theory(hist, theory)
        assert result.fraction_within_2 < 0.5
        assert result.tv_distance > 0.1


class TestSynthesizeTags:
    def test_round_trip_counts(self):
        rng = np.random.default_rng(5)
        config = tagio.BinningConfig()
        stream = tagio.synthesize_tags(rng, 6.3, 0.56, config, windows=200)
        counts = tagio.bin_counts(stream, config)
        assert counts.shape == (200, 2)
        assert counts.sum() == len(stream)

    def test_mean_energy(self):
        rng = np.random.default_rng(6)
        config = tagio.BinningConfig(truncation=40)
        stream = tagio.synthesize_tags(rng, 6.3, 0.56, config, windows=50_000)
        counts = tagio.bin_counts(stream, config)
        assert counts.sum(axis=1).mean() == pytest.approx(6.3, abs=0.05)

    def test_timestamps_on_resolution_grid(self):
        rng = np.random.default_rng(7)
        config = tagio.BinningConfig()
        stream = tagio.synthesize_tags(rng, 3.0, 0.9, config, windows=100)
        offsets = stream.timestamps_tenths % config.window_tenths
        assert not np.any(offsets % config.resolution_tenths)

    def test_sorted_output_parses_back(self):
        rng = np.random.default_rng(8)
        config = tagio.BinningConfig()
        stream = tagio.synthesize_tags(rng, 6.3, 0.56, config, windows=500)
        assert np.all(np.diff(stream.timestamps_tenths) >= 0)
        buf = io.StringIO()
        tagio.write_tags(stream, buf)
        again = tagio.parse_tags(io.StringIO(buf.getvalue()))
        assert len(again) == len(stream)

    def test_histogram_matches_model(self):
        rng = np.random.default_rng(9)
        config = tagio.BinningConfig()
        stream = tagio.synthesize_tags(rng, 6.3, 0.56, config, windows=100_000)
        hist = tagio.histogram(tagio.bin_counts(stream, config), config.truncation)
        theory = ps.joint_random_phase(
            ps.DetectionParams(6.3, 0.0, config.truncation), 0.56)
        result = tagio.compare_to_theory(hist, theory)
        assert result.fraction_within_2 >= 0.9
        # sampling noise floor for 1e5 draws over this table is ~0.013
        assert result.tv_distance < 0.02

    def test_bad_arguments_rejected(self):
        rng = np.random.default_rng(0)
        config = tagio.BinningConfig()
        with pytest.raises(DomainError):
            tagio.synthesize_tags(rng, 6.3, 0.56, config, windows=0)
        with pytest.raises(DomainError):
            tagio.synthesize_tags(rng, 6.3, 1.2, config, windows=1)


class TestBinningConfig:
    def test_defaults(self):
        config = tagio.BinningConfig()
        assert config.window_ns == 80_000
        assert config.window_tenths == 800_000
        assert config.resolution_tenths == 33

    def test_validation(self):
        with pytest.raises(DomainError):
            tagio.BinningConfig(window_ns=0)
        with pytest.raises(DomainError):
            tagio.BinningConfig(window_ns=1, resolution_tenths=100)
