import io
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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

    @pytest.mark.parametrize("timestamp", ["1_000", "+2000", "-0", "-5", "\u0661\u0660\u0660",
                                           "1e3", "0x10", ".5", ""])
    def test_timestamp_outside_the_grammar_rejected(self, timestamp):
        with pytest.raises(tagio.TagFormatError, match="bad timestamp") as err:
            make_stream(HEADER + "0,100\n1," + timestamp + "\n")
        assert err.value.line_number == 3

    @pytest.mark.parametrize("line", [" 0 , 100.5 ", "\t0,100.5", "0,100.5\r", "0,\t100.5  "])
    def test_surrounding_whitespace_accepted(self, line):
        stream = make_stream(HEADER + "\n" + line + "\n\n0,100.5\r\n")
        assert stream.channels.tolist() == [0, 0]
        assert stream.timestamps_tenths.tolist() == [1005, 1005]

    def test_seventeen_integer_digits_is_the_limit(self):
        # 17 digits keep every timestamp's tenths below 1e18 < 2**63
        stream = make_stream(HEADER + "1,99999999999999999.9\n")
        assert stream.timestamps_tenths.tolist() == [10**18 - 1]
        with pytest.raises(tagio.TagFormatError, match="bad timestamp") as err:
            make_stream(HEADER + "0,1\n1,100000000000000000\n")
        assert err.value.line_number == 3

    def test_last_line_without_newline(self):
        stream = make_stream(HEADER + "0,100\n1,103.3")
        assert stream.timestamps_tenths.tolist() == [1000, 1033]
        with pytest.raises(tagio.TagFormatError) as err:
            make_stream(HEADER + "0,100\n1,13")
        assert err.value.line_number == 3

    @pytest.mark.parametrize("first,second,message", [
        ("0,50", "2,900", "timestamps decrease"),
        ("2,500", "0,50", "channel"),
    ], ids=["decrease-first", "bad-channel-first"])
    def test_first_offending_line_reported(self, first, second, message):
        # line 5 fails one check and line 9 another: the earlier is reported
        lines = ["0,100", "1,200", "0,300", first, "1,600", "0,700", "1,800", second]
        with pytest.raises(tagio.TagFormatError, match=message) as err:
            make_stream(HEADER + "\n".join(lines) + "\n")
        assert err.value.line_number == 5

    def test_one_line_parser_sees_only_lines_outside_the_grammar(self, monkeypatch):
        seen, parse_line = [], tagio._parse_line

        def spy(raw, *args, **kwargs):
            seen.append(raw)
            return parse_line(raw, *args, **kwargs)

        monkeypatch.setattr(tagio, "_parse_line", spy)
        stream = make_stream(HEADER + "0,100\n1,103.3\r\n\n 0,200\n1,99999999999999999.9\n")
        assert len(stream) == 4
        assert seen == [HEADER.strip().encode(), b"", b" 0,200"]

    def test_iterable_of_lines(self):
        lines = [HEADER.strip(), b"0,100", "1,103.3\n", b"\n"]
        stream = tagio.parse_tags(lines)
        assert stream.timestamps_tenths.tolist() == [1000, 1033]


def reference_parse(text):
    """Each line through the one-line parser in a Python loop."""
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    channels, tenths, saw_header = [], [], False
    for number, line in enumerate(lines, 1):
        record = tagio._parse_line(line.encode(), number, expect_header=not saw_header)
        if record is None:
            continue
        if not saw_header:
            saw_header = True
            continue
        if tenths and record[1] < tenths[-1]:
            raise tagio.TagFormatError(number, "timestamps decrease")
        channels.append(record[0])
        tenths.append(record[1])
    if not saw_header:
        raise tagio.TagFormatError(len(lines) + 1,
                                   f"expected header {tagio.TAG_HEADER!r}, found none")
    return channels, tenths


@st.composite
def tag_texts(draw):
    """A tag file mixing canonical lines with the other accepted forms
    (whitespace, CRLF, blank lines), and now and then an offence."""
    near_limit = st.integers(10**18 - 20, 10**18 + 20)  # 17 or 18 integer digits
    stamps = sorted(draw(st.lists(st.integers(0, 10**7) | near_limit, max_size=30)))
    if len(stamps) > 1 and draw(st.booleans()):
        i = draw(st.integers(0, len(stamps) - 2))
        stamps[i], stamps[i + 1] = stamps[i + 1], stamps[i]
    lines = [""] * draw(st.integers(0, 2)) + [HEADER.strip()]
    forms = st.sampled_from(["{},{}.{}", "{},{}", " {} ,{}.{} ", "{},{}.{}\r", "{},{}\r", "\t{},{}"])
    for ts in stamps:
        channel = draw(st.sampled_from("0" * 15 + "1" * 15 + "2"))
        lines.append(draw(forms).format(channel, ts // 10, ts % 10))
        lines += [""] * draw(st.integers(0, 1)) + ["  "] * draw(st.integers(0, 1))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n"]))


class TestParserAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(text=tag_texts(), chunk=st.integers(1, 64), binary=st.booleans())
    def test_same_records_or_same_error(self, text, chunk, binary):
        try:
            expected = reference_parse(text)
        except tagio.TagFormatError as exc:
            expected = exc
        source = io.BytesIO(text.encode()) if binary else io.StringIO(text)
        with mock.patch.object(tagio, "_CHUNK_BYTES", chunk):
            try:
                stream = tagio.parse_tags(source)
            except tagio.TagFormatError as exc:
                assert str(exc) == str(expected)
                assert exc.line_number == expected.line_number
                return
        assert not isinstance(expected, Exception), expected
        assert stream.channels.tolist() == expected[0]
        assert stream.timestamps_tenths.tolist() == expected[1]


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


def reference_tally(tags, config, duration_ns=None):
    """The histogram of (channel, tenths) tags by the window rule, one tag at
    a time, with the empty windows counted, not stored."""
    window, size = config.window_tenths, config.truncation + 1
    if duration_ns is not None:
        n_windows = duration_ns * 10 // window
    else:
        n_windows = tags[-1][1] // window + 1 if tags else 0
    occupied = {}
    for channel, ts in tags:
        if ts // window < n_windows:
            occupied.setdefault(ts // window, [0, 0])[channel] += 1
    counts = np.zeros((size, size), np.int64)
    counts[0, 0] = n_windows - len(occupied)
    for plus, minus in occupied.values():
        counts[min(plus, config.truncation), min(minus, config.truncation)] += 1
    return counts


@st.composite
def tally_cases(draw):
    """Sorted tags with bursts (counts above K) and gaps of up to about 1e7
    windows, a small window and truncation, and sometimes a duration."""
    window_ns = draw(st.integers(4, 60))
    gaps = st.just(0) | st.integers(0, 20 * window_ns) | st.integers(0, 10**8 * window_ns)
    ts, tags = 0, []
    for gap, channel in draw(st.lists(st.tuples(gaps, st.integers(0, 1)), max_size=40)):
        ts += gap
        tags.append((channel, ts))
    config = tagio.BinningConfig(window_ns=window_ns, truncation=draw(st.integers(1, 3)))
    end = tags[-1][1] // 10 if tags else 0
    duration_ns = draw(st.none() | st.integers(0, 2 * end + 100 * window_ns))
    return tags, config, duration_ns


def check_tally(tags, config, duration_ns=None, chunk=24):
    """Parse the tags in chunks of `chunk` bytes and check the tally against
    the reference and, where the windows are few, against bin_counts."""
    text = HEADER + "".join(f"{ch},{ts // 10}.{ts % 10}\n" for ch, ts in tags)
    with mock.patch.object(tagio, "_CHUNK_BYTES", chunk):
        stream = make_stream(text)
    hist = tagio.tally(stream, config, duration_ns)
    expected = reference_tally(tags, config, duration_ns)
    assert len(stream) == len(tags)
    assert hist.truncation == config.truncation
    assert hist.counts.tolist() == expected.tolist()
    if hist.total <= 10**5:
        counts = tagio.bin_counts(stream, config, duration_ns)
        assert len(counts) == hist.total
        assert hist.counts.tolist() == tagio.histogram(counts, config.truncation).counts.tolist()
    return hist


class TestTally:
    @settings(max_examples=300, deadline=None)
    @given(case=tally_cases(), chunk=st.integers(8, 48))
    def test_equals_histogram_of_bin_counts(self, case, chunk):
        # chunks of a few dozen bytes: windows straddle the block ends
        check_tally(*case, chunk=chunk)

    def test_header_only(self):
        hist = check_tally([], tagio.BinningConfig())
        assert hist.total == 0

    def test_single_tag(self):
        hist = check_tally([(1, 1_000_000)], tagio.BinningConfig())
        assert hist.total == 2 and hist.counts[0, 0] == 1 and hist.counts[0, 1] == 1

    def test_counts_clamped_at_truncation(self):
        tags = [(0, 10 * i) for i in range(20)] + [(1, 200 + i) for i in range(4)]
        hist = check_tally(tags, tagio.BinningConfig(truncation=3), chunk=9)
        assert hist.counts.tolist() == [[0] * 4, [0] * 4, [0] * 4, [0, 0, 0, 1]]

    def test_long_gaps(self):
        # about 1e12 windows of 4 ns, most of them empty
        tags = [(0, 50), (1, 75), (1, 4 * 10**16), (0, 4 * 10**16 + 39), (0, 4 * 10**16 + 40)]
        hist = check_tally(tags, tagio.BinningConfig(window_ns=4))
        assert hist.total == 10**15 + 2
        assert hist.counts[0, 0] == 10**15 - 1

    def test_stream_built_from_arrays(self):
        stream = tagio.TagStream([0, 1, 1, 0], [5, 7, 900_000, 900_001],
                                 duration_tenths=3 * 800_000)
        hist = tagio.tally(stream, tagio.BinningConfig())
        expected = tagio.histogram(tagio.bin_counts(stream, tagio.BinningConfig()), 15)
        assert hist.counts.tolist() == expected.counts.tolist()
        assert len(stream.blocks) == 1 and stream.channels.dtype == np.uint8

    @pytest.mark.parametrize("channels,stamps",
                             [([0, 2], [1, 2]), ([0, 1], [1]), ([0, 1], [2, 1])],
                             ids=["channel-2", "lengths-differ", "unsorted"])
    def test_stream_from_arrays_checked(self, channels, stamps):
        # the tally sums a window's channels and finds windows as runs of sorted tags
        with pytest.raises(DomainError, match="channels must be 0 or 1"):
            tagio.TagStream(np.array(channels), stamps)


def synthetic_tag_bytes(tags, seed=3):
    """A tag file of `tags` tags about 12.7 us apart, as bytes."""
    rng = np.random.default_rng(seed)
    stamps = np.cumsum(rng.integers(0, 254_000, size=tags))
    lines = map("{},{}.{}".format, rng.integers(0, 2, size=tags).tolist(),
                (stamps // 10).tolist(), (stamps % 10).tolist())
    return (HEADER + "\n".join(lines) + "\n").encode()


def parse_and_tally_peak(data, window_ns):
    """The tracemalloc peak, in bytes, of parse_tags plus tally on data."""
    tracemalloc.start()
    try:
        tagio.tally(tagio.parse_tags(io.BytesIO(data)), tagio.BinningConfig(window_ns=window_ns))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestIngestMemory:
    def test_grows_by_at_most_12_bytes_per_tag(self):
        # the blocks hold 9 bytes a tag (uint8 channel, int64 tenths)
        n = 100_000
        small, large = (parse_and_tally_peak(synthetic_tag_bytes(size), 80_000)
                        for size in (n, 4 * n))
        assert (large - small) / (3 * n) <= 12

    def test_window_size_does_not_size_memory(self):
        # at 4 ns, about 1.6e9 windows, nearly each tag in its own
        data = synthetic_tag_bytes(200_000)
        assert abs(parse_and_tally_peak(data, 4) - parse_and_tally_peak(data, 80_000)) <= 2**20


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
