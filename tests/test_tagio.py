import io
import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vistest import photostat as ps
from vistest import tagio
from vistest.util import DomainError

HEADER = "channel,timestamp_ns\n"


def parse(text):
    """The blocks of a tag file's text, read as a binary file."""
    return list(tagio.parse_tags(io.BytesIO(text.encode())))


def joined(blocks):
    """The channels and the tenths of a list of blocks, as two lists."""
    return ([c for ch, _ in blocks for c in ch.tolist()],
            [t for _, ts in blocks for t in ts.tolist()])


class TestParseTags:
    def test_basic_parse(self):
        channels, tenths = joined(parse(HEADER + "0,100\n1,103.3\n0,200.0\n"))
        assert channels == [0, 1, 0]
        assert tenths == [1000, 1033, 2000]

    @pytest.mark.parametrize("text,line", [("", 1), ("\n  \n\n", 4)],
                             ids=["empty", "blank-lines"])
    def test_file_without_header_rejected(self, text, line):
        # an empty or blank file is not an empty stream: it has no header
        with pytest.raises(tagio.TagFormatError, match="expected header") as err:
            parse(text)
        assert err.value.line_number == line

    def test_header_only(self):
        assert joined(parse(HEADER)) == ([], [])
        assert joined(parse("\n" + HEADER + "\n")) == ([], [])

    def test_missing_header_reports_line_1(self):
        with pytest.raises(tagio.TagFormatError) as err:
            parse("0,100\n")
        assert err.value.line_number == 1

    def test_bad_channel_reports_line(self):
        with pytest.raises(tagio.TagFormatError) as err:
            parse(HEADER + "0,100\n2,200\n")
        assert err.value.line_number == 3
        assert "channel" in str(err.value)

    def test_decreasing_timestamps_rejected(self):
        with pytest.raises(tagio.TagFormatError) as err:
            parse(HEADER + "0,200\n0,100\n")
        assert err.value.line_number == 3

    def test_equal_timestamps_allowed(self):
        assert joined(parse(HEADER + "0,100\n1,100\n")) == ([0, 1], [1000, 1000])

    def test_too_many_decimal_digits_rejected(self):
        with pytest.raises(tagio.TagFormatError):
            parse(HEADER + "0,100.33\n")

    def test_non_numeric_timestamp_rejected(self):
        with pytest.raises(tagio.TagFormatError):
            parse(HEADER + "0,abc\n")

    def test_wrong_field_count_rejected(self):
        with pytest.raises(tagio.TagFormatError):
            parse(HEADER + "0,100,extra\n")

    def test_blank_lines_skipped(self):
        assert joined(parse(HEADER + "\n0,100\n\n")) == ([0], [1000])

    def test_roundtrip_through_writer(self):
        blocks = parse(HEADER + "0,100\n1,103.3\n")
        buf = io.StringIO()
        tagio.write_tags(blocks, buf)
        assert joined(parse(buf.getvalue())) == joined(blocks) == ([0, 1], [1000, 1033])

    @pytest.mark.parametrize("timestamp", ["1_000", "+2000", "-0", "-5", "\u0661\u0660\u0660",
                                           "1e3", "0x10", ".5", ""])
    def test_timestamp_outside_the_grammar_rejected(self, timestamp):
        with pytest.raises(tagio.TagFormatError, match="bad timestamp") as err:
            parse(HEADER + "0,100\n1," + timestamp + "\n")
        assert err.value.line_number == 3

    @pytest.mark.parametrize("line", [" 0 , 100.5 ", "\t0,100.5", "0,100.5\r", "0,\t100.5  "])
    def test_surrounding_whitespace_accepted(self, line):
        assert joined(parse(HEADER + "\n" + line + "\n\n0,100.5\r\n")) == ([0, 0], [1005, 1005])

    def test_seventeen_integer_digits_is_the_limit(self):
        # 17 digits keep every timestamp's tenths below 1e18 < 2**63
        assert joined(parse(HEADER + "1,99999999999999999.9\n"))[1] == [10**18 - 1]
        with pytest.raises(tagio.TagFormatError, match="bad timestamp") as err:
            parse(HEADER + "0,1\n1,100000000000000000\n")
        assert err.value.line_number == 3

    def test_last_line_without_newline(self):
        assert joined(parse(HEADER + "0,100\n1,103.3"))[1] == [1000, 1033]
        with pytest.raises(tagio.TagFormatError) as err:
            parse(HEADER + "0,100\n1,13")
        assert err.value.line_number == 3

    @pytest.mark.parametrize("first,second,message", [
        ("0,50", "2,900", "timestamps decrease"),
        ("2,500", "0,50", "channel"),
    ], ids=["decrease-first", "bad-channel-first"])
    def test_first_offending_line_reported(self, first, second, message):
        # line 5 fails one check and line 9 another: the earlier is reported
        lines = ["0,100", "1,200", "0,300", first, "1,600", "0,700", "1,800", second]
        with pytest.raises(tagio.TagFormatError, match=message) as err:
            parse(HEADER + "\n".join(lines) + "\n")
        assert err.value.line_number == 5

    def test_one_line_parser_sees_only_lines_outside_the_grammar(self, monkeypatch):
        seen, parse_line = [], tagio._parse_line

        def spy(raw, *args, **kwargs):
            seen.append(raw)
            return parse_line(raw, *args, **kwargs)

        monkeypatch.setattr(tagio, "_parse_line", spy)
        blocks = parse(HEADER + "0,100\n1,103.3\r\n\n 0,200\n1,99999999999999999.9\n")
        assert joined(blocks)[1] == [1000, 1033, 2000, 10**18 - 1]
        assert seen == [HEADER.strip().encode(), b"", b" 0,200"]

    @pytest.mark.parametrize("source", [io.StringIO(HEADER + "0,100\n"), [HEADER, "0,100\n"],
                                        HEADER + "0,100\n"], ids=["text-file", "lines", "str"])
    def test_text_source_refused(self, source):
        # the one input form is a file opened "rb": its readinto fills the parse's buffer
        with pytest.raises(DomainError, match="binary file.* has no readinto"):
            next(tagio.parse_tags(source))

    def test_file_is_read_a_chunk_at_a_time(self):
        # about 4 MB of lines of 14 bytes: the first block comes after one chunk of them
        source = io.BytesIO((HEADER + "".join(f"{i % 2},{10**8 + i}.5\n"
                                              for i in range(1, 300_000))).encode())
        channels, tenths = next(tagio.parse_tags(source))
        assert source.tell() == tagio._CHUNK_BYTES
        assert tenths[:2].tolist() == [(10**8 + 1) * 10 + 5, (10**8 + 2) * 10 + 5]

    def test_line_longer_than_the_chunk(self):
        # about 300 KB of leading spaces, at the real chunk size: the buffer grows
        # to hold the line, then the ordinary lines after it fill chunks again
        text = (HEADER + " " * 300_000 + "0,100.5\n"
                + "".join(f"{i % 2},{1000 + i}.0\n" for i in range(20_000)))
        channels, tenths = reference_parse(text)
        assert len(tenths) == 20_001 and tenths[0] == 1005
        assert joined(parse(text)) == (channels, tenths)


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
    (whitespace, CRLF, blank lines), integer parts of 1 to 18 digits, and
    now and then an offence: a swap, a bad channel or one bad field byte."""
    stamps = st.integers(1, 18).flatmap(  # tenths whose integer part has n digits
        lambda n: st.integers(0 if n == 1 else 10**n, 10 ** (n + 1) - 1))
    stamps = sorted(draw(st.lists(stamps, max_size=30)))
    if len(stamps) > 1 and draw(st.booleans()):
        i = draw(st.integers(0, len(stamps) - 2))
        stamps[i], stamps[i + 1] = stamps[i + 1], stamps[i]
    corrupt = draw(st.integers(0, len(stamps) - 1)) if stamps and draw(st.booleans()) else -1
    lines = [""] * draw(st.integers(0, 2)) + [HEADER.strip()]
    forms = st.sampled_from(["{},{}.{}", "{},{}", " {} ,{}.{} ", "{},{}.{}\r", "{},{}\r", "\t{},{}"])
    for i, ts in enumerate(stamps):
        channel = draw(st.sampled_from("0" * 15 + "1" * 15 + "2"))
        field = f"{ts // 10}{ts % 10}"  # the integer digits, then the decimal one
        if i == corrupt:  # a byte that is not an ASCII digit: "/" and ":" border them
            at = draw(st.integers(0, len(field) - 1))
            byte = draw(st.sampled_from(["/", ":", "a", "e", "\u0663"]))
            field = field[:at] + byte + field[at + 1:]
        lines.append(draw(forms).format(channel, field[:-1], field[-1]))
        lines += [""] * draw(st.integers(0, 1)) + ["  "] * draw(st.integers(0, 1))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n"]))


class TestParserAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(text=tag_texts(), chunk=st.integers(1, 64))
    def test_same_records_or_same_error(self, text, chunk):
        try:
            expected = reference_parse(text)
        except tagio.TagFormatError as exc:
            expected = exc
        with mock.patch.object(tagio, "_CHUNK_BYTES", chunk):
            try:
                blocks = parse(text)
            except tagio.TagFormatError as exc:
                assert str(exc) == str(expected)
                assert exc.line_number == expected.line_number
                return
        assert not isinstance(expected, Exception), expected
        assert joined(blocks) == expected

    def test_blocks_share_no_memory(self):
        # the parse reuses its working set from chunk to chunk, so every block it
        # yields is a copy: whole (all lines in the grammar) or picked by a mask
        lines = [f"{i % 2},{1000 + 7 * i}.{i % 10}" if i % 40 else f" {i % 2},{1000 + 7 * i}"
                 for i in range(600)]
        text = HEADER + "\n".join(lines) + "\n"
        with mock.patch.object(tagio, "_CHUNK_BYTES", 64):
            blocks = parse(text)
        assert len(blocks) > 50
        arrays = [array for block in blocks for array in block]
        assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(arrays, 2))
        channels, tenths = reference_parse(text)
        start = 0
        for ch, ts in blocks:
            assert ch.tolist() == channels[start:start + len(ch)]
            assert ts.tolist() == tenths[start:start + len(ts)]
            start += len(ts)
        assert start == len(tenths) == 600


class TestBinCounts:
    def test_single_window(self):
        blocks = parse(HEADER + "0,10\n0,20\n1,30\n")
        counts = tagio.bin_counts(blocks, tagio.BinningConfig())
        assert counts.tolist() == [[2, 1]]

    def test_window_boundaries(self):
        # 80 us windows: a tag at exactly 80000 ns opens the second window
        blocks = parse(HEADER + "0,79999.9\n1,80000\n")
        counts = tagio.bin_counts(blocks, tagio.BinningConfig())
        assert counts.tolist() == [[1, 0], [0, 1]]

    def test_explicit_duration_discards_partial_window(self):
        blocks = parse(HEADER + "0,10\n0,90000\n")
        counts = tagio.bin_counts(blocks, tagio.BinningConfig(), duration_ns=160_000)
        assert counts.tolist() == [[1, 0], [1, 0]]
        partial = tagio.bin_counts(blocks, tagio.BinningConfig(), duration_ns=150_000)
        assert partial.tolist() == [[1, 0]]

    def test_duration_keeps_trailing_empty_windows(self):
        block = (np.array([0], np.uint8), np.array([100]))
        counts = tagio.bin_counts([block], tagio.BinningConfig(), duration_ns=3 * 80_000)
        assert counts.tolist() == [[1, 0], [0, 0], [0, 0]]

    @pytest.mark.parametrize("duration_ns", [-80_000, -0.5, float("nan"), float("inf"), 10**18])
    def test_bad_duration_refused(self, duration_ns):
        # a negative duration would ask for a negative number of windows
        with pytest.raises(DomainError, match=r"duration_ns = .* must be >= 0 and fit int64"):
            tagio.bin_counts(parse(HEADER + "0,10\n"), tagio.BinningConfig(), duration_ns)

    def test_counts_clamped_at_truncation(self):
        lines = "".join(f"0,{10 * i}\n" for i in range(20))
        counts = tagio.bin_counts(parse(HEADER + lines), tagio.BinningConfig(truncation=15))
        assert counts.tolist() == [[15, 0]]

    def test_empty_stream(self):
        counts = tagio.bin_counts(parse(HEADER), tagio.BinningConfig())
        assert counts.shape == (0, 2)
        assert counts.dtype == np.int64

    def test_empty_stream_over_a_duration_gives_empty_windows(self):
        counts = tagio.bin_counts(parse(HEADER), tagio.BinningConfig(),
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


def tag_text(tags):
    return HEADER + "".join(f"{ch},{ts // 10}.{ts % 10}\n" for ch, ts in tags)


def check_tally(tags, config, duration_ns=None, chunk=24):
    """Parse the tags in chunks of `chunk` bytes and check the tally against
    the reference and, where the windows are few, against bin_counts."""
    text = tag_text(tags)
    with mock.patch.object(tagio, "_CHUNK_BYTES", chunk):
        blocks = parse(text)
    hist, _ = tagio.tally(blocks, config, duration_ns)
    expected = reference_tally(tags, config, duration_ns)
    assert len(joined(blocks)[1]) == len(tags)
    assert hist.truncation == config.truncation
    assert hist.counts.tolist() == expected.tolist()
    if hist.total <= 10**5:
        counts = tagio.bin_counts(blocks, config, duration_ns)
        assert len(counts) == hist.total
        assert hist.counts.tolist() == tagio.histogram(counts, config.truncation).counts.tolist()
    return hist


class TestTally:
    @settings(max_examples=300, deadline=None)
    @given(case=tally_cases(), chunk=st.integers(8, 48))
    def test_equals_histogram_of_bin_counts(self, case, chunk):
        # chunks of a few dozen bytes: windows straddle the block ends
        check_tally(*case, chunk=chunk)

    @settings(max_examples=100, deadline=None)
    @given(case=tally_cases(), chunk=st.integers(8, 48))
    def test_one_pass_over_the_parse_counts_the_tags(self, case, chunk):
        # the tally consumes the parse as it is read: inside the patch, which
        # sets the chunk size at each read
        tags, config, duration_ns = case
        text = tag_text(tags)
        with mock.patch.object(tagio, "_CHUNK_BYTES", chunk):
            blocks = parse(text)
            hist, count = tagio.tally(tagio.parse_tags(io.BytesIO(text.encode())), config,
                                      duration_ns)
        assert count == len(tags) == len(joined(blocks)[1])
        assert hist.counts.tolist() == reference_tally(tags, config, duration_ns).tolist()

    @settings(max_examples=100, deadline=None)
    @given(case=tally_cases(), chunk=st.integers(8, 48), data=st.data())
    def test_blank_chunks_give_empty_blocks(self, case, chunk, data):
        # 2 * chunk blank lines after a line fill at least one whole chunk, which
        # the parse yields as an empty block between the tags around it
        tags, config, duration_ns = case
        lines = tag_text(tags).splitlines(keepends=True)
        blank = data.draw(st.lists(st.booleans(), min_size=len(lines), max_size=len(lines)))
        text = "".join(line + "\n" * (2 * chunk * gap) for line, gap in zip(lines, blank))
        with mock.patch.object(tagio, "_CHUNK_BYTES", chunk):
            blocks = parse(text)
        sizes = [len(ts) for _, ts in blocks]
        full = np.flatnonzero(sizes)
        if any(blank[1:-1]):  # a tag line, its blanks, then another tag line
            assert 0 in sizes[full[0]:full[-1]]
        hist, count = tagio.tally(blocks, config, duration_ns)
        assert count == len(tags)
        assert hist.counts.tolist() == reference_tally(tags, config, duration_ns).tolist()

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
        blocks = [(np.array([0, 1, 1, 0]), np.array([5, 7, 900_000, 900_001]))]
        hist, _ = tagio.tally(blocks, tagio.BinningConfig(), 3 * 80_000)
        expected = tagio.histogram(tagio.bin_counts(blocks, tagio.BinningConfig(), 3 * 80_000), 15)
        assert hist.counts.tolist() == expected.counts.tolist()
        assert hist.total == 3 and hist.counts[1, 1] == 2 and hist.counts[0, 0] == 1

    @pytest.mark.parametrize("channels,stamps,message", [
        ([0, 2], [1, 2], "channels 0 or 1"), ([0, -1], [1, 2], "channels 0 or 1"),
        ([0, 1], [1], "one to a timestamp"), ([0, 1], [900_000, 5], "back in time"),
    ], ids=["channel-2", "channel-minus-1", "lengths-differ", "unsorted"])
    def test_stream_from_arrays_checked(self, channels, stamps, message):
        # the window pass sums a window's channels and finds windows as runs of
        # sorted tags: counted, a channel-2 tag would land in cell (0, 2) and an
        # unsorted block would leave cell (0, 0) a count of -1
        block = (np.array(channels), np.array(stamps))
        for count in (tagio.tally, tagio.bin_counts):
            with pytest.raises(DomainError, match=message):
                count([block], tagio.BinningConfig())

    @pytest.mark.parametrize("duration_ns", [-80_000, -0.5, float("nan"), float("inf"), 10**18])
    def test_bad_duration_refused(self, duration_ns):
        # counted, -80000 ns would leave cell (0, 0) a count of -1
        with pytest.raises(DomainError, match=r"duration_ns = .* must be >= 0 and fit int64"):
            tagio.tally(parse(HEADER + "0,10\n"), tagio.BinningConfig(), duration_ns)

    BACKWARDS = [(np.array([0, 1], np.uint8), np.array([100, 900_000])),
                 (np.array([0], np.uint8), np.array([50]))]

    def test_stream_of_blocks_going_back_in_time_refused(self):
        # each block is sorted, but the second starts before the first ends;
        # an empty block between sorted ones is no offence
        with pytest.raises(DomainError, match="tag blocks go back in time"):
            tagio.bin_counts(self.BACKWARDS, tagio.BinningConfig())
        empty = (np.array([], np.uint8), np.array([], np.int64))
        sorted_blocks = [self.BACKWARDS[0], empty, (np.array([1], np.uint8), np.array([900_000]))]
        assert tagio.bin_counts(sorted_blocks, tagio.BinningConfig()).tolist() == [[1, 0], [0, 2]]

    def test_tally_of_blocks_going_back_in_time_refused(self):
        # counted, its tag at window 0 would reopen a window already visited
        with pytest.raises(DomainError, match="tag blocks go back in time"):
            tagio.tally(self.BACKWARDS, tagio.BinningConfig())


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
        # a stream kept whole holds 9 bytes a tag (uint8 channel, int64 tenths)
        n = 100_000
        small, large = (parse_and_tally_peak(synthetic_tag_bytes(size), 80_000)
                        for size in (n, 4 * n))
        assert (large - small) / (3 * n) <= 12

    def test_window_size_does_not_size_memory(self):
        # at 4 ns, about 1.6e9 windows, nearly each tag in its own
        data = synthetic_tag_bytes(200_000)
        assert abs(parse_and_tally_peak(data, 4) - parse_and_tally_peak(data, 80_000)) <= 2**20

    def test_peak_below_a_fixed_bound(self):
        # the parse keeps one chunk buffer and one set of per-line arrays for the
        # stream, and the tally one set of per-block arrays: 1.93 MB measured
        # (2.55 MB when each chunk and block made fresh ones), bound 14% above it
        assert parse_and_tally_peak(synthetic_tag_bytes(400_000), 80_000) < 2.2e6

    def test_peak_does_not_grow_with_the_tag_count(self):
        # the tally takes each parsed block as it is read and keeps none
        small, large = (parse_and_tally_peak(synthetic_tag_bytes(size), 80_000)
                        for size in (100_000, 400_000))
        assert abs(large - small) <= 2**18


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
        block = tagio.synthesize_tags(rng, 6.3, 0.56, config, windows=200)
        counts = tagio.bin_counts([block], config, 200 * config.window_ns)
        assert counts.shape == (200, 2)
        assert counts.sum() == len(block[1])

    def test_mean_energy(self):
        rng = np.random.default_rng(6)
        config = tagio.BinningConfig(truncation=40)
        block = tagio.synthesize_tags(rng, 6.3, 0.56, config, windows=50_000)
        counts = tagio.bin_counts([block], config, 50_000 * config.window_ns)
        assert counts.sum(axis=1).mean() == pytest.approx(6.3, abs=0.05)

    def test_timestamps_on_resolution_grid(self):
        rng = np.random.default_rng(7)
        config = tagio.BinningConfig()
        channels, tenths = tagio.synthesize_tags(rng, 3.0, 0.9, config, windows=100)
        assert channels.dtype == np.uint8 and tenths.dtype == np.int64
        offsets = tenths % config.window_tenths
        assert not np.any(offsets % config.resolution_tenths)

    def test_sorted_output_parses_back(self):
        rng = np.random.default_rng(8)
        config = tagio.BinningConfig()
        block = tagio.synthesize_tags(rng, 6.3, 0.56, config, windows=500)
        assert np.all(np.diff(block[1]) >= 0)
        buf = io.StringIO()
        tagio.write_tags([block], buf)
        assert joined(parse(buf.getvalue())) == joined([block])

    def test_histogram_matches_model(self):
        rng = np.random.default_rng(9)
        config = tagio.BinningConfig()
        block = tagio.synthesize_tags(rng, 6.3, 0.56, config, windows=100_000)
        hist = tagio.histogram(tagio.bin_counts([block], config, 100_000 * config.window_ns),
                               config.truncation)
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
        for energy in (-1.0, math.nan, math.inf):
            with pytest.raises(DomainError, match="energy must be finite"):
                tagio.synthesize_tags(rng, energy, 0.56, config, windows=1)


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

    def test_window_tenths_must_fit_int64(self):
        # the largest window whose tenths of a ns fit an int64 still bins
        widest = tagio.BinningConfig(window_ns=922337203685477580)
        block = (np.array([0, 1], np.uint8), np.array([5, 10**18]))
        assert tagio.bin_counts([block], widest).tolist() == [[1, 1]]
        with pytest.raises(DomainError, match="exceeds int64"):
            tagio.BinningConfig(window_ns=922337203685477581)
