"""Time-tagged photodetection ingestion and analysis.

Parses tag CSV streams, bins counts into fixed windows, builds joint
count histograms, compares them against theoretical distributions, and
synthesizes tag streams from the random-phase model for end-to-end
checks.

Timestamps are stored internally as integer tenths of nanoseconds so a
3.3 ns detector resolution accumulates no drift over long streams; the
on-disk format is decimal nanoseconds with one optional decimal digit.
"""

import io
import math
from dataclasses import dataclass, field

import numpy as np

from .util import DomainError

TWO_PI = 2.0 * math.pi

TAG_HEADER = "channel,timestamp_ns"


class TagFormatError(DomainError):
    """Malformed or inconsistent tag input; carries the offending line."""

    def __init__(self, line_number, message):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")


@dataclass(frozen=True)
class BinningConfig:
    window_ns: int = 80_000
    resolution_tenths: int = 33  # 3.3 ns
    truncation: int = 15

    def __post_init__(self):
        if self.window_ns <= 0 or self.resolution_tenths <= 0:
            raise DomainError("window and resolution must be positive")
        if self.window_ns * 10 > np.iinfo(np.int64).max:
            raise DomainError(f"window of {self.window_ns} ns exceeds int64 in tenths of a ns")
        if self.window_ns * 10 < self.resolution_tenths:
            raise DomainError("window shorter than the timing resolution")
        if self.truncation < 1:
            raise DomainError("truncation must be >= 1")

    @property
    def window_tenths(self):
        return self.window_ns * 10


class TagStream:
    """A time-sorted detection stream in blocks of uint8 channels (0 for the '+'
    port, 1 for '-') and int64 timestamps in tenths of ns since stream start."""

    def __init__(self, channels, timestamps_tenths, duration_tenths=None, *, blocks=None):
        self.blocks = blocks or [(np.asarray(channels, dtype=np.uint8),
                                  np.asarray(timestamps_tenths, dtype=np.int64))]
        ends = [t for _, ts in self.blocks if len(ts) for t in (ts[0], ts[-1])]
        if any(ch.shape != ts.shape or ch.max(initial=0) > 1 or (ts[1:] < ts[:-1]).any()
               for ch, ts in self.blocks) or np.any(np.diff(ends) < 0):  # windows are sorted runs
            raise DomainError("channels must be 0 or 1, one to a timestamp, in time order")
        self.duration_tenths = duration_tenths

    channels = property(lambda self: np.concatenate([ch for ch, _ in self.blocks]))
    timestamps_tenths = property(lambda self: np.concatenate([ts for _, ts in self.blocks]))

    def __len__(self):
        return sum(len(ts) for _, ts in self.blocks)


_CHUNK_BYTES = 1 << 18  # sets the parse's memory: 4 MiB chunks doubled its peak
_MAX_DIGITS = 17  # integer digits of a timestamp, so that its tenths fit in int64
_ZEROS = np.uint64(0x3030303030303030)  # eight "0" bytes
_FIELD = np.array([(1 << 64) - (1 << 64 - 8 * n) for n in range(9)], np.uint64)  # top n bytes
# the steps that join a word's eight 0-9 bytes: lanes of 1, 2 then 4 digits,
# each times its power of ten plus the next, into lanes of twice as many
_JOIN = [(10 << 8 | 1, 8, 0x00FF00FF00FF00FF), (100 << 16 | 1, 16, 0x0000FFFF0000FFFF),
         (10000 << 32 | 1, 32, 0x00000000FFFFFFFF)]


def _parse_line(raw, line_number, expect_header=False):
    """One line (bytes, no newline): None if blank, the header where one is
    expected, else (channel, tenths). It defines the format and every error."""
    try:
        line = raw.decode("utf-8").strip()
    except UnicodeDecodeError:
        raise TagFormatError(line_number, "not valid UTF-8") from None
    if expect_header or not line:
        if line and line != TAG_HEADER:
            raise TagFormatError(line_number, f"expected header {TAG_HEADER!r}")
        return line or None
    parts = line.split(",")
    if len(parts) != 2:
        raise TagFormatError(line_number, f"expected 2 fields, got {len(parts)}")
    channel, text = parts
    if channel.strip() not in ("0", "1"):
        raise TagFormatError(line_number, f"channel {channel!r} not in {{0, 1}}")
    whole, dot, frac = text.strip().partition(".")
    if not (whole.isascii() and whole.isdigit() and len(whole) <= _MAX_DIGITS):
        raise TagFormatError(line_number, f"bad timestamp {text!r}")
    if dot and not (len(frac) == 1 and frac.isascii() and frac.isdigit()):
        raise TagFormatError(line_number, f"timestamp {text!r} needs exactly one decimal digit")
    return int(channel), int(whole) * 10 + int(frac or 0)


def _chunks(source):
    """The source as bytes in pieces of whole lines of about _CHUNK_BYTES."""
    if not hasattr(source, "read"):  # an iterable of str or bytes lines
        source = io.BytesIO(b"".join((line.encode("utf-8") if isinstance(line, str) else line)
                                     .rstrip(b"\n") + b"\n" for line in source))
    tail = b""
    while piece := source.read(_CHUNK_BYTES):
        data = tail + (piece.encode("utf-8") if isinstance(piece, str) else piece)
        cut = data.rfind(b"\n") + 1
        data, tail = data[:cut], data[cut:]  # one copy of the chunk stays while it is parsed
        yield data
    yield tail + b"\n" if tail else b""


def _decode(data, buf, starts, ends, spare):
    """The chunk's lines in numpy: whether each is [01],[0-9]{1,17}(.[0-9])?
    with no word of its digits starting before the chunk, its channel and
    its tenths (junk where it is not). The integer digits are read as the
    little-endian 8-byte words that end at the last one, and each word's
    eight are checked and joined in a few integer steps (SWAR). `spare`
    holds at least three uint64 a line, which the check overwrites."""
    tenth = buf[np.maximum(ends - 2, starts)] == ord(".")
    last = ends - 2 * tenth  # one past the last integer digit
    digits = last - starts - 2
    ch = buf[starts] - ord("0")  # uint8: a byte below "0" wraps above 1
    frac = (buf[ends - 1] - ord("0")) * tenth  # the decimal digit, or 0
    span = min(-(-int(digits.max(initial=0)) // 8), 3)  # the words each line reads
    keep = ((ch <= 1) & (buf[np.minimum(starts + 1, ends)] == ord(","))
            & (digits >= 1) & (digits <= _MAX_DIGITS) & (frac <= 9)
            & (last >= 8 * span))  # a chunk can be shorter than one word
    if not keep.any():
        return keep, ch, np.zeros(len(starts), np.int64)
    # a view, not a copy: its j-th item is the span words from byte j of the chunk
    words = np.ndarray((len(data) - 8 * span + 1,), f"V{8 * span}", data, 0, (1,))
    v = words[np.maximum(last - 8 * span, 0)].view("<u8").reshape(-1, span)
    v ^= _ZEROS  # a digit byte is now 0-9
    for k in range(span):  # the k-th word from the right holds digits - 8k of them, up to 8
        v[:, -1 - k] &= _FIELD.take(digits - 8 * k, mode="clip")  # and a byte before them 0
    bad = np.add(v, 0x7676767676767676, out=spare[:v.size].reshape(v.shape))
    bad |= v  # the top bit of each byte above 9: the sum's, or its own where the sum carries
    for factor, shift, lanes in _JOIN:  # in place: a fresh array costs page faults
        v *= factor
        v >>= shift
        v &= lanes
    ts = v[:, -1].view(np.int64)
    for k in range(1, span):
        v[:, -1 - k] *= 10 ** (8 * k)
        ts += v[:, -1 - k].view(np.int64)
        bad[:, -1] |= bad[:, -1 - k]
    keep &= (bad[:, -1] & 0x8080808080808080) == 0
    ts *= 10
    ts += frac
    return keep, ch, ts


def parse_tags(source):
    """Parse a tag CSV stream, a binary or text file object read in chunks of
    about 256 KiB or an iterable of str or bytes lines, lazily: one checked
    (uint8 channels, int64 tenths) block per chunk, the whole stream being
    `TagStream(None, None, blocks=list(parse_tags(source)))`. Requires the
    `channel,timestamp_ns` header (a file without it, even an empty one, is
    refused), channels in {0, 1}, and non-decreasing timestamps; the first
    violation raises, naming its line, after the blocks before it. Lines
    [01],[0-9]{1,17}(.[0-9])? (LF or CRLF) decode together in numpy, eight
    digits a word (_decode), any other one by one."""
    previous, number, saw_header, spare = -1, 0, False, np.empty(0, np.uint64)
    for data in _chunks(source):
        buf = np.frombuffer(data, np.uint8)
        ends = np.flatnonzero(buf == ord("\n"))
        starts = np.concatenate(([0], ends + 1))[:-1]
        ends = ends - (buf[ends - 1] == ord("\r"))  # a CRLF line's content ends at the CR
        while not saw_header and len(ends):
            number += 1
            saw_header = bool(_parse_line(data[starts[0]:ends[0]], number, expect_header=True))
            starts, ends = starts[1:], ends[1:]
        if len(spare) < 3 * len(starts):  # reused from chunk to chunk, as it is big
            spare = np.empty(3 * len(starts), np.uint64)
        keep, ch, ts = _decode(data, buf, starts, ends, spare)
        error = None
        for i in np.flatnonzero(~keep):  # the lines outside the grammar, one by one
            try:
                record = _parse_line(data[starts[i]:ends[i]], number + 1 + int(i))
            except TagFormatError as exc:
                keep[i:], error = False, exc
                break
            if record:
                keep[i] = True
                ch[i], ts[i] = record
        down = np.flatnonzero(np.diff(ts[keep], prepend=previous) < 0)
        if down.size:  # a decrease before the first bad line is the first offence
            raise TagFormatError(number + 1 + int(np.flatnonzero(keep)[down[0]]),
                                 "timestamps decrease")
        if error is not None:
            raise error
        block = ch[keep], ts[keep]
        previous = block[1][-1] if keep.any() else previous
        number += len(ends)
        del starts, ends, ch, ts, keep  # free the chunk's arrays while the caller has the block
        yield block
    if not saw_header:
        raise TagFormatError(number + 1, f"expected header {TAG_HEADER!r}, found none")


def write_tags(stream, out):
    """Write a tag stream in the CSV format accepted by parse_tags."""
    out.write(TAG_HEADER + "\n")
    for ch, ts in zip(stream.channels, stream.timestamps_tenths):
        out.write(f"{ch},{ts // 10}.{ts % 10}\n")


def bin_counts(stream, config, duration_ns=None):
    """Group tags into consecutive windows of window_ns.

    Returns an (n_windows, 2) integer array of per-window (k_plus,
    k_minus) counts, clamped at the truncation. With an explicit
    duration the final partial window is discarded; otherwise the
    window containing the last tag closes the stream (the stream's own
    recorded duration, if any, takes precedence).
    """
    duration = stream.duration_tenths if duration_ns is None else int(duration_ns * 10)
    runs = []
    n_windows, _ = _windows(stream.blocks, config, duration, lambda *run: runs.append(run))
    counts = np.zeros((n_windows, 2), dtype=np.int64)
    for index, run in runs:
        counts[index] = run
    return np.minimum(counts, config.truncation)


def tally(blocks, config, duration_ns=None):
    """One pass over (channels, tenths) blocks, as parse_tags yields them, storing no
    window or block: (histogram(bin_counts(...), truncation), the tag count)."""
    counts = np.zeros((config.truncation + 1,) * 2, np.int64)
    duration = None if duration_ns is None else int(duration_ns * 10)
    n_windows, tags = _windows(blocks, config, duration, lambda _, run: np.add(
        counts, histogram(run, config.truncation).counts, out=counts))
    counts[0, 0] += n_windows - counts.sum()  # the empty windows
    return EmpiricalHistogram(config.truncation, counts), tags


def _windows(blocks, config, duration, visit):
    """visit(indices, unclamped (k_plus, k_minus) counts) of the occupied windows, block by
    block; returns the window and tag counts, windows ending at the last tag's if no duration."""
    window = config.window_tenths
    cut = np.iinfo(np.int64).max if duration is None else duration // window
    index, tail, tags = -1, np.zeros((1, 2), np.int64), 0  # the open window (none yet)
    for ch, ts in blocks:
        tags += len(ts)
        w = ts // window
        if len(w) and w[0] < index:  # its first run would reopen a window already counted
            raise DomainError("tag blocks go back in time")
        opens = np.empty(len(w), bool)  # tag i starts a run of its window
        np.not_equal(w[1:], w[:-1], out=opens[1:])
        opens[:1] = w[:1] != index
        # run bounds: run 0 continues the open window, and is empty if tag 0 opens one
        ends = np.zeros(np.count_nonzero(opens) + 2, np.int64)
        ends[1:-1], ends[-1] = np.flatnonzero(opens), len(w)
        minus = np.zeros(len(w) + 1, np.int64)
        np.cumsum(ch, dtype=np.int64, out=minus[1:])  # channels are 0 or 1
        counts = np.empty((len(ends) - 1, 2), np.int64)
        np.subtract(minus[ends[1:]], minus[ends[:-1]], out=counts[:, 1])
        np.subtract(np.diff(ends), counts[:, 1], out=counts[:, 0])
        counts[:1] += tail
        runs = np.empty(len(counts), np.int64)  # each run's window
        runs[0], runs[1:] = index, w[ends[1:-1]]
        keep = (runs[:-1] >= 0) & (runs[:-1] < cut)
        visit(runs[:-1][keep], counts[:-1][keep])
        index, tail = int(runs[-1]), counts[-1:]
        del w, opens, minus  # one tag long: freed before the next block is parsed
    n_windows = index + 1 if duration is None else cut  # 0 if no tag
    if 0 <= index < n_windows:
        visit(np.array([index]), tail)
    return n_windows, tags


@dataclass(frozen=True)
class EmpiricalHistogram:
    """Integer (K+1) x (K+1) table of observed (k, k') multiplicities."""

    truncation: int
    counts: np.ndarray = field(repr=False)

    @property
    def total(self):
        return int(self.counts.sum())


def histogram(outcomes, truncation):
    """Tally outcomes into an empirical joint histogram; counts above
    the truncation fold into the K-th bucket."""
    outcomes = np.asarray(outcomes, dtype=np.int64).reshape(-1, 2)
    if np.any(outcomes < 0):
        raise DomainError("negative count in outcomes")
    outcomes = np.minimum(outcomes, truncation)
    size = truncation + 1
    flat = np.bincount(outcomes[:, 0] * size + outcomes[:, 1], minlength=size * size)
    return EmpiricalHistogram(truncation, flat.reshape(size, size))


@dataclass(frozen=True)
class ComparisonResult:
    """Per-cell residuals against a theoretical distribution.

    residuals holds N_kk' - total * P_kk'; normalized divides by
    sqrt(max(N_kk', 1)). fraction_within_2 counts occupied cells whose
    normalized residual has magnitude <= 2; tv_distance is the total
    variation distance between the empirical frequencies and theory.
    """

    residuals: np.ndarray = field(repr=False)
    normalized: np.ndarray = field(repr=False)
    fraction_within_2: float
    tv_distance: float


def compare_to_theory(hist, theory):
    """Residual analysis of an empirical histogram against a model."""
    if hist.truncation != theory.truncation:
        raise DomainError("histogram and theory truncations differ")
    if hist.total <= 0:
        raise DomainError("empty histogram cannot be compared")
    counts = hist.counts.astype(float)
    expected = hist.total * theory.probs
    residuals = counts - expected
    normalized = residuals / np.sqrt(np.maximum(counts, 1.0))
    occupied = hist.counts > 0
    within = np.abs(normalized[occupied]) <= 2.0
    fraction = float(within.mean()) if occupied.any() else 1.0
    tv = 0.5 * float(np.abs(counts / hist.total - theory.probs).sum())
    return ComparisonResult(residuals, normalized, fraction, tv)


def synthesize_tags(rng, energy_per_window, vis_magnitude, config, windows):
    """Generate a synthetic tag stream from the random-phase model.

    Per window: a fresh uniform global phase, Poisson counts at the two
    port intensities (unclamped; binning applies the truncation), each
    count placed at a uniform multiple of the timing resolution inside
    the window. The stream records its duration, so bin_counts
    round-trips the exact per-window counts.
    """
    if windows < 1:
        raise DomainError("windows must be >= 1")
    if energy_per_window < 0.0:
        raise DomainError("energy must be >= 0")
    if not 0.0 <= vis_magnitude <= 1.0:
        raise DomainError("visibility magnitude must lie in [0, 1]")
    window = config.window_tenths
    slots = window // config.resolution_tenths

    phases = rng.uniform(0.0, TWO_PI, windows)
    i_plus = energy_per_window * (1.0 + vis_magnitude * np.cos(phases)) / 2.0
    counts = np.empty((windows, 2), dtype=np.int64)
    counts[:, 0] = rng.poisson(i_plus)
    counts[:, 1] = rng.poisson(energy_per_window - i_plus)

    parts = []
    for channel in (0, 1):
        n = int(counts[:, channel].sum())
        window_of_tag = np.repeat(np.arange(windows, dtype=np.int64), counts[:, channel])
        offsets = rng.integers(0, slots, size=n) * config.resolution_tenths
        ts = window_of_tag * window + offsets
        parts.append((np.full(n, channel, dtype=np.uint8), ts))
    channels = np.concatenate([p[0] for p in parts])
    timestamps = np.concatenate([p[1] for p in parts])
    order = np.lexsort((channels, timestamps))
    return TagStream(channels[order], timestamps[order],
                     duration_tenths=windows * window)
