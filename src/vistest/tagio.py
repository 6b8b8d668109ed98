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
HISTOGRAM_HEADER = "k,kprime,count"


class TagFormatError(ValueError):
    """Malformed or inconsistent tag input; carries the offending line."""

    def __init__(self, line_number, message):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")


@dataclass(frozen=True)
class TagRecord:
    """A single detection: channel 0 ('+' port) or 1 ('-' port) and a
    timestamp in tenths of nanoseconds since stream start."""

    channel: int
    timestamp_tenths: int

    @property
    def timestamp_ns(self):
        return self.timestamp_tenths / 10.0


@dataclass(frozen=True)
class BinningConfig:
    window_ns: int = 80_000
    resolution_tenths: int = 33  # 3.3 ns
    truncation: int = 15

    def __post_init__(self):
        if self.window_ns <= 0 or self.resolution_tenths <= 0:
            raise DomainError("window and resolution must be positive")
        if self.window_ns * 10 < self.resolution_tenths:
            raise DomainError("window shorter than the timing resolution")
        if self.truncation < 1:
            raise DomainError("truncation must be >= 1")

    @property
    def window_tenths(self):
        return self.window_ns * 10


class TagStream:
    """A time-sorted detection record stream in blocks of uint8 channels, int64 tenths."""

    def __init__(self, channels, timestamps_tenths, duration_tenths=None, *, blocks=None):
        self.blocks = blocks or [(np.asarray(channels, dtype=np.uint8),
                                  np.asarray(timestamps_tenths, dtype=np.int64))]
        if any(ch.shape != ts.shape or ch.max(initial=0) > 1 or (ts[1:] < ts[:-1]).any()
               for ch, ts in self.blocks):  # the windows are found as runs of sorted tags
            raise DomainError("channels must be 0 or 1, one to a timestamp, in time order")
        self.duration_tenths = duration_tenths

    channels = property(lambda self: np.concatenate([ch for ch, _ in self.blocks]))
    timestamps_tenths = property(lambda self: np.concatenate([ts for _, ts in self.blocks]))

    def __len__(self):
        return sum(len(ts) for _, ts in self.blocks)

    def __iter__(self):
        for ch, ts in self.blocks:
            yield from map(TagRecord, ch.tolist(), ts.tolist())


_CHUNK_BYTES = 1 << 18  # sets the parse's memory: 4 MiB chunks doubled its peak
_MAX_DIGITS = 17  # integer digits of a timestamp, so that its tenths fit in int64


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
        head, newline, tail = data.rpartition(b"\n")
        yield head + newline
    yield tail + b"\n" if tail else b""


def parse_tags(source):
    """Parse a tag CSV stream: a binary or text file object, read in chunks
    of about 256 KiB, or an iterable of str or bytes lines. Requires the
    `channel,timestamp_ns` header (a file without it, even an empty one, is
    refused), channels in {0, 1}, and non-decreasing timestamps; the first
    violation in the file reports its line. Lines [01],[0-9]{1,17}(.[0-9])?
    (LF or CRLF) decode together in numpy, any other one by one. Each chunk's
    tags stay one block of the stream: none is copied whole."""
    parts, previous, number, saw_header = [], -1, 0, False
    for data in _chunks(source):
        buf = np.frombuffer(data, np.uint8)
        ends = np.flatnonzero(buf == ord("\n"))
        starts = np.concatenate(([0], ends + 1))[:-1]
        ends = ends - (buf[ends - 1] == ord("\r"))  # a CRLF line's content ends at the CR
        while not saw_header and len(ends):
            number += 1
            saw_header = bool(_parse_line(data[starts[0]:ends[0]], number, expect_header=True))
            starts, ends = starts[1:], ends[1:]
        tenth = buf[np.maximum(ends - 2, starts)] == ord(".")
        digits = ends - starts - 2 - 2 * tenth
        ch = buf[starts] - ord("0")  # uint8: a byte below "0" wraps above 1
        keep = ((ch <= 1) & (buf[np.minimum(starts + 1, ends)] == ord(","))
                & (np.add.reduceat((buf - ord("0")) <= 9, starts, dtype=np.int32)
                   == ends - starts - 1 - tenth)  # all digits but the comma and the dot
                & (digits >= 1) & (digits <= _MAX_DIGITS))
        lead, count, whole = starts[keep] + 2, digits[keep], np.zeros(keep.sum(), np.int64)
        for column in range(count.max(initial=0)):  # Horner, one digit column a pass
            step = whole * 10 + (buf[np.minimum(lead + column, lead + count - 1)] - ord("0"))
            whole = np.where(column < count, step, whole)
        ts = np.zeros(len(starts), np.int64)
        ts[keep] = whole * 10 + np.where(tenth[keep], buf[ends[keep] - 1] - ord("0"), 0)
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
        parts.append((ch[keep], ts[keep]))
        previous = ts[keep][-1] if keep.any() else previous
        number += len(ends)
    if not saw_header:
        raise TagFormatError(number + 1, f"expected header {TAG_HEADER!r}, found none")
    return TagStream(None, None, blocks=parts)


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
    n_windows, runs = _windows(stream, config, duration_ns)
    counts = np.zeros((n_windows, 2), dtype=np.int64)
    for index, run in runs:
        counts[index] = run
    return np.minimum(counts, config.truncation)


def tally(stream, config, duration_ns=None):
    """histogram(bin_counts(stream, config, duration_ns), truncation), storing no empty window."""
    n_windows, runs = _windows(stream, config, duration_ns)
    counts = np.zeros((config.truncation + 1,) * 2, np.int64)
    for index, run in runs:
        counts += histogram(run, config.truncation).counts
        counts[0, 0] -= len(index)
    counts[0, 0] += n_windows  # the empty windows
    return EmpiricalHistogram(config.truncation, counts)


def _windows(stream, config, duration_ns):
    """bin_counts' window count, and the occupied windows block by block: indices
    and unclamped (k_plus, k_minus) counts, the open one carried across blocks."""
    window = config.window_tenths
    duration = stream.duration_tenths if duration_ns is None else int(duration_ns * 10)
    last = max((int(ts[-1]) for _, ts in stream.blocks if len(ts)), default=-1)
    n_windows = last // window + 1 if duration is None else duration // window  # 0 if no tag

    def runs():
        index, tail = -1, np.zeros((1, 2), np.int64)  # the open window (none yet), its counts
        for ch, ts in stream.blocks:
            w = ts // window
            ends = np.r_[0, np.flatnonzero(w != np.r_[index, w[:-1]]), len(w)]  # run bounds
            minus = np.diff(np.r_[0, np.cumsum(ch, dtype=np.int64)][ends])  # channels are 0 or 1
            counts = np.c_[np.diff(ends) - minus, minus]
            counts[:1] += tail  # run 0 continues the open window
            index = np.r_[index, w[ends[1:-1]]]
            keep = (index[:-1] >= 0) & (index[:-1] < n_windows)
            yield index[:-1][keep], counts[:-1][keep]
            index, tail = index[-1], counts[-1:]
        if 0 <= index < n_windows:
            yield np.array([index]), tail

    return n_windows, runs()


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


def histogram_to_csv(hist, out):
    out.write(HISTOGRAM_HEADER + "\n")
    for k in range(hist.truncation + 1):
        for kp in range(hist.truncation + 1):
            out.write(f"{k},{kp},{hist.counts[k, kp]}\n")


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
