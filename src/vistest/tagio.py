"""Time-tagged photodetection ingestion and analysis.

Parses tag CSV streams, bins counts into fixed windows, builds joint
count histograms, compares them against theoretical distributions, and
synthesizes tag streams from the random-phase model for end-to-end
checks.

A tag stream is a list of blocks, each a pair of arrays: uint8 channels
(0 for the '+' port, 1 for '-') and int64 timestamps in integer tenths of
nanoseconds since stream start, so a 3.3 ns detector resolution
accumulates no drift over long streams; the on-disk format is decimal
nanoseconds with one optional decimal digit.
"""

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


_CHUNK_BYTES = 1 << 17  # sets the parse's memory: 4 MiB chunks doubled its peak
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


def _decode(buf, starts, ends, rows):
    """Whether each of the chunk's lines is [01],[0-9]{1,17}(.[0-9])? with no word
    of its digits before the chunk, its channel and its tenths (junk where it is
    not), in rows of the parse's working set; a CRLF line's end moves to its CR.
    The integer digits are read as the little-endian 8-byte words that end at the
    last one, each word's eight checked and joined in a few integer steps (SWAR)."""
    at, last, digits = rows[1:4, :len(starts)]
    ch, frac, byte, tenth = rows[10].view(np.uint8).reshape(8, -1)[:4, :len(starts)]
    # a take into out= is buffered, and slow, unless its mode is "clip"
    ends -= buf.take(np.subtract(ends, 1, out=at), out=byte, mode="clip") == ord("\r")
    buf.take(np.maximum(np.subtract(ends, 2, out=at), starts, out=at), out=byte, mode="clip")
    np.equal(byte, ord("."), out=tenth)
    np.subtract(ends, 2 * tenth, out=last)  # one past the last integer digit
    np.subtract(np.subtract(last, 2, out=digits), starts, out=digits)
    np.subtract(buf.take(starts, out=ch, mode="clip"), ord("0"), out=ch)  # "/" wraps to 255
    np.subtract(buf.take(np.subtract(ends, 1, out=at), out=frac, mode="clip"), ord("0"), out=frac)
    frac *= tenth  # the decimal digit, or 0
    span = min(-(-int(digits.max(initial=0)) // 8), 3)  # the words each line reads
    buf.take(np.minimum(np.add(starts, 1, out=at), ends, out=at), out=byte, mode="clip")
    keep = ((ch <= 1) & (byte == ord(",")) & (frac <= 9) & (last >= 8 * span)  # from byte 0
            & (np.subtract(digits, 1, out=at).view(np.uint64) < _MAX_DIGITS))  # 1 to 17 digits
    if not keep.any():
        return keep, ch, at
    words = np.ndarray((len(buf) - 7,), "<u8", buf, 0, (1,))  # a view: item j is bytes j to j + 7
    v, bad = (rows[k:k + span, :len(starts)].view(np.uint64) for k in (4, 7))
    np.maximum(np.subtract(last, 8 * span, out=at), 0, out=at)
    for row in v:  # one word a line at a time: a take from the view would copy the chunk
        row[...] = words[at]
        at += 8
    v ^= _ZEROS  # a digit byte is now 0-9
    for k in range(span):  # word k from the right holds digits - 8k, up to 8, and then 0s
        v[-1 - k] &= _FIELD.take(np.subtract(digits, 8 * k, out=at), out=bad[0], mode="clip")
    np.add(v, 0x7676767676767676, out=bad)
    bad |= v  # the top bit of each byte above 9: the sum's, or its own where the sum carries
    for factor, shift, lanes in _JOIN:
        v *= factor
        v >>= shift
        v &= lanes
    ts = v[-1].view(np.int64)
    for k in range(1, span):
        v[-1 - k] *= 10 ** (8 * k)
        ts += v[-1 - k].view(np.int64)
        bad[-1] |= bad[-1 - k]
    keep &= (bad[-1] & 0x8080808080808080) == 0
    np.add(np.multiply(ts, 10, out=ts), frac, out=ts)
    return keep, ch, ts


def parse_tags(source):
    """Parse a tag CSV file opened in binary mode, lazily: one checked block per
    chunk of about 128 KiB, the whole stream being `list(parse_tags(source))`.
    Requires the `channel,timestamp_ns` header (a file without it, even an
    empty one, is refused), channels in {0, 1}, and non-decreasing timestamps;
    the first violation raises, naming its line, after the blocks before it.
    Lines [01],[0-9]{1,17}(.[0-9])? (LF or CRLF) decode together in numpy, eight
    digits a word (_decode), any other one by one, in arrays made once per stream."""
    if not hasattr(source, "readinto"):
        raise DomainError(f"tags are read from a binary file; a {type(source).__name__} "
                          "has no readinto")
    read, chunk, held = source.readinto, _CHUNK_BYTES, 0
    buf, newline = np.empty(chunk, np.uint8), np.empty(chunk, bool)
    rows, previous, number, saw_header = np.empty((0, 0)), -1, 0, False
    while (size := read(memoryview(buf)[held:chunk if held < chunk else held + chunk])) or held:
        if not size:  # the last line, without its newline
            buf[held], size = ord("\n"), 1
        held += size
        ends = np.flatnonzero(np.equal(buf[:held], ord("\n"), out=newline[:held]))
        if not len(ends):
            if held == len(buf):  # one line fills the buffer
                buf, newline = np.concatenate((buf, buf)), np.empty(2 * held, bool)
            continue
        cut, n = int(ends[-1]) + 1, len(ends)
        if rows.shape[1] < n:  # the per-line working set, with room for chunks to come
            rows = np.zeros((11, n * 9 // 8), np.int64)
        starts = rows[0, :n]  # starts[0] is never written: it stays 0
        np.add(ends[:-1], 1, out=starts[1:])
        while not saw_header and len(ends):
            number += 1
            saw_header = bool(_parse_line(bytes(buf[starts[0]:ends[0]]), number, True))
            starts, ends = starts[1:], ends[1:]
        keep, ch, ts = _decode(buf, starts, ends, rows)
        error = None
        for i in np.flatnonzero(~keep):  # the lines outside the grammar, one by one
            try:
                record = _parse_line(bytes(buf[starts[i]:ends[i]]), number + 1 + int(i))
            except TagFormatError as exc:
                keep[i:], error = False, exc
                break
            if record:
                keep[i] = True
                ch[i], ts[i] = record
        block = (ch.copy(), ts.copy()) if keep.all() else (ch[keep], ts[keep])
        if (block[1][:1] < previous).any() or (block[1][1:] < block[1][:-1]).any():
            down = np.flatnonzero(np.diff(block[1], prepend=previous) < 0)[0]
            raise TagFormatError(number + 1 + int(np.flatnonzero(keep)[down]),
                                 "timestamps decrease")  # before the first bad line, it is first
        if error is not None:
            raise error
        previous = block[1][-1] if len(block[1]) else previous
        number += len(ends)
        buf[:held - cut], held = buf[cut:held], held - cut  # the partial last line to the front
        yield block
    if not saw_header:
        raise TagFormatError(number + 1, f"expected header {TAG_HEADER!r}, found none")


def write_tags(blocks, out):
    """Write (channels, tenths) blocks to a text file in the CSV format parse_tags reads."""
    out.write(TAG_HEADER + "\n")
    for ch, ts in blocks:
        for c, t in zip(ch.tolist(), ts.tolist()):
            out.write(f"{c},{t // 10}.{t % 10}\n")


def bin_counts(blocks, config, duration_ns=None):
    """Group the tags of (channels, tenths) blocks into consecutive windows of window_ns.

    Returns an (n_windows, 2) integer array of per-window (k_plus,
    k_minus) counts, clamped at the truncation. With a duration the
    windows run to its last whole one, the final partial window being
    discarded; otherwise the window containing the last tag closes the
    stream.
    """
    runs = []
    n_windows, _ = _windows(blocks, config, duration_ns, lambda *run: runs.append(run))
    counts = np.zeros((n_windows, 2), dtype=np.int64)
    for index, run in runs:
        counts[index] = run
    return np.minimum(counts, config.truncation)


def tally(blocks, config, duration_ns=None):
    """One pass over (channels, tenths) blocks, as parse_tags yields them, storing no
    window or block: (histogram(bin_counts(...), truncation), the tag count)."""
    counts = np.zeros((config.truncation + 1,) * 2, np.int64)
    n_windows, tags = _windows(blocks, config, duration_ns, lambda _, run: np.add(
        counts, histogram(run, config.truncation).counts, out=counts))
    counts[0, 0] += n_windows - counts.sum()  # the empty windows
    return EmpiricalHistogram(config.truncation, counts), tags


def _windows(blocks, config, duration_ns, visit):
    """visit(indices, unclamped (k_plus, k_minus) counts) of the occupied windows, block by
    block; returns the window and tag counts, windows ending at the last tag's if no duration.
    Refuses a block whose channels are not 0 or 1, one to a timestamp, or whose windows go
    back in time, within it or to one already counted."""
    if duration_ns is not None and not 0 <= duration_ns * 10 <= np.iinfo(np.int64).max:
        raise DomainError(f"duration_ns = {duration_ns} must be >= 0 and fit int64 in "
                          "tenths of a ns")
    window = config.window_tenths
    cut = np.iinfo(np.int64).max if duration_ns is None else int(duration_ns * 10) // window
    index, tail, tags = -1, np.zeros((1, 2), np.int64), 0  # the open window (none yet)
    work = np.empty((4, 0), np.int64)  # w, minus, run bounds and opens, kept for the call
    for ch, ts in blocks:
        if ch.shape != ts.shape or ch.max(initial=0) > 1 or ch.min(initial=0) < 0:
            raise DomainError("tag blocks need channels 0 or 1, one to a timestamp")
        tags += len(ts)
        if work.shape[1] < len(ts) + 2:
            work = np.zeros((4, len(ts) * 9 // 8 + 2), np.int64)  # minus[0], ends[0] stay 0
        w = np.floor_divide(ts, window, out=work[0, :len(ts)])
        opens = work[3].view(bool)[:len(w)]  # tag i starts a run of its window
        if len(w) and w[0] < index or np.less(w[1:], w[:-1], out=opens[1:]).any():
            raise DomainError("tag blocks go back in time")  # windows are runs of sorted tags
        np.not_equal(w[1:], w[:-1], out=opens[1:])
        opens[:1] = w[:1] != index
        # run bounds: run 0 continues the open window, and is empty if tag 0 opens one
        ends = work[2, :np.count_nonzero(opens) + 2]
        ends[1:-1], ends[-1] = np.flatnonzero(opens), len(w)
        minus = work[1, :len(w) + 1]
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
    n_windows = index + 1 if duration_ns is None else cut  # 0 if no tag
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
    """An empirical histogram against a theoretical distribution.

    fraction_within_2 counts occupied cells whose residual
    N_kk' - total * P_kk', divided by sqrt(max(N_kk', 1)), has magnitude
    <= 2; tv_distance is the total variation distance between the
    empirical frequencies and theory.
    """

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
    return ComparisonResult(fraction, tv)


def synthesize_tags(rng, energy_per_window, vis_magnitude, config, windows):
    """Generate one (channels, tenths) block from the random-phase model.

    Per window: a fresh uniform global phase, Poisson counts at the two
    port intensities (unclamped; binning applies the truncation), each
    count placed at a uniform multiple of the timing resolution inside
    the window. bin_counts([block], config, windows * config.window_ns)
    round-trips the exact per-window counts, trailing empty windows too.
    """
    if windows < 1:
        raise DomainError("windows must be >= 1")
    if not 0.0 <= energy_per_window < math.inf:
        raise DomainError("energy must be finite and >= 0")
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
    return channels[order], timestamps[order]
