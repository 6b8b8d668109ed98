"""Time-tagged photodetection ingestion and analysis.

Parses tag CSV streams, bins counts into fixed windows, builds joint
count histograms and compares them against theoretical distributions.

A tag stream is a list of blocks, each a pair of arrays: uint8 channels
(0 for the '+' port, 1 for '-') and int64 timestamps in integer tenths of
nanoseconds since stream start, so a 3.3 ns detector resolution
accumulates no drift over long streams; the on-disk format is decimal
nanoseconds with one optional decimal digit.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from .util import DomainError, check_budget

TAG_HEADER = "channel,timestamp_ns"
RESOLUTION_TENTHS = 33  # the detectors' timing resolution, 3.3 ns


class TagFormatError(DomainError):
    """Malformed or inconsistent tag input; carries the offending line."""

    def __init__(self, line_number, message):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")


@dataclass(frozen=True)
class BinningConfig:
    window_ns: int = 80_000
    truncation: int = 15

    def __post_init__(self):
        if self.window_ns <= 0:
            raise DomainError("window and resolution must be positive")
        if self.window_ns * 10 > np.iinfo(np.int64).max:
            raise DomainError(f"window of {self.window_ns} ns exceeds int64 in tenths of a ns")
        if self.window_ns * 10 < RESOLUTION_TENTHS:
            raise DomainError("window shorter than the timing resolution")
        if self.truncation < 1:
            raise DomainError("truncation must be >= 1")
        check_budget(8 * (self.truncation + 1) ** 2, f"--truncation {self.truncation}")

    @property
    def window_tenths(self):
        return self.window_ns * 10


_CHUNK_BYTES = 1 << 17  # sets the parse's memory: 4 MiB chunks doubled its peak
_MAX_DIGITS = 17  # integer digits of a timestamp, so that its tenths fit in int64
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
    at, last = rows[1:3, :len(starts)]
    byte, ch, tenth = rows[-1].view(np.uint8).reshape(8, -1)[:3, :len(starts)]
    ch, tenth = ch.view(bool), tenth.view(bool)  # uint8 arithmetic maps code only the parse runs
    peek = partial(buf.take, out=byte, mode="clip")  # into out=, a take is slow unless it clips
    ends -= peek(np.subtract(ends, 1, out=at)) == ord("\r")
    np.equal(peek(np.maximum(np.subtract(ends, 2, out=at), starts, out=at)), ord("."), out=tenth)
    np.subtract(np.subtract(ends, tenth, out=last), tenth, out=last)  # past the integer digits
    keep = np.equal(peek(starts), ord("0")) | np.equal(byte, ord("1"), out=ch)
    keep &= peek(np.minimum(np.add(starts, 1, out=at), ends, out=at)) == ord(",")
    digits = np.subtract(np.subtract(last, 2, out=at), starts, out=at)
    span = min(-(-int(digits.max(initial=0)) // 8), 3)  # the words each line reads
    keep &= (last >= 8 * span) & (digits >= 1) & (digits <= _MAX_DIGITS)  # from byte 0
    if not keep.any():
        return keep, ch.view(np.uint8), at
    v, spare = rows[3:3 + span, :len(starts)].view(np.uint64), last.view(np.uint64)
    # a view whose item j is the span words from byte j; a take from it would copy the chunk
    words = np.ndarray((len(buf) + 1 - 8 * span,), f"V{8 * span}", buf, 0, (1,))
    np.maximum(np.subtract(last, 8 * span, out=last), 0, out=last)
    for part in (slice(None, len(starts) // 2), slice(len(starts) // 2, None)):  # row-sized reads
        v[:, part] = words[last[part]].view(np.uint64).reshape(-1, span).T
    v ^= np.uint64(0x3030303030303030)  # eight "0" bytes: a digit byte is now 0-9
    for k in range(span):  # word k from the right holds digits - 8k, up to 8, and then 0s
        v[-1 - k] &= _FIELD.take(digits, out=spare, mode="clip")
        digits -= 8
    bad = np.bitwise_or(np.add(v[0], 0x7676767676767676, out=spare), v[0], out=at.view(np.uint64))
    for row in v[1:]:  # the top bit of a byte above 9: the sum's, or its own where the sum carries
        bad |= np.bitwise_or(np.add(row, 0x7676767676767676, out=spare), row, out=spare)
    for factor, shift, lanes in _JOIN:
        np.bitwise_and(np.right_shift(np.multiply(v, factor, out=v), shift, out=v), lanes, out=v)
    for k in range(1, span):  # Horner's rule, eight digits a word
        v[k] += np.multiply(v[k - 1], 10 ** 8, out=v[k - 1])
    ts = v[-1].view(np.int64)
    keep &= np.bitwise_and(bad, 0x8080808080808080, out=bad).view(np.int64) == 0
    keep &= (peek(np.subtract(ends, 1, out=at)) >= ord("0")) & (byte <= ord("9"))  # decimal digit
    last.fill(0)
    last.view(np.uint8)[::8] = byte  # each the low byte of an int64: no uint8-to-int64 cast
    np.multiply(np.subtract(last, ord("0"), out=last), tenth, out=last)  # or 0
    np.add(np.multiply(ts, 10, out=ts), last, out=ts)
    return keep, ch.view(np.uint8), ts


def parse_tags(source):
    """Parse a tag CSV file opened in binary mode, lazily: one checked block per
    chunk of about 128 KiB, the whole stream being `list(parse_tags(source))`.
    Requires the `channel,timestamp_ns` header (a file without it, even an
    empty one, is refused), channels in {0, 1}, and non-decreasing timestamps;
    the first violation raises, naming its line, after the blocks before it.
    Lines [01],[0-9]{1,17}(.[0-9])? (LF or CRLF) decode together in numpy, eight
    digits a word (_decode), any other one by one, in rows made once per stream."""
    if not hasattr(source, "readinto"):
        raise DomainError(f"tags are read from a binary file; a {type(source).__name__} "
                          "has no readinto")
    read, chunk, held = source.readinto, _CHUNK_BYTES, 0
    buf = np.empty(chunk, np.uint8)
    rows, previous, number, saw_header = np.empty((0, 0)), -1, 0, False
    while (size := read(memoryview(buf)[held:chunk if held < chunk else held + chunk])) or held:
        if not size:  # the last line, without its newline
            buf[held], size = ord("\n"), 1
        held += size
        ends = np.flatnonzero(buf[:held] == ord("\n"))
        if not len(ends):
            if held == len(buf):  # one line fills the buffer
                buf = np.concatenate((buf, buf))
            continue
        cut, n = int(ends[-1]) + 1, len(ends)
        if rows.shape[1] < n:  # per line: start, 2 of scratch, 3 words, 8 byte lanes
            rows = np.zeros((7, n * 9 // 8), np.int64)
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
        del block, ends  # so that the next chunk's parse holds neither
    if not saw_header:
        raise TagFormatError(number + 1, f"expected header {TAG_HEADER!r}, found none")


def bin_counts(blocks, config):
    """Group the tags of (channels, tenths) blocks into consecutive windows of window_ns,
    from time 0 to the last tag's: an (n_windows, 2) int64 array of per-window (k_plus,
    k_minus) counts, clamped at the truncation."""
    runs = []
    n_windows, _ = _windows(blocks, config, lambda *run: runs.append(run))
    counts = np.zeros((n_windows, 2), dtype=np.int64)
    for index, run in runs:
        counts[index] = run
    return np.minimum(counts, config.truncation)


def tally(blocks, config):
    """One pass over (channels, tenths) blocks, as parse_tags yields them, storing no
    window or block: (histogram(bin_counts(...), truncation), the tag count)."""
    counts = np.zeros((config.truncation + 1,) * 2, np.int64)
    n_windows, tags = _windows(blocks, config, lambda _, run: np.add(
        counts, histogram(run, config.truncation), out=counts))
    counts[0, 0] += n_windows - counts.sum()  # the empty windows
    return counts, tags


def _windows(blocks, config, visit):
    """visit(indices, unclamped (k_plus, k_minus) counts) of the occupied windows, block by
    block; returns the window and tag counts, windows ending at the last tag's.
    Refuses a block whose channels are not 0 or 1, one to a timestamp, with a timestamp
    below 0, or whose windows go back in time, within it or to one already counted."""
    window = config.window_tenths
    index, tail, tags = -1, np.zeros((1, 2), np.int64), 0  # the open window (none yet)
    work = np.empty((3, 0), np.int64)  # w, run bounds and opens, kept for the call
    for ch, ts in blocks:
        if ch.shape != ts.shape or ch.max(initial=0) > 1 or ch.min(initial=0) < 0:
            raise DomainError("tag blocks need channels 0 or 1, one to a timestamp")
        tags += len(ts)
        if work.shape[1] < len(ts) + 2:
            work = np.zeros((3, len(ts) * 9 // 8 + 2), np.int64)  # ends[0] stays 0
        w = np.floor_divide(ts, window, out=work[0, :len(ts)])
        if len(w) and w[0] < 0:  # a sorted block's first tag is its earliest
            raise DomainError("tag blocks need timestamps >= 0")
        opens = work[2].view(bool)[:len(w)]  # tag i starts a run of its window
        if len(w) and w[0] < index or np.less(w[1:], w[:-1], out=opens[1:]).any():
            raise DomainError("tag blocks go back in time")  # windows are runs of sorted tags
        np.not_equal(w[1:], w[:-1], out=opens[1:])
        opens[:1] = w[:1] != index
        # run bounds: run 0 continues the open window, and is empty if tag 0 opens one
        ends = work[1, :np.count_nonzero(opens) + 2]
        ends[1:-1], ends[-1] = np.flatnonzero(opens), len(w)
        counts, empty = np.zeros((len(ends) - 1, 2), np.int64), int(ends[1] == 0)
        # channels are 0 or 1; an empty run 0 is left out, as reduceat would give it a tag
        np.add.reduceat(ch != 0, ends[empty:-1], dtype=np.int64, out=counts[empty:, 1])
        np.subtract(np.diff(ends), counts[:, 1], out=counts[:, 0])
        counts[:1] += tail
        runs = np.concatenate(([index], w[ends[1:-1]]))  # each run's window
        first = int(index < 0)  # before the first tag, run 0 has no window
        visit(runs[first:-1], counts[first:-1])
        index, tail = int(runs[-1]), counts[-1:]
        del ch, ts  # nor the block, while the next one is parsed
    if index >= 0:
        visit(np.array([index]), tail)
    return index + 1, tags  # no windows if no tag


def histogram(outcomes, truncation):
    """The (K+1) x (K+1) int64 table of observed (k, k') multiplicities;
    counts above the truncation fold into the K-th bucket."""
    outcomes = np.asarray(outcomes, dtype=np.int64).reshape(-1, 2)
    if np.any(outcomes < 0):
        raise DomainError("negative count in outcomes")
    outcomes = np.minimum(outcomes, truncation)
    size = truncation + 1
    flat = np.bincount(outcomes[:, 0] * size + outcomes[:, 1], minlength=size * size)
    return flat.reshape(size, size)


@dataclass(frozen=True)
class ComparisonResult:
    """A count table against a theoretical distribution.

    fraction_within_2 counts occupied cells whose residual
    N_kk' - total * P_kk', divided by sqrt(max(N_kk', 1)), has magnitude
    <= 2; tv_distance is the total variation distance between the
    empirical frequencies and theory.
    """

    fraction_within_2: float
    tv_distance: float


def compare_to_theory(table, theory):
    """Residual analysis of a (K+1) x (K+1) count table against a model."""
    if table.shape != theory.probs.shape:
        raise DomainError("histogram and theory truncations differ")
    total = int(table.sum())
    if total <= 0:
        raise DomainError("empty histogram cannot be compared")
    counts = table.astype(float)
    residuals = counts - total * theory.probs
    normalized = residuals / np.sqrt(np.maximum(counts, 1.0))
    occupied = table > 0
    within = np.abs(normalized[occupied]) <= 2.0
    fraction = float(within.mean()) if occupied.any() else 1.0
    tv = 0.5 * float(np.abs(counts / total - theory.probs).sum())
    return ComparisonResult(fraction, tv)
