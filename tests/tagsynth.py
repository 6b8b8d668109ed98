"""Tag streams drawn from the random-phase model, and their CSV form, for
the tests and the CI workflow's ingest checks. It imports numpy and
vistest alone, so it runs where only numpy is installed."""

import math

import numpy as np

from vistest.tagio import RESOLUTION_TENTHS, TAG_HEADER
from vistest.util import DomainError


def write_tags(blocks, out):
    """Write (channels, tenths) blocks to a text file in the CSV format parse_tags reads."""
    out.write(TAG_HEADER + "\n")
    for ch, ts in blocks:
        for c, t in zip(ch.tolist(), ts.tolist()):
            out.write(f"{c},{t // 10}.{t % 10}\n")


def synthesize_tags(rng, energy_per_window, vis_magnitude, config, windows):
    """Generate one (channels, tenths) block from the random-phase model.

    Per window: a fresh uniform global phase, Poisson counts at the two
    port intensities (unclamped; binning applies the truncation), each
    count placed at a uniform multiple of the timing resolution inside
    the window. bin_counts([block], config) round-trips the exact
    per-window counts, up to the last window that holds a tag.
    """
    if windows < 1:
        raise DomainError("windows must be >= 1")
    if not 0.0 <= energy_per_window < math.inf:
        raise DomainError("energy must be finite and >= 0")
    if not 0.0 <= vis_magnitude <= 1.0:
        raise DomainError("visibility magnitude must lie in [0, 1]")
    window = config.window_tenths
    slots = window // RESOLUTION_TENTHS

    phases = rng.uniform(0.0, 2.0 * math.pi, windows)
    i_plus = energy_per_window * (1.0 + vis_magnitude * np.cos(phases)) / 2.0
    counts = np.empty((windows, 2), dtype=np.int64)
    counts[:, 0] = rng.poisson(i_plus)
    counts[:, 1] = rng.poisson(energy_per_window - i_plus)

    parts = []
    for channel in (0, 1):
        n = int(counts[:, channel].sum())
        window_of_tag = np.repeat(np.arange(windows, dtype=np.int64), counts[:, channel])
        offsets = rng.integers(0, slots, size=n) * RESOLUTION_TENTHS
        ts = window_of_tag * window + offsets
        parts.append((np.full(n, channel, dtype=np.uint8), ts))
    channels = np.concatenate([p[0] for p in parts])
    timestamps = np.concatenate([p[1] for p in parts])
    order = np.lexsort((channels, timestamps))
    return channels[order], timestamps[order]
