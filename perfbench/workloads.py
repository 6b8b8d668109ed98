"""The benchmark's workloads: the vistest commands each one runs, the
inputs it draws from the seed, and the checks of every output against
oracle.py or against a property the method must have.

A workload is a sequence of rounds. A round is a fixed list of
operations; an operation is one query of one or more CLI invocations and
completes a stated number of items when every output passes its checks.
"""

import math
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import binom

import oracle

# Tolerances, relative to the oracle's value (README: "Checks").
REL_AT_ENERGY = 1e-8   # a reported ratio against the oracle at the same energy
REL_OF_MAX = 1e-5      # a reported optimum below the oracle's maximum
REL_BODY = 1e-2        # optimize's 60 scan rows against the oracle
REL_FORMULA = 1e-9     # closed formulas, crossovers, Chernoff bounds
FALSE_ALARM = 1e-6     # per statistical check in mc


class CheckError(Exception):
    """An output disagrees with the oracle or breaks a property."""


def expect(ok, message):
    if not ok:
        raise CheckError(message)


def close(value, reference, rel, what):
    expect(abs(value - reference) <= rel * abs(reference),
           f"{what}: got {value!r}, oracle {reference!r}")


def parse_output(text):
    """Split CLI output into the `# key = value` echo, the CSV header and
    the rows."""
    meta, header, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition(" = ")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    expect(header is not None, "no CSV header in the output")
    return meta, header, rows


def column(rows, i):
    return np.array([float(r[i]) for r in rows])


@dataclass
class Invocation:
    args: list
    check: object  # callable(stdout_text); raises CheckError


@dataclass
class Operation:
    name: str
    invocations: list
    items: float
    fault: str = ""  # a known program fault this query is expected to show
    trials_needed: int = 0  # Monte Carlo trials its output summarises


@dataclass
class Workload:
    """Base: subclasses draw rounds from the seed and check outputs."""

    seed: int
    work_dir: str
    rng: np.random.Generator = field(init=False)

    def __post_init__(self):
        self.rng = np.random.default_rng(self.seed)

    def prepare(self):
        """Make the inputs every round shares; not timed."""

    def round(self, index):
        raise NotImplementedError

    def finish(self):
        """Checks over the whole run; returns a list of failure messages."""
        return []


# ---------------------------------------------------------------------------
# plan: optimize + fingerprint on one visibility pair per query


def check_optimize(text, v1, v2, hi, lo=0.1):
    meta, header, rows = parse_output(text)
    expect(header == ["energy", "info_per_photon"], f"header {header}")
    expect((float(meta["v1"]), float(meta["v2"]), float(meta["lo"]), float(meta["hi"]))
           == (v1, v2, lo, hi), "configuration echo differs from the query")
    energy = float(meta["optimum_energy"])
    best = float(meta["optimum_ratio"])
    k = oracle.search_truncation(hi)
    close(best, oracle.ratio(v1, v2, energy, k), REL_AT_ENERGY,
          f"optimum_ratio at optimum_energy {energy!r}")
    top = oracle.best_ratio(v1, v2, lo, hi, k)[1]
    expect(top * (1.0 - REL_OF_MAX) <= best <= top * (1.0 + REL_AT_ENERGY),
           f"optimum_ratio {best!r} is not the maximum {top!r} over [{lo}, {hi}]")
    energies, ratios = column(rows, 0), column(rows, 1)
    expect(len(rows) == 60 and np.allclose(energies, np.geomspace(lo, hi, 60),
                                           rtol=1e-13, atol=0.0), "scan grid")
    expect(ratios.min() > 0.0 and ratios.max() <= best, "scan rows exceed the optimum")
    for e, r in zip(energies, ratios):
        close(r, oracle.ratio(v1, v2, float(e), k), REL_BODY, f"scan row at {e!r}")


def check_fingerprint(text, v1, v2, eps=1e-4, hi=30.0):
    meta, header, rows = parse_output(text)
    expect(header == ["n", "I_quantum_incoherent", "I_quantum_coherent",
                      "I_classical_best", "I_classical_bound"], f"header {header}")
    expect((float(meta["v1"]), float(meta["v2"]), float(meta["eps"])) == (v1, v2, eps),
           "configuration echo differs from the query")
    delta = (1.0 - v2 / v1) / 2.0
    rate = oracle.appended_rate(delta)
    close(float(meta["delta_min"]), delta, REL_FORMULA, "delta_min")
    close(float(meta["rate_modified"]), rate, REL_FORMULA, "rate_modified")
    close(float(meta["rate_gv"]), 1.0 - oracle.binary_entropy(delta), REL_FORMULA, "rate_gv")
    reps = int(meta["repetitions"])
    energy = float(meta["total_energy"]) / reps
    k = oracle.search_truncation(hi)
    per_photon = oracle.ratio(v1, v2, energy, k)
    top = oracle.best_ratio(v1, v2, 0.1, hi, k)[1]
    expect(per_photon >= top * (1.0 - REL_OF_MAX),
           f"planning energy {energy!r} is not optimal: {per_photon!r} < {top!r}")
    need = math.log(1.0 / (2.0 * eps)) / (per_photon * energy)
    expect(math.ceil(need * (1 - REL_FORMULA)) <= reps <= math.ceil(need * (1 + REL_FORMULA)),
           f"repetitions {reps} != ceil(ln(1/2eps)/C) = ceil({need!r})")
    for key, classical in (("n_vs_best_classical", oracle.best_classical_bits),
                           ("n_vs_classical_limit", oracle.classical_bound_bits)):
        n = float(meta[key])
        close(oracle.quantum_bits(n, rate, energy, reps), classical(n, eps),
              REL_FORMULA, f"{key} = {n!r} does not solve quantum = classical")
    n_values = column(rows, 0)
    expect(len(rows) == 101 and np.allclose(n_values, np.geomspace(1e2, 1e12, 101),
                                            rtol=1e-13, atol=0.0), "length grid")
    for row, n in zip(rows, n_values):
        expect(row[2] == "", "coherent curve without --coherent-energy")
        close(float(row[1]), oracle.quantum_bits(n, rate, energy, reps), REL_FORMULA,
              f"I_quantum_incoherent at n={n!r}")
        close(float(row[3]), oracle.best_classical_bits(n, eps), REL_FORMULA,
              f"I_classical_best at n={n!r}")
        close(float(row[4]), oracle.classical_bound_bits(n, eps), REL_FORMULA,
              f"I_classical_bound at n={n!r}")


class Plan(Workload):
    """Each round: PAIRS_PER_ROUND fresh pairs, v1 in [0.9, 1] and
    v2/v1 in [0.45, 0.8], each one query of `optimize` and `fingerprint`;
    then the two fault queries."""

    PAIRS_PER_ROUND = 5
    FAULTS = [
        (["--v1", "0.98", "--v2", "0.56", "--hi", "80"], 0.98, 0.56, 80.0,
         "photostat random-phase kernel cancels above E ~ 20 (optimum at E=53 reported)"),
        (["--v1", "1.0", "--v2", "0.98"], 1.0, 0.98, 30.0,
         "photostat random-phase kernel cancels above E ~ 20 (ratio at E=30 off by 4%)"),
    ]

    def round(self, index):
        ops = []
        for _ in range(self.PAIRS_PER_ROUND):
            v1 = float(f"{self.rng.uniform(0.9, 1.0):.4f}")
            v2 = float(f"{v1 * self.rng.uniform(0.45, 0.8):.4f}")
            pair = ["--v1", repr(v1), "--v2", repr(v2)]
            ops.append(Operation(f"plan({v1}, {v2})", [
                Invocation(["optimize"] + pair,
                           lambda t, v1=v1, v2=v2: check_optimize(t, v1, v2, 30.0)),
                Invocation(["fingerprint"] + pair,
                           lambda t, v1=v1, v2=v2: check_fingerprint(t, v1, v2)),
            ], items=1))
        for args, v1, v2, hi, fault in self.FAULTS:
            ops.append(Operation(f"optimize {' '.join(args)}", [
                Invocation(["optimize"] + args,
                           lambda t, v1=v1, v2=v2, hi=hi: check_optimize(t, v1, v2, hi)),
            ], items=1, fault=fault))
        return ops


# ---------------------------------------------------------------------------
# map: figures --id 2b


def check_map(text, size):
    meta, header, rows = parse_output(text)
    expect(header == ["v1", "v2", "max_ratio", "opt_energy"], f"header {header}")
    expect(len(rows) == size * size, f"{len(rows)} rows for grid {size}")
    grid = np.linspace(0.0, 1.0, size)
    k = oracle.search_truncation(30.0)
    cells = {}
    for n, row in enumerate(rows):
        i, j = divmod(n, size)
        expect((float(row[0]), float(row[1])) == (grid[i], grid[j]), f"row {n} grid point")
        cells[i, j] = row[2:]
    for i in range(size):
        expect(cells[i, i] == ["nan", "nan"], f"diagonal cell {i} is not NaN")
        for j in range(i + 1, size):
            expect(cells[i, j] == cells[j, i], f"cell ({i}, {j}) is not symmetric")
            ratio, energy = map(float, cells[i, j])
            v1, v2 = float(grid[i]), float(grid[j])
            close(ratio, oracle.ratio(v1, v2, energy, k), REL_AT_ENERGY,
                  f"cell ({v1}, {v2}) at energy {energy!r}")
            top = oracle.best_ratio(v1, v2, 0.1, 30.0, k)[1]
            expect(top * (1.0 - REL_OF_MAX) <= ratio <= top * (1.0 + REL_AT_ENERGY),
                   f"cell ({v1}, {v2}): {ratio!r} is not the maximum {top!r}")


class Map(Workload):
    """Each round: one `figures --id 2b` on the fixed 5-point grid."""

    GRID = 5

    def round(self, index):
        pairs = self.GRID * (self.GRID - 1) // 2
        return [Operation(f"figures 2b grid {self.GRID}", [
            Invocation(["figures", "--id", "2b", "--grid-size", str(self.GRID)],
                       lambda t: check_map(t, self.GRID)),
        ], items=pairs)]


# ---------------------------------------------------------------------------
# mc: simulate at the paper's point


def _sum_of_binomials(m, p, q):
    """pmf of Bin(m, p) + Bin(m, q)."""
    support = np.arange(m + 1)
    return np.convolve(binom.pmf(support, m, p), binom.pmf(support, m, q))


def count_interval(m, e21, e12, alpha):
    """[lo, hi] holding W = Bin(m, a) + Bin(m, b) with probability at least
    1 - alpha for every a in the bracket e21 and b in the bracket e12."""
    low = np.cumsum(_sum_of_binomials(m, e21[0], e12[0]))
    high = np.cumsum(_sum_of_binomials(m, e21[1], e12[1])[::-1])[::-1]
    lo = int(np.argmax(low > alpha / 2))           # P(W < lo) <= alpha/2
    above = np.nonzero(high <= alpha / 2)[0]        # P(W >= t) <= alpha/2
    hi = int(above[0]) - 1 if len(above) else 2 * m
    return lo, hi


def count_ceiling(n, p, alpha):
    """Smallest c with P(Bin(n, p) > c) <= alpha. By Hoeffding (1956,
    Thm 4) it also bounds any sum of n independent Bernoullis whose mean
    probability is at most p."""
    return int(binom.isf(alpha, n, p))


class MonteCarlo(Workload):
    """Each round: one `simulate` at the paper's point with its own seed."""

    V1, V2, ENERGY, K = 0.98, 0.56, 6.3, 15
    ENSEMBLE = 100
    BAND = [0.0, 0.14, 0.28, 0.42, 0.56]
    N_LIST = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 15, 20, 30, 40, 50]
    # datasets the output summarises per N: V1, V2 and the five band values
    DATASETS_PER_N = 7

    def prepare(self):
        self.p1 = oracle.table(self.ENERGY, self.V1, self.K)
        self.p2 = oracle.table(self.ENERGY, self.V2, self.K)
        self.info, self.alpha, self.sigma = oracle.chernoff(self.p1, self.p2)
        self.wrong = {}  # seed -> {N: error count}; a repeated seed counts once

    def round(self, index):
        seed = int(self.rng.integers(1, 2**31))
        args = ["simulate", "--v1", repr(self.V1), "--v2", repr(self.V2),
                "--energy", repr(self.ENERGY), "--truncation", str(self.K),
                "--ensemble", str(self.ENSEMBLE), "--seed", str(seed),
                "--band", ",".join(map(repr, self.BAND))]
        datasets = self.ENSEMBLE * self.DATASETS_PER_N
        return [Operation(f"simulate seed {seed}", [
            Invocation(args, lambda t, seed=seed: self.check(t, seed))],
            items=datasets * len(self.N_LIST), trials_needed=datasets * sum(self.N_LIST))]

    def _count(self, value, what):
        """An error fraction over M + M datasets, as a count of errors."""
        count = value * 2 * self.ENSEMBLE
        expect(abs(count - round(count)) < 1e-6 and 0.0 <= value <= 1.0,
               f"{what} {value!r} is not a fraction of {2 * self.ENSEMBLE} datasets")
        return round(count)

    def check(self, text, seed):
        meta, header, rows = parse_output(text)
        expect(header == ["N", "eps_mean", "eps_std", "chernoff_bound", "refined_bound",
                          "band_lo", "band_hi"], f"header {header}")
        expect((int(meta["seed"]), int(meta["ensemble"])) == (seed, self.ENSEMBLE),
               "configuration echo differs from the query")
        expect([int(r[0]) for r in rows] == self.N_LIST, "N list")
        m, c, a = self.ENSEMBLE, self.info, self.alpha
        counts = {}
        for row in rows:
            n = int(row[0])
            eps, std, bound, refined, lo, hi = map(float, row[1:])
            close(bound, 0.5 * math.exp(-n * c), REL_FORMULA, f"chernoff_bound at N={n}")
            close(refined, math.exp(-n * c) / (math.sqrt(2 * math.pi * n) * 2 * a * (1 - a)
                                               * self.sigma), 1e-6, f"refined_bound at N={n}")
            close(std, math.sqrt(eps * (1.0 - eps) / m), 1e-12, f"eps_std at N={n}")
            counts[n] = self._count(eps, f"eps_mean at N={n}")
            band = (self._count(lo, f"band_lo at N={n}"), self._count(hi, f"band_hi at N={n}"))
            expect(band[0] <= band[1], f"band_lo > band_hi at N={n}")
            if n <= 2:
                self._check_band(n, band)
        self.wrong[seed] = counts

    def _check_band(self, n, band):
        """Each band value's average error lies in its exact interval
        (union bound over the five), hence so do their min and max."""
        limits = []
        for v in self.BAND:
            q = oracle.table(self.ENERGY, v, self.K)
            e21, e12 = oracle.error_brackets(self.p1, self.p2, q, n)
            limits.append(count_interval(self.ENSEMBLE, e21, e12,
                                         FALSE_ALARM / len(self.BAND)))
        los, his = zip(*limits)
        expect(min(los) <= band[0] <= min(his) and max(los) <= band[1] <= max(his),
               f"band at N={n}: errors {band} of {2 * self.ENSEMBLE}, exact intervals {limits}")

    def finish(self):
        """Pooled over the run's queries: the N <= 2 error counts lie in
        their exact intervals; for N > 2 they stay under the Chernoff
        bound exp(-NC)/2."""
        problems = []
        datasets = len(self.wrong) * self.ENSEMBLE
        if datasets == 0:
            return problems
        for n in self.N_LIST:
            w = sum(counts[n] for counts in self.wrong.values())
            if n <= 2:
                e21, e12 = oracle.error_brackets(self.p1, self.p2, self.p2, n)
                lo, hi = count_interval(datasets, e21, e12, FALSE_ALARM)
                ok = lo <= w <= hi
                limit = f"exact interval [{lo}, {hi}]"
            else:
                ceiling = count_ceiling(2 * datasets, 0.5 * math.exp(-n * self.info),
                                        FALSE_ALARM)
                ok = w <= ceiling
                limit = f"Chernoff ceiling {ceiling}"
            if not ok:
                problems.append(f"mc N={n}: {w} errors in {2 * datasets} datasets, {limit}")
        return problems


# ---------------------------------------------------------------------------
# ingest: a generated tag file


def write_tags(path, rng, windows, energy, vis, window_tenths=800_000, resolution=33):
    """Random-phase tag stream: per window a uniform phase, Poisson counts
    at the two port intensities, each tag at a uniform multiple of the
    timing resolution inside its window. Returns the (windows, 2) counts."""
    phase = rng.uniform(0.0, 2.0 * math.pi, windows)
    i_plus = energy * (1.0 + vis * np.cos(phase)) / 2.0
    counts = np.stack([rng.poisson(i_plus), rng.poisson(energy - i_plus)], axis=1)
    flat = counts.ravel()
    channel = np.repeat(np.tile([0, 1], windows), flat)
    window = np.repeat(np.repeat(np.arange(windows, dtype=np.int64), 2), flat)
    stamp = window * window_tenths + rng.integers(
        0, window_tenths // resolution, size=len(channel)) * resolution
    order = np.argsort(stamp, kind="stable")
    channel, stamp = channel[order].tolist(), stamp[order]
    whole, tenth = (stamp // 10).tolist(), (stamp % 10).tolist()
    with open(path, "w", encoding="utf-8") as f:
        f.write("channel,timestamp_ns\n")
        f.write("\n".join(map("{},{}.{}".format, channel, whole, tenth)))
        f.write("\n")
    return counts


class Ingest(Workload):
    """Each round: one `ingest --theory` of the same generated file."""

    WINDOWS, ENERGY, VIS, K = 206_000, 6.3, 0.56, 15

    def prepare(self):
        self.path = os.path.join(self.work_dir, f"tags-{self.seed}.csv")
        counts = write_tags(self.path, self.rng, self.WINDOWS, self.ENERGY, self.VIS)
        self.tags = int(counts.sum())
        last = int(np.nonzero(counts.sum(axis=1))[0][-1])
        kept = np.minimum(counts[:last + 1], self.K)
        size = self.K + 1
        self.hist = np.bincount(kept[:, 0] * size + kept[:, 1],
                                minlength=size * size).reshape(size, size)

    def round(self, index):
        args = ["ingest", "--tags", self.path, "--theory", f"{self.VIS},{self.ENERGY}"]
        return [Operation("ingest", [Invocation(args, self.check)], items=self.tags)]

    def check(self, text):
        meta, header, rows = parse_output(text)
        expect(header == ["k", "kprime", "count"], f"header {header}")
        windows = int(self.hist.sum())
        expect((int(meta["tags"]), int(meta["windows"]), int(meta["total_outcomes"]))
               == (self.tags, windows, windows),
               f"tags/windows {meta['tags']}/{meta['windows']}, generated {self.tags}/{windows}")
        got = np.array([[int(x) for x in r] for r in rows])
        size = self.K + 1
        expect(got.shape == (size * size, 3), "histogram shape")
        expect(np.array_equal(got[:, 0] * size + got[:, 1], np.arange(size * size)),
               "histogram cell order")
        expect(np.array_equal(got[:, 2].reshape(size, size), self.hist),
               "histogram differs from the generated window counts")
        theory = oracle.table(self.ENERGY, self.VIS, self.K)
        counts = self.hist.astype(float)
        norm = np.abs(counts - windows * theory) / np.sqrt(np.maximum(counts, 1.0))
        occupied = self.hist > 0
        edge = np.abs(norm - 2.0) <= 1e-9
        sure = ((norm <= 2.0) & ~edge)[occupied].sum() / occupied.sum()
        maybe = ((norm <= 2.0) | edge)[occupied].sum() / occupied.sum()
        frac = float(meta["fraction_within_2"])
        expect(sure - 1e-12 <= frac <= maybe + 1e-12,
               f"fraction_within_2 {frac!r}, from its definition {sure!r}")
        close(float(meta["tv_distance"]), 0.5 * np.abs(counts / windows - theory).sum(),
              REL_FORMULA, "tv_distance")


WORKLOADS = {"plan": Plan, "map": Map, "mc": MonteCarlo, "ingest": Ingest}
