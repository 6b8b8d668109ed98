"""Benchmark of the vistest CLI pipeline.

    python3 perfbench/run.py --workload {plan,map,mc,ingest} --seed N \
        --seconds S --trace {0,1}

Run from the root of a vistest source tree: the commands run from its
`src/` directory, each in its own process through launch.py. Inputs come
from the seed; every output is checked against oracle.py. The last line
of stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with --trace 0, the per-layer metrics
of a traced run over one round with --trace 1. See README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict, namedtuple

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
LAUNCH = os.path.join(HERE, "launch.py")
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK_PARENT = os.path.join(ROOT, ".perfbench-work")
MIN_IMPORT_SAMPLES = 11

Result = namedtuple("Result", "rc seconds stdout stderr spans")


class Runner:
    """Starts CLI invocations one at a time in its own work directory and
    keeps what the metrics need."""

    def __init__(self, work):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.import_s = []
        self.peak_kb = 0

    def invoke(self, args, trace=False, parse_memory=False):
        """Run launch.py with args, traced or not, and wait for it."""
        out_path = os.path.join(self.work, "stdout.txt")
        err_path = os.path.join(self.work, "stderr.txt")
        trace_path = os.path.join(self.work, "trace.json")
        cmd = [sys.executable, LAUNCH]
        if trace:
            cmd += ["--trace", trace_path] + (["--parse-memory"] if parse_memory else [])
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            with subprocess.Popen(cmd + args, stdout=out, stderr=err,
                                  env=self.env, cwd=self.work) as proc:
                proc.wait()  # on an exception, leaving the block waits too
            seconds = time.perf_counter() - start
        with open(out_path, encoding="utf-8") as f:
            stdout = f.read()
        with open(err_path, encoding="utf-8") as f:
            stderr = f.read()
        for line in stderr.splitlines():
            if line.startswith("perfbench-peak-kb "):
                self.peak_kb = max(self.peak_kb, int(line.split()[1]))
            elif line.startswith("perfbench-import-s ") and not trace:
                self.import_s.append(float(line.split()[1]))
        spans = None
        if trace and os.path.exists(trace_path):
            with open(trace_path, encoding="utf-8") as f:
                spans = json.load(f)
            os.remove(trace_path)
        return Result(proc.returncode, seconds, stdout, stderr, spans)


class Tally:
    """Outcome of the operations of one or more rounds."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.items = 0.0
        self.seconds = 0.0        # passed operations only
        self.all_seconds = 0.0
        self.output_bytes = 0
        self.unexpected = []
        self.op_seconds = []      # passed operations, in run order

    def items_per_s(self):
        return self.items / self.seconds if self.seconds > 0 else 0.0


def run_round(runner, ops, tally, traces=None):
    """Run and check each operation; traced when `traces` is a list, which
    then receives each invocation's spans."""
    for op in ops:
        tally.attempted += 1
        seconds, problem = 0.0, None
        for inv in op.invocations:
            result = runner.invoke(inv.args, trace=traces is not None)
            seconds += result.seconds
            tally.output_bytes += len(result.stdout.encode())
            if traces is not None and result.spans is not None:
                traces.append(result.spans)
            problem = check(inv, result)
            if problem:
                break
        tally.all_seconds += seconds
        if problem is None:
            tally.items += op.items
            tally.seconds += seconds
            tally.op_seconds.append(seconds)
            continue
        tally.failed += 1
        where = f"known fault, {op.fault}" if op.fault else "UNEXPECTED"
        print(f"failed {op.name} ({where}): {problem}", file=sys.stderr)
        if not op.fault:
            tally.unexpected.append(op.name)


def check(inv, result):
    """None if the invocation exited 0 and its output passed, else why not."""
    if result.rc != 0:
        return f"exit {result.rc}: {result.stderr.strip()[-300:]}"
    try:
        inv.check(result.stdout)
    except (workloads.CheckError, LookupError, ValueError) as exc:
        return f"{inv.args[0]}: {exc!r}"
    return None


def timed_run(workload, runner, seconds):
    """Whole rounds until the invocations have run for `seconds`; import
    probes between rounds keep setup samples spread over the run."""
    tally = Tally()
    index = 0
    while tally.all_seconds < seconds:
        run_round(runner, workload.round(index), tally)
        index += 1
        share = min(1.0, tally.all_seconds / seconds)
        while len(runner.import_s) < MIN_IMPORT_SAMPLES * share:
            probe = runner.invoke([])
            if probe.rc != 0:
                raise RuntimeError(f"import probe failed: {probe.stderr}")
    return tally


def metric(value, unit):
    return {"value": value, "unit": unit}


def layer_metrics(traces, needed_trials):
    """Per-layer counts and self times from the span lists of the traced
    invocations (one list per process)."""
    self_s = defaultdict(float)
    calls = Counter()
    distinct_tables = distinct_scans = trials = 0
    for spans in traces:
        child = [0.0] * len(spans)
        for span in spans:
            if span and span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        tables, pairs = set(), set()
        for i, span in enumerate(spans):
            if not span:
                continue
            label, start, end, _, detail = span
            self_s[label] += end - start - child[i]
            calls[label] += 1
            if label == "photostat.joint_random_phase":
                tables.add(tuple(detail))
            elif label == "energyopt.optimal_energy":
                pairs.add(tuple(detail))
            elif label == "simkit.sample_dataset":
                trials += detail
        distinct_tables += len(tables)
        distinct_scans += len(pairs)

    def share(part, whole):
        return part / whole if whole else 1.0  # no work done, none wasted

    def total(*labels):
        return sum(self_s[x] for x in labels)

    tables = calls["photostat.joint_random_phase"]
    scans = calls["energyopt.optimal_energy"]
    simkit = ["simkit.estimate_error", "simkit.worst_case_sweep",
              "simkit.sample_dataset", "simkit.dataset_rng"]
    return {
        "photostat.tables": metric(tables, "count"),
        "photostat.self_s": metric(total("photostat.joint_random_phase"), "s"),
        "photostat.distinct_ratio": metric(share(distinct_tables, tables), "ratio"),
        "chernoff.solves": metric(calls["chernoff.chernoff_information"], "count"),
        "chernoff.self_s": metric(total("chernoff.chernoff_information"), "s"),
        "energyopt.scans": metric(scans, "count"),
        "energyopt.points": metric(calls["energyopt.info_per_photon"], "count"),
        "energyopt.self_s": metric(
            total("energyopt.optimal_energy", "energyopt.info_per_photon"), "s"),
        "energyopt.distinct_scan_ratio": metric(share(distinct_scans, scans), "ratio"),
        "fingerprint.plans": metric(
            calls["fingerprint.crossover"] + calls["fingerprint.revealed_curves"], "count"),
        "fingerprint.self_s": metric(
            total("fingerprint.crossover", "fingerprint.revealed_curves"), "s"),
        "simkit.trials": metric(trials, "count"),
        "simkit.streams": metric(calls["simkit.dataset_rng"], "count"),
        "simkit.sample_self_s": metric(total("simkit.sample_dataset"), "s"),
        "simkit.stream_self_s": metric(total("simkit.dataset_rng"), "s"),
        "simkit.self_s": metric(total(*simkit), "s"),
        "simkit.useful_trial_ratio": metric(share(needed_trials, trials), "ratio"),
        "tagio.parse_self_s": metric(total("tagio.parse_tags"), "s"),
        "tagio.bin_self_s": metric(total("tagio.bin_counts"), "s"),
        "tagio.histogram_self_s": metric(total("tagio.histogram"), "s"),
        "tagio.compare_self_s": metric(total("tagio.compare_to_theory"), "s"),
        "cli.self_s": metric(total("cli.main"), "s"),
    }


def traced_run(workload, runner):
    """Round 0 four times: untraced, traced, traced, untraced, so that a
    drift in CPU speed cancels from the tracing overhead. The per-layer
    totals come from the first traced pass. Ingest adds one traced
    invocation that measures parse_tags' allocation peak."""
    ops = workload.round(0)
    passes = [Tally() for _ in range(4)]
    traces = []
    for n, tally in enumerate(passes):
        run_round(runner, ops, tally, traces={1: traces, 2: []}.get(n))
    metrics = layer_metrics(traces, sum(op.trials_needed for op in ops))
    peak = 0
    if isinstance(workload, workloads.Ingest):
        inv = ops[0].invocations[0]
        result = runner.invoke(inv.args, trace=True, parse_memory=True)
        passes[1].attempted += 1
        problem = check(inv, result)
        if problem is None:
            peak = max(s[4] for s in result.spans if s and s[0] == "tagio.parse_tags")
        else:
            passes[1].failed += 1
            passes[1].unexpected.append("ingest (parse memory)")
            print(f"failed ingest (parse memory): {problem}", file=sys.stderr)
    metrics["tagio.parse_peak_mb"] = metric(peak / 2**20, "MB")
    metrics["cli.output_bytes"] = metric(passes[1].output_bytes, "bytes")

    def rate(tallies):
        seconds = sum(t.seconds for t in tallies)
        return sum(t.items for t in tallies) / seconds if seconds else 0.0

    base = rate(passes[0::3])
    metrics["trace.overhead_ratio"] = metric(
        1.0 - rate(passes[1:3]) / base if base else 0.0, "ratio")
    return passes, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "vistest", "cli.py")):
        print(f"error: no vistest sources under {SRC}; run from the root of the "
              "source tree", file=sys.stderr)
        return 2
    os.makedirs(WORK_PARENT, exist_ok=True)
    work = tempfile.mkdtemp(dir=WORK_PARENT)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work)
        workload.prepare()
        runner = Runner(work)
        if args.trace:
            tallies, metrics = traced_run(workload, runner)
        else:
            tallies = [timed_run(workload, runner, args.seconds)]
            metrics = {
                "setup_s": metric(statistics.median(runner.import_s), "s"),
                "items_per_s": metric(tallies[0].items_per_s(), "1/s"),
                "peak_rss_mb": metric(runner.peak_kb / 1024.0, "MB"),
            }
        problems = workload.finish()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not os.listdir(WORK_PARENT):
            os.rmdir(WORK_PARENT)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print("operation seconds:", " ".join(f"{s:.3f}" for t in tallies for s in t.op_seconds),
          file=sys.stderr)
    print("import seconds:", " ".join(f"{s:.3f}" for s in runner.import_s), file=sys.stderr)
    unexpected = [name for t in tallies for name in t.unexpected]
    print(json.dumps({
        "correct": not unexpected and not problems,
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
