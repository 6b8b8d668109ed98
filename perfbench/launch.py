"""Run one vistest CLI command, as the `vistest` console script does.

    python3 launch.py [--trace FILE [--parse-memory]] [COMMAND [ARGS...]]

The launcher times its own import of vistest.cli and writes it to
stderr as a `perfbench-import-s <seconds>` line before the command runs.
Without a command it stops there: an import probe. At exit it writes the
process's peak resident set (VmHWM) as `perfbench-peak-kb <kB>`. The
parent's rusage would not do: exec records the peak of the memory image
it replaces, so a child forked from the benchmark would report at least
the benchmark's own size.

With --trace it first replaces the public functions of each vistest
module with wrappers that record a span (name, start, end, parent,
detail) per call, keeps the spans in memory and writes them to FILE as
JSON when the command ends. --parse-memory also runs tracemalloc around
parse_tags to record its peak; it slows parsing, so the benchmark asks
for it in a separate invocation from the one whose times it reads.
"""

import sys
import time

WRAPPED = {
    "photostat": ["joint_random_phase"],
    "chernoff": ["chernoff_information"],
    "energyopt": ["optimal_energy", "info_per_photon"],
    "fingerprint": ["crossover", "revealed_curves"],
    "simkit": ["estimate_error", "worst_case_sweep", "sample_dataset", "dataset_rng"],
    "tagio": ["parse_tags", "bin_counts", "histogram", "compare_to_theory"],
    "cli": ["main"],
}


def _detail(name, args):
    """The arguments a per-layer ratio needs, in JSON-ready form."""
    if name == "joint_random_phase":
        params, vis = args[0], args[1]
        return [params.mean_detected_energy, params.truncation, float(vis)]
    if name == "optimal_energy":
        return [float(args[0]), float(args[1])]
    if name == "sample_dataset":
        return int(args[4])
    return None


def install(spans, parse_memory):
    """Wrap the functions in WRAPPED; each call appends one span."""
    import importlib
    import tracemalloc

    stack = []

    def wrap(module, name):
        inner = getattr(module, name)
        label = f"{module.__name__.rsplit('.', 1)[-1]}.{name}"
        measure = parse_memory and name == "parse_tags"

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            if measure:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                detail = _detail(name, args)
                if measure:
                    detail = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                spans[index] = [label, start, end, parent, detail]

        setattr(module, name, wrapper)

    for mod_name, names in WRAPPED.items():
        module = importlib.import_module(f"vistest.{mod_name}")
        for name in names:
            wrap(module, name)


def main(argv):
    trace_path = None
    parse_memory = False
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
        if argv[:1] == ["--parse-memory"]:
            parse_memory, argv = True, argv[1:]
    try:
        start = time.perf_counter()
        import vistest.cli
        print(f"perfbench-import-s {time.perf_counter() - start!r}", file=sys.stderr)
        if not argv:
            return 0  # an import probe
        if trace_path is None:
            return vistest.cli.main(argv)
        return traced_main(vistest.cli, argv, trace_path, parse_memory)
    finally:
        print(f"perfbench-peak-kb {peak_kb()}", file=sys.stderr)


def traced_main(cli, argv, trace_path, parse_memory):
    import json

    spans = []
    install(spans, parse_memory)
    try:
        return cli.main(argv)
    finally:
        with open(trace_path, "w", encoding="utf-8") as f:
            json.dump(spans, f)


def peak_kb():
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
