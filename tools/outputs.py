"""Compare the CLI's outputs in two source trees, command by command.

    python3 tools/outputs.py BASE HEAD > report.json

BASE and HEAD are vistest source trees, for example an export of the
parent commit (`git archive HEAD^ | tar -x -C parent`) and the working
tree. Each command in COMMANDS runs as `python -m vistest.cli ...` once
per tree, with that tree's `src/` on PYTHONPATH, in that tree's own
directory, which holds its copy of the input files the commands read. A
command's output is its stdout, followed by the bytes of its --out file
when it names one and writes it.

The report on stdout is one JSON object. A command whose output, stderr
and exit code are the same bytes in both trees is "identical". Otherwise
it lists what changed: the exit codes, the header lines that differ (the
`#` echo and the column names of CSV output, or the keys of JSON output),
and, per numeric column, the largest relative move |a - b| / max(|a|, |b|)
with its row. The script exits 0 whatever the outputs are, and non-zero
only when it cannot run. It needs the standard library alone.
"""

import argparse
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

TIMEOUT_S = 900

# This tool's own list, not read from the CI workflow: the CLI commands
# that CI's numpy-only step ran when it was written, then paths that step
# leaves out and the figures at their default grids. Its input files are
# its own too, made by write_inputs; tags.csv is drawn here, not by
# tagio.synthesize_tags, so both trees read the same bytes.
COMMANDS = [
    "dist --truncation 4",
    "chernoff --json",
    "chernoff --coherent --json --v1 1.0 --v2 0.5",
    "chernoff --truncate 40",
    "optimize --v1 0.98 --v2 0.56",
    "optimize --hi 200",
    "optimize --hi 209",
    "optimize --v1 0.98 --v2 0.56 --hi 80",
    "figures --id 2b --grid-size 20",
    "simulate --ensemble 100",
    "simulate --ensemble 100 --seed 7",
    "simulate --ensemble 100 --seed 8",
    "figures --id 4c --ensemble 100",
    "simulate --ensemble 100 --band 0,0.28,0.56",
    "simulate --ensemble 10 --band 0,0.3",
    "fingerprint --json",
    "fingerprint --coherent-energy 1e-310",
    "fingerprint --eps 1e-100",
    "figures --id 2a --grid-size 3",
    "figures --id 2b --grid-size 3",
    "figures --id 2b --grid-size 5 --truncation 1",
    "ingest --tags tags.csv --theory 0.56,6.3",
    "ingest --tags tags.csv --window 4",
    "ingest --tags tags.csv --window 922337203685477581",
    "ingest --tags tags.csv --window 922337203685477580",
    "ingest --tags crlf.csv",
    "ingest --tags bad.csv",
    "ingest --tags long.csv",
    "ingest --tags late.csv",
    "ingest --tags late.csv --out late.out",
    "figures --id 2b --grid-size 20 --out map.csv",
    "optimize --out opt.csv",
    "dist --dark 0.2 --v 0.9 --truncation 6",
    "dist --dark 0.2 --v 1.5",
    "dist --fixed-phase 0.3 --truncation 5",
    "chernoff --marginal-diff --truncate 5",
    "chernoff --marginal-diff --truncate 5 --json",
    "figures --id 3",
    "figures --id 3 --truncation 40",
    "figures --id 3 --truncation 1",
    "figures --id s2",
    "figures --id 4c",
    "figures --id 2b",
    "simulate --ensemble 100 --band 0.28,0,0.56,0.28",
    "chernoff --v1 0.56 --v2 0.56 --json",
    "simulate --truncation 300 --ensemble 10 --n-list 1 --band "
    "0,0.028,0.056,0.084,0.112,0.14,0.168,0.196,0.224,0.252,0.28,0.308,0.336,0.364,0.392,0.42,"
    "0.448,0.476,0.504,0.532,0.56",
    "optimize --hi 208",
    "optimize --truncation 301 --hi 209",
    "optimize --truncation 0",
]


def _poisson(rng, mean):
    """Knuth's product-of-uniforms draw, exact for the small means used here."""
    count, product, floor = 0, rng.random(), math.exp(-mean)
    while product > floor:
        count, product = count + 1, product * rng.random()
    return count


def write_inputs(directory):
    """The tag files the ingest commands read: a random-phase stream of 2000
    80 us windows at E = 6.3 and |V| = 0.56 from a fixed seed, and the CI
    workflow's CRLF, bad-byte, over-long-line and late-decrease files."""
    rng = random.Random(1)
    tags = []
    for w in range(2000):
        i_plus = 6.3 * (1.0 + 0.56 * math.cos(rng.uniform(0.0, 2.0 * math.pi))) / 2.0
        for channel, mean in ((0, i_plus), (1, 6.3 - i_plus)):
            tags += [(w * 800_000 + 33 * rng.randrange(800_000 // 33), channel)
                     for _ in range(_poisson(rng, mean))]
    lines = "".join(f"{ch},{ts // 10}.{ts % 10}\n" for ts, ch in sorted(tags))
    late = [f"{i % 2},{1000 * i}.5" for i in range(40000)]
    late[30000] = "0,5.0"
    files = {
        "tags.csv": "channel,timestamp_ns\n" + lines,
        "crlf.csv": "channel,timestamp_ns\r\n0,12345678901234567.8\r\n1,99999999999999999.9\r\n",
        "bad.csv": "channel,timestamp_ns\n0,100.5\n0,12a4.5\n1,2000.0\n",
        "long.csv": "channel,timestamp_ns\n" + " " * 300000 + "0,100.5\n"
                    + "".join(f"{i % 2},{1000 + i}.0\n" for i in range(5000)),
        "late.csv": "channel,timestamp_ns\n" + "\n".join(late) + "\n",
    }
    for name, text in files.items():
        with open(os.path.join(directory, name), "w", newline="") as f:
            f.write(text)


def run(tree, command, work):
    """(exit code, output, stderr) of one command on one tree, run in work;
    exit code None if it ran past TIMEOUT_S."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"),
               PYTHONDONTWRITEBYTECODE="1")
    env.pop("VISTEST_OUTPUT_DIR", None)  # a relative --out then lands in work
    argv = command.split()
    out_path = os.path.join(work, argv[argv.index("--out") + 1]) if "--out" in argv else None
    if out_path is not None and os.path.exists(out_path):
        os.remove(out_path)  # an earlier command's file is no output of this one
    try:
        done = subprocess.run([sys.executable, "-m", "vistest.cli", *argv],
                              cwd=work, env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, b"", b"timed out"
    output = done.stdout
    if out_path is not None and os.path.exists(out_path):
        with open(out_path, "rb") as f:
            output += f.read()
    return done.returncode, output, done.stderr


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


def _flatten(value, path=""):
    """(column, leaf) for each leaf of a JSON object: the column is the
    dotted path of keys (the CLI's JSON is objects of scalars)."""
    if not isinstance(value, dict):
        return [(path, value)]
    return [leaf for key, item in value.items()
            for leaf in _flatten(item, f"{path}.{key}" if path else key)]


def cells(output):
    """(header lines, {(column, row): text}) of one command's output. CSV
    output: each `# key = value` line with a numeric value is the one cell
    (row None) of column `# key`; other `#` lines and the column names are
    the header, and the rows below the names are numbered from 1. JSON
    output: the sorted columns are the header, and each leaf is a cell."""
    text = output.decode(errors="replace")
    try:
        doc = json.loads(text)
    except ValueError:
        doc = None
    if isinstance(doc, dict):
        found = {(column, None): json.dumps(leaf) for column, leaf in _flatten(doc)}
        return sorted({column for column, _ in found}), found
    header, found, names, rows = [], {}, None, 0
    for line in filter(None, text.splitlines()):
        key, sep, value = line.partition(" = ")
        if line.startswith("#") and sep and _number(value) is not None:
            found[(key, None)] = value
        elif line.startswith("#") or names is None:
            header.append(line)
            names = names if line.startswith("#") else line.split(",")
        else:
            rows += 1
            found.update(((column, rows), value) for column, value in zip(names, line.split(",")))
    return header, found


def move(a, b):
    """|a - b| / max(|a|, |b|), 0 for equal text; None where the texts differ
    and either side is not a finite number, or the two are the same number
    ('-0.0' and '0.0', '1' and '1.0'), a move of no size."""
    x, y = _number(a), _number(b)
    if a == b:
        return 0.0
    if x is None or y is None or not (math.isfinite(x) and math.isfinite(y)) or x == y:
        return None
    return abs(x - y) / max(abs(x), abs(y))


def compare(base, head):
    """The report entry of one command from its two (exit, output, stderr)."""
    if base == head:
        return {"result": "identical"}
    entry = {"result": "changed"}
    if base[0] != head[0]:
        entry["exit"] = [base[0], head[0]]
    if base[2] != head[2]:
        entry["stderr"] = [base[2].decode(errors="replace"), head[2].decode(errors="replace")]
    (base_header, base_cells), (head_header, head_cells) = cells(base[1]), cells(head[1])
    if base_header != head_header:
        entry["header"] = [[line for line in base_header if line not in head_header],
                           [line for line in head_header if line not in base_header]]
    moves, text = {}, []
    for key in sorted(base_cells.keys() | head_cells.keys(), key=str):
        a, b = base_cells.get(key), head_cells.get(key)
        step = None if a is None or b is None else move(a, b)
        column, row = key
        if step is None:
            text.append({"column": column, "row": row, "base": a, "head": b})
        elif step > moves.get(column, {"move": 0.0})["move"]:
            moves[column] = {"move": step, "row": row, "base": a, "head": b}
    if moves:
        entry["moves"] = moves
    if text:
        entry["text"], entry["text_count"] = text[:20], len(text)  # the first 20, and how many
    return entry


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("head")
    args = parser.parse_args(argv)
    for tree in (args.base, args.head):
        if not os.path.isfile(os.path.join(tree, "src", "vistest", "cli.py")):
            parser.error(f"{tree} holds no src/vistest/cli.py")
    report = {"base": args.base, "head": args.head, "commands": []}
    with tempfile.TemporaryDirectory() as work, ThreadPoolExecutor(2) as pool:
        works = [os.path.join(work, side) for side in ("base", "head")]
        for directory in works:  # the trees run at once, so each writes its own --out files
            os.mkdir(directory)
            write_inputs(directory)
        for command in COMMANDS:
            base, head = pool.map(run, (args.base, args.head), [command] * 2, works)
            report["commands"].append({"command": command, **compare(base, head)})
    results = [entry["result"] for entry in report["commands"]]
    report["identical"], report["changed"] = results.count("identical"), results.count("changed")
    json.dump(report, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
