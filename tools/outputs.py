"""Run the CLI's command table in two source trees: check each row's
expectations in HEAD, and compare the outputs row by row.

    python3 tools/outputs.py BASE HEAD > report.json

BASE and HEAD are vistest source trees, for example an export of the
parent commit (`git archive HEAD^ | tar -x -C parent`) and the working
tree. Each row of COMMANDS runs as `python -m vistest.cli ...` once per
tree, with the interpreter that runs this script and that tree's `src/`
on PYTHONPATH, in that tree's own directory, which holds its copy of the
input files the commands read. A row's output is its stdout, followed by
the bytes of its --out file when it names one and writes it.

Each row states what HEAD's run of it must show: its exit code and a
full match of its stderr; where it needs more, an exact `#` line of its
output, the seconds it may run (past them its exit code reads null), or
the row whose output it must equal or differ from. Its argv adds three
rules: a `--json` row that exits 0 prints strict JSON, with no NaN or
Infinity; a `--out X` row's output equals that of the row with the same
argv less `--out X`; and a row that exits non-zero prints nothing and
writes no --out file.

The report on stdout is one JSON object. A row whose output, stderr and
exit code are the same bytes in both trees is "identical". Otherwise it
lists what changed: the exit codes, the header lines that differ (the
`#` echo and the column names of CSV output, or the keys of JSON output),
and, per numeric column, the largest relative move |a - b| / max(|a|, |b|)
with its row. Last come the misses: each expectation a HEAD row missed,
naming the row. The script exits non-zero when a row misses or when it
cannot run; a moved output alone is reported, never a failure. It needs
the standard library alone.
"""

import argparse
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

class Row(NamedTuple):
    """One command, and what HEAD's run of it must show."""

    command: str
    exit: int = 0
    stderr: str = ""  # a pattern its stderr matches in full
    echo: str | None = None  # a line its output holds
    limit: float = 900  # the seconds it may run
    same: str | None = None  # the command of a row whose output it equals
    differs: str | None = None  # ... or differs from


def refused(command, message):
    """A row that exits 3 with `error: message` as its whole stderr."""
    return Row(command, 3, re.escape(f"error: {message}") + "\n")


SEED_7 = "simulate --ensemble 100 --seed 7"

# The one list of CLI checks, run by CI's numpy-only step. Its input files
# are its own, made by write_inputs, so both trees read the same bytes.
COMMANDS = [
    Row("dist --truncation 4"),
    Row("chernoff --json"),
    # sigma is undefined at V1 = 1: null in JSON, not a bare NaN
    Row("chernoff --coherent --json --v1 1.0 --v2 0.5"),
    refused("chernoff --truncate 40",
            "cannot retruncate a K = 15 table to K = 40: K must lie in [1, 15]"),
    Row("optimize --v1 0.98 --v2 0.56"),
    # split-law rows to n = 338, near the largest the search builds
    Row("optimize --hi 200"),
    refused("optimize --hi 209", "E = 209 needs a resolution K above the limit 300; "
                                 "energies up to about 208 can be searched"),
    # perfbench plan's heaviest query: rows to n = 171
    Row("optimize --v1 0.98 --v2 0.56 --hi 80"),
    # well under a second; a table built per pair, or a full scan for every
    # pair, takes it past the limit
    Row("figures --id 2b --grid-size 20", limit=60),
    # the Monte Carlo streams are a function of the flags and the seed alone
    Row("simulate --ensemble 100"),
    Row(SEED_7),
    Row("simulate --seed 7 --ensemble 100", same=SEED_7),
    Row("simulate --ensemble 100 --seed 8", differs=SEED_7),
    Row("figures --id 4c --ensemble 100"),
    Row("simulate --ensemble 100 --band 0,0.28,0.56"),
    refused("simulate --ensemble 10 --band 0,0.3", "the largest --band value must equal --v2"),
    Row("fingerprint --json"),
    refused("fingerprint --coherent-energy 1e-310", "log(1/2eps)/C overflows at Chernoff "
            "information C = 7.80979696384e-312, eps = 0.0001"),
    refused("fingerprint --eps 1e-100", "quantum minus classical_lower_bound revealed bits at "
            "eps = 1e-100 keeps one sign for n in [10, 1e+12]"),
    Row("figures --id 2a --grid-size 3"),
    Row("figures --id 2b --grid-size 3"),
    Row("figures --id 2b --grid-size 5 --truncation 1"),
    # the tag count is tags.csv's data lines
    Row("ingest --tags tags.csv --theory 0.56,6.3", echo="# tags = 12514"),
    Row("ingest --tags tags.csv --window 4"),
    # at K = 3 the tally clamps the windows that hold more tags on a port
    Row("ingest --tags tags.csv --truncation 3"),
    # a window whose tenths of a ns pass int64 is refused; the widest that fits runs
    refused("ingest --tags tags.csv --window 922337203685477581",
            "window of 922337203685477581 ns exceeds int64 in tenths of a ns"),
    Row("ingest --tags tags.csv --window 922337203685477580"),
    # the narrowest window is the 3.3 ns timing resolution
    refused("ingest --tags tags.csv --window 3", "window shorter than the timing resolution"),
    refused("ingest --tags tags.csv --window 0", "window and resolution must be positive"),
    # 17-digit CRLF timestamps, whose last (999999999999999999 tenths) sets the count
    Row("ingest --tags crlf.csv", echo="# windows = 1250000000000"),
    refused("ingest --tags bad.csv", "line 3: bad timestamp '12a4.5'"),
    # a line longer than a parse chunk, then lines that fill chunks again
    Row("ingest --tags long.csv", echo="# tags = 5001"),
    # a decrease past the first chunk, after the tally has taken the blocks before it
    refused("ingest --tags late.csv", "line 30002: timestamps decrease"),
    refused("ingest --tags late.csv --out late.out", "line 30002: timestamps decrease"),
    Row("figures --id 2b --grid-size 20 --out map.csv"),
    Row("optimize"),
    Row("optimize --out opt.csv"),
    # dark counts scale |V| before the split-law cells are built; a fixed phase builds none
    Row("dist --dark 0.2 --v 0.9 --truncation 6"),
    refused("dist --dark 0.2 --v 1.5", "random-phase |V| = 1.5 must lie in [0, 1]"),
    refused("dist --dark 1e308", "E + 2*dark_mean overflows at dark_mean = 1e+308"),
    Row("dist --fixed-phase 0.3 --truncation 5"),
    Row("chernoff --marginal-diff --truncate 5"),
    Row("chernoff --marginal-diff --truncate 5 --json"),
    Row("figures --id 3"),
    Row("figures --id 3 --truncation 40"),
    Row("figures --id 3 --truncation 1"),
    Row("figures --id s2"),
    Row("figures --id 4c"),
    Row("figures --id 2b"),
    # an unsorted band with a repeat, and an equal pair: repeats share one split-law row
    Row("simulate --ensemble 100 --band 0.28,0,0.56,0.28"),
    Row("chernoff --v1 0.56 --v2 0.56 --json"),
    # 22 values with rows to n = 600, made and folded one value at a time
    Row("simulate --truncation 300 --ensemble 10 --n-list 1 --band "
        "0,0.028,0.056,0.084,0.112,0.14,0.168,0.196,0.224,0.252,0.28,0.308,0.336,0.364,0.392,0.42,"
        "0.448,0.476,0.504,0.532,0.56"),
    Row("optimize --hi 208"),
    Row("optimize --truncation 301 --hi 209"),
    refused("optimize --truncation 0", "truncation must be >= 1"),
    Row("optimize --v1 1e-5 --v2 0"),
    Row("optimize --lo 1 --hi 1.0000001"),
    Row("optimize --tol inf"),
    # a NaN Re(V) is refused by name, not later as a bad probability
    refused("chernoff --coherent --v1 nan", "Re(V) must lie in [-1, 1]"),
    # two |V| that clamp to 1 are refused as equal, not searched on rounding
    refused("optimize --v1 1 --v2 1.0000000001", "equal visibility magnitudes"),
    # --theory is checked before the file is opened, ahead of the bad line 3
    refused("ingest --tags bad.csv --theory 0.56,900",
            "split-law rows to n = 1182 at E = 900 pass 1000"),
    # the parser's own paths: the version, no command, defaults from a file
    Row("--version"),
    Row("", 2, r"(?s)usage: vistest .*\nvistest: error: the following arguments are required: "
               r"command\n"),
    Row("optimize --config opt.cfg"),
    refused("simulate --ensemble 10 --n-list=", "the N list is empty: name at least one N"),
]


def _poisson(rng, mean):
    """Knuth's product-of-uniforms draw, exact for the small means used here."""
    count, product, floor = 0, rng.random(), math.exp(-mean)
    while product > floor:
        count, product = count + 1, product * rng.random()
    return count


def write_inputs(directory):
    """The files the commands read: a random-phase stream of 2000 80 us
    windows at E = 6.3 and |V| = 0.56 from a fixed seed, the CRLF,
    bad-byte, over-long-line and late-decrease tag files, and an optimize
    --config file."""
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
        "opt.cfg": "# the search's low end and stop width\nlo = 0.5\ntol = 0.02\n",
    }
    for name, text in files.items():
        with open(os.path.join(directory, name), "w", newline="") as f:
            f.write(text)


def twin(command):
    """The command less its `--out X`, or None if it names no --out."""
    argv = command.split()
    if "--out" not in argv:
        return None
    at = argv.index("--out")
    return " ".join(argv[:at] + argv[at + 2:])


def run(tree, row, work):
    """(exit code, output, stderr, whether it wrote its --out file) of one
    row on one tree, run in work; exit code None if it ran past its limit."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"),
               PYTHONDONTWRITEBYTECODE="1")
    env.pop("VISTEST_OUTPUT_DIR", None)  # a relative --out then lands in work
    argv = row.command.split()
    out_path = os.path.join(work, argv[argv.index("--out") + 1]) if "--out" in argv else None
    if out_path is not None and os.path.exists(out_path):
        os.remove(out_path)  # an earlier command's file is no output of this one
    try:
        done = subprocess.run([sys.executable, "-m", "vistest.cli", *argv],
                              cwd=work, env=env, capture_output=True, timeout=row.limit)
    except subprocess.TimeoutExpired:
        return None, b"", b"", False
    output, wrote = done.stdout, out_path is not None and os.path.exists(out_path)
    if wrote:
        with open(out_path, "rb") as f:
            output += f.read()
    return done.returncode, output, done.stderr, wrote


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
    """The report entry of one row from its two (exit, output, stderr, ...)."""
    if base[:3] == head[:3]:
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


def _refuse_constant(token):
    raise ValueError(f"{token} is not JSON")


def misses(row, results):
    """What HEAD's run of a row misses of its expectations; results maps
    each row's command to what run returned for it."""
    code, output, stderr, wrote = results[row.command]
    stderr, found = stderr.decode(errors="replace"), []
    if code != row.exit:
        found.append(f"ran past {row.limit} s" if code is None else f"exit {code}, not {row.exit}")
    if not re.fullmatch(row.stderr, stderr):
        found.append(f"stderr {stderr!r}")
    if row.exit != 0 and (output or wrote):
        found.append("a refusal printed or wrote output")
    if row.echo is not None and row.echo not in output.decode(errors="replace").splitlines():
        found.append(f"no line {row.echo!r}")
    if row.exit == 0 and "--json" in row.command.split():
        try:
            json.loads(output, parse_constant=_refuse_constant)
        except ValueError as error:
            found.append(f"not strict JSON: {error}")
    for other, equal in ((twin(row.command), True), (row.same, True), (row.differs, False)):
        if other is not None and (output == results[other][1]) != equal:
            found.append(f"output {'differs from' if equal else 'equals'} that of {other!r}")
    return found


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("head")
    args = parser.parse_args(argv)
    for tree in (args.base, args.head):
        if not os.path.isfile(os.path.join(tree, "src", "vistest", "cli.py")):
            parser.error(f"{tree} holds no src/vistest/cli.py")
    report, heads = {"base": args.base, "head": args.head, "commands": []}, {}
    with tempfile.TemporaryDirectory() as work, ThreadPoolExecutor(2) as pool:
        works = [os.path.join(work, side) for side in ("base", "head")]
        for directory in works:  # the trees run at once, so each writes its own --out files
            os.mkdir(directory)
            write_inputs(directory)
        for row in COMMANDS:
            base, head = pool.map(run, (args.base, args.head), [row] * 2, works)
            report["commands"].append({"command": row.command, **compare(base, head)})
            heads[row.command] = head
    results = [entry["result"] for entry in report["commands"]]
    report["identical"], report["changed"] = results.count("identical"), results.count("changed")
    report["misses"] = [f"{row.command}: {miss}" for row in COMMANDS for miss in misses(row, heads)]
    json.dump(report, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 1 if report["misses"] else 0


if __name__ == "__main__":
    sys.exit(main())
