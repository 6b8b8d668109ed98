"""tools/outputs.py on two tiny fake trees whose CLI prints the same for
each of a few rows but three, one of them to its --out file, where one
cell moves by 1e-12 relative; on a fake tree that misses three rows'
expectations; and its command table against the real parser."""

import importlib.util
import json
import pathlib

import pytest

from vistest.cli import build_parser

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "outputs.py"
spec = importlib.util.spec_from_file_location("outputs", TOOL)
outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(outputs)

PLANTED = ["dist --truncation 4", "figures --id 2b --grid-size 20",
           "figures --id 2b --grid-size 20 --out map.csv"]
ROWS = [outputs.Row(command) for command in PLANTED] + [
    outputs.Row("chernoff --json"),
    outputs.refused("ingest --tags bad.csv", "line 3: bad timestamp '12a4.5'"),
    outputs.refused("chernoff --coherent --v1 nan", "Re(V) must lie in [-1, 1]"),
]

# broken: ingest exits 1, the nan refusal is reworded, and the --out file gains a line
FAKE_CLI = '''import json, sys
args, broken = sys.argv[1:], {broken!r}
if "--tags" in args:  # the input files are there, in the working directory
    stamp = open(args[args.index("--tags") + 1]).read().splitlines()[2].split(",")[1]
    sys.stderr.write(f"error: line 3: bad timestamp {{stamp!r}}\\n")
    sys.exit(1 if broken else 3)
if "nan" in args:
    sys.stderr.write("error: Re(V) is out of range\\n" if broken
                     else "error: Re(V) must lie in [-1, 1]\\n")
    sys.exit(3)
probs = [0.125, 0.3, 0.575]
if " ".join(args) in {planted!r}:
    probs[1] *= {factor!r}
if "--json" in args:
    text = json.dumps({{"command": args[0], "summary": {{"p": probs[1]}}}}) + "\\n"
else:
    text = "# energy = 6.3\\nk,prob\\n" + "".join(f"{{k}},{{p!r}}\\n" for k, p in enumerate(probs))
if "--out" in args:
    with open(args[args.index("--out") + 1], "w") as f:
        f.write(text + "extra\\n" * broken)
else:
    sys.stdout.write(text)
'''


@pytest.fixture
def few_rows(monkeypatch):
    # so that tier-1 does not run the whole table
    monkeypatch.setattr(outputs, "COMMANDS", ROWS)


def fake_tree(root, factor=1.0, broken=False):
    package = root / "src" / "vistest"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(FAKE_CLI.format(planted=PLANTED, factor=factor, broken=broken))
    return str(root)


def report(capsys, *argv, code=0):
    assert outputs.main(list(argv)) == code
    return json.loads(capsys.readouterr().out)


def test_reports_the_planted_cell_and_nothing_else(tmp_path, capsys, few_rows):
    base = fake_tree(tmp_path / "base")
    head = fake_tree(tmp_path / "head", 1.0 + 1e-12)
    got = report(capsys, base, head)
    assert [c["command"] for c in got["commands"]] == [row.command for row in ROWS]
    changed = [c for c in got["commands"] if c["result"] != "identical"]
    assert (got["identical"], got["changed"], got["misses"]) == (len(ROWS) - 3, 3, [])
    assert [c["command"] for c in changed] == PLANTED
    for entry in changed:  # the --out file's bytes are that command's output
        assert set(entry) == {"command", "result", "moves"}  # same exit, stderr and header
        assert list(entry["moves"]) == ["prob"]
        moved = entry["moves"]["prob"]
        assert moved["row"] == 2  # the second row below the column names
        assert moved["move"] == pytest.approx(1e-12, rel=1e-3, abs=0.0)
        assert float(moved["base"]) == 0.3


def test_a_missed_expectation_fails_naming_its_row(tmp_path, capsys, few_rows):
    got = report(capsys, fake_tree(tmp_path / "base"), fake_tree(tmp_path / "head", broken=True),
                 code=1)
    assert [miss.split(": ")[0] for miss in got["misses"]] == [
        "figures --id 2b --grid-size 20 --out map.csv", "ingest --tags bad.csv",
        "chernoff --coherent --v1 nan"]
    assert got["misses"][1] == "ingest --tags bad.csv: exit 1, not 3"


def test_each_rule_names_what_missed():
    rows = [outputs.Row("a --json"), outputs.Row("b", echo="# n = 1"), outputs.Row("c", same="b"),
            outputs.Row("d", differs="b"), outputs.refused("e --out e.csv", "no"),
            outputs.refused("e", "no"), outputs.Row("f", limit=60)]
    results = {"a --json": (0, b'{"p": NaN}', b"", False), "b": (0, b"# n = 10\n", b"", False),
               "c": (0, b"", b"", False), "d": (0, b"# n = 10\n", b"", False),
               "e --out e.csv": (3, b"", b"error: no\n", True), "e": (3, b"", b"error: no\n", False),
               "f": (None, b"", b"", False)}
    assert [outputs.misses(row, results) for row in rows] == [
        ["not strict JSON: NaN is not JSON"], ["no line '# n = 1'"],
        ["output differs from that of 'b'"], ["output equals that of 'b'"],
        ["a refusal printed or wrote output"], [], ["ran past 60 s"]]


def test_the_parser_accepts_every_command():
    # a row the parser stops (--version, and no command) stops with the row's exit code
    for row in outputs.COMMANDS:
        try:
            assert build_parser().parse_args(row.command.split()).command == row.command.split()[0]
        except SystemExit as stopped:
            assert stopped.code == row.exit
    commands = [row.command for row in outputs.COMMANDS]
    assert len(set(commands)) == len(commands)
    named = {name for row in outputs.COMMANDS for name in (outputs.twin(row.command), row.same,
                                                           row.differs)}
    assert named - {None} <= set(commands)


def test_the_tag_rows_echo_their_files_data_lines(tmp_path):
    outputs.write_inputs(tmp_path)
    for row in outputs.COMMANDS:
        if row.echo is not None and row.echo.startswith("# tags = "):
            data_lines = (tmp_path / row.command.split()[2]).read_bytes().count(b"\n") - 1
            assert row.echo == f"# tags = {data_lines}"


def test_exit_header_and_text_changes(tmp_path, capsys):
    base = (0, b"# vistest 1\n# energy = 6.3\nk,prob\n0,0.5\n1,0.5\n", b"")
    head = (3, b"# vistest 2\n# energy = 6.4\nk,p\n0,0.5\n", b"error: no\n")
    entry = outputs.compare(base, head)
    assert entry["exit"] == [0, 3]
    assert entry["stderr"] == ["", "error: no\n"]
    assert entry["header"] == [["# vistest 1", "k,prob"], ["# vistest 2", "k,p"]]
    assert entry["moves"]["# energy"]["move"] == pytest.approx(0.1 / 6.4)
    assert entry["text_count"] == 4  # a renamed column and a dropped row pair up with nothing
    assert outputs.compare(base, base) == {"result": "identical"}
    signed = outputs.compare((0, b"k,prob\n0,0.0\n", b""), (0, b"k,prob\n0,-0.0\n", b""))
    assert signed == {"result": "changed", "text": [{"column": "prob", "row": 1, "base": "0.0",
                                                     "head": "-0.0"}], "text_count": 1}


def test_missing_tree(tmp_path):
    tree = fake_tree(tmp_path / "tree")
    with pytest.raises(SystemExit) as refused:
        outputs.main([tree, str(tmp_path / "missing")])
    assert refused.value.code == 2
