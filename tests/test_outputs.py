"""tools/outputs.py on two tiny fake trees whose CLI prints the same for
every command but two, one to stdout and one to its --out file, where one
cell moves by 1e-12 relative; and its command list against the real
parser."""

import importlib.util
import json
import pathlib

import pytest

from vistest.cli import build_parser

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "outputs.py"
spec = importlib.util.spec_from_file_location("outputs", TOOL)
outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(outputs)

PLANTED = ["dist --truncation 4", "figures --id 2b --grid-size 20 --out map.csv"]

FAKE_CLI = '''import json, os, sys
args = sys.argv[1:]
probs = [0.125, 0.3, 0.575]
if " ".join(args) in {planted!r}:
    probs[1] *= {factor!r}
lines = []
if "--tags" in args:  # the input files are there, in the working directory
    lines.append(f"# bytes = {{os.path.getsize(args[args.index('--tags') + 1])}}")
if "--json" in args:
    lines.append(json.dumps({{"command": args[0], "summary": {{"p": probs[1]}}}}))
elif "bad.csv" in args:
    sys.exit("error: line 3: not a tag")
else:
    lines += ["# command = " + " ".join(args), "# energy = 6.3", "k,prob"]
    lines += [f"{{k}},{{p!r}}" for k, p in enumerate(probs)]
text = "".join(line + "\\n" for line in lines)
if "--out" in args:
    with open(args[args.index("--out") + 1], "w") as f:
        f.write(text)
else:
    sys.stdout.write(text)
'''


def fake_tree(root, factor):
    package = root / "src" / "vistest"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(FAKE_CLI.format(planted=PLANTED, factor=factor))
    return str(root)


def report(capsys, *argv):
    assert outputs.main(list(argv)) == 0
    return json.loads(capsys.readouterr().out)


def test_reports_the_planted_cell_and_nothing_else(tmp_path, capsys):
    base = fake_tree(tmp_path / "base", 1.0)
    head = fake_tree(tmp_path / "head", 1.0 + 1e-12)
    got = report(capsys, base, head)
    assert [c["command"] for c in got["commands"]] == outputs.COMMANDS
    changed = [c for c in got["commands"] if c["result"] != "identical"]
    assert (got["identical"], got["changed"]) == (len(outputs.COMMANDS) - 2, 2)
    assert [c["command"] for c in changed] == PLANTED
    for entry in changed:  # the --out file's bytes are that command's output
        assert set(entry) == {"command", "result", "moves"}  # same exit, stderr and header
        assert list(entry["moves"]) == ["prob"]
        moved = entry["moves"]["prob"]
        assert moved["row"] == 2  # the second row below the column names
        assert moved["move"] == pytest.approx(1e-12, rel=1e-3, abs=0.0)
        assert float(moved["base"]) == 0.3


def test_the_parser_accepts_every_command():
    # an entry argparse refused would compare two usage errors and read "identical"
    for command in outputs.COMMANDS:
        assert build_parser().parse_args(command.split()).command == command.split()[0]


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
    tree = fake_tree(tmp_path / "tree", 1.0)
    with pytest.raises(SystemExit) as refused:
        outputs.main([tree, str(tmp_path / "missing")])
    assert refused.value.code == 2
