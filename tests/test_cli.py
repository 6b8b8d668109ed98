import argparse
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vistest import __version__, chernoff, cli, energyopt, photostat as ps, simkit, tagio
from vistest.cli import build_parser, main

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def count_builds_and_solves(monkeypatch):
    """Record the arguments of every table build and every Newton solve,
    on a table pair or on the energy search's split-law cells."""
    tables, solves = [], []
    build, solve = ps.joint_random_phase, chernoff._minimum
    monkeypatch.setattr(ps, "joint_random_phase", lambda *a: tables.append(a) or build(*a))
    monkeypatch.setattr(chernoff, "_minimum", lambda *a: solves.append(a) or solve(*a))
    return tables, solves


def count_split_rows(monkeypatch):
    """Record the arguments of every split-law row set built."""
    split_rows, build = [], ps._split_rows
    monkeypatch.setattr(ps, "_split_rows", lambda *a: split_rows.append(a) or build(*a))
    return split_rows


def make_tag_file(directory, windows=400):
    rng = np.random.default_rng(12)
    config = tagio.BinningConfig()
    block = tagio.synthesize_tags(rng, 6.3, 0.56, config, windows=windows)
    path = directory / "tags.csv"
    with open(path, "w") as f:
        tagio.write_tags([block], f)
    return path


class TestDist:
    def test_stdout_table(self, capsys):
        code, out, err = run(capsys, "dist", "--v", "0.56", "--energy", "6.3",
                             "--truncation", "3")
        assert code == 0
        assert err == ""
        lines = out.strip().split("\n")
        assert lines[0] == f"# vistest {__version__}"
        assert "k,kprime,prob" in lines
        data_start = lines.index("k,kprime,prob") + 1
        assert len(lines) - data_start == 16
        k, kp, prob = lines[data_start].split(",")
        expected = ps.joint_random_phase(ps.DetectionParams(6.3, 0.0, 3), 0.56)
        assert float(prob) == expected.probs[0, 0]

    def test_fixed_phase_keeps_negative_visibility(self, capsys):
        # Re V < 0 is a real setting when the phase is locked
        code, out, _ = run(capsys, "dist", "--v", "-0.5", "--fixed-phase", "0.3",
                           "--truncation", "2")
        assert code == 0
        _, flipped, _ = run(capsys, "dist", "--v", "0.5", "--fixed-phase", "0.3",
                            "--truncation", "2")
        assert out.split("k,kprime,prob")[1] != flipped.split("k,kprime,prob")[1]

    def test_fixed_phase_variant(self, capsys):
        code, out, _ = run(capsys, "dist", "--v", "1.0", "--energy", "2.0",
                           "--truncation", "2", "--fixed-phase", "0.0")
        assert code == 0
        rows = [l for l in out.strip().split("\n") if not l.startswith("#")][1:]
        table = {(r.split(",")[0], r.split(",")[1]): float(r.split(",")[2])
                 for r in rows}
        assert table[("0", "1")] == 0.0  # dark port stays dark

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "dist.csv"
        code, out, _ = run(capsys, "dist", "--truncation", "2",
                           "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith(f"# vistest {__version__}")

    @pytest.mark.parametrize("block", [1, 5, 16])
    def test_rows_are_written_in_blocks(self, capsys, tmp_path, monkeypatch, block):
        # 16 rows: one write each, blocks with a short last one, and one block
        whole = run(capsys, "dist", "--truncation", "3")[1]
        monkeypatch.setattr(cli, "ROWS_PER_WRITE", block)

        class Sink(io.StringIO):
            writes = 0

            def write(self, text):
                self.writes += 1
                return super().write(text)

        monkeypatch.setattr(sys, "stdout", Sink())
        assert main(["dist", "--truncation", "3"]) == 0
        assert (sys.stdout.getvalue(), sys.stdout.writes) == (whole, 1 + -(-16 // block))
        target = tmp_path / "dist.csv"
        assert main(["dist", "--truncation", "3", "--out", str(target)]) == 0
        assert target.read_text() == whole

    def test_output_dir_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("VISTEST_OUTPUT_DIR", str(tmp_path))
        code, _, _ = run(capsys, "dist", "--truncation", "2", "--out", "rel.csv")
        assert code == 0
        assert (tmp_path / "rel.csv").exists()

    def test_csv_cells(self, capsys):
        code, out, _ = run(capsys, "dist", "--energy", "1", "--v", "0.5", "--truncation", "1")
        assert code == 0
        lines = [l for l in out.strip().split("\n") if not l.startswith("#")]
        assert lines[0] == "k,kprime,prob"
        assert len(lines) == 5
        k, kp, prob = lines[1].split(",")
        assert (k, kp) == ("0", "0")
        expected = ps.joint_random_phase(ps.DetectionParams(1.0, 0.0, 1), 0.5).probs[0, 0]
        assert float(prob) == expected
        assert prob == f"{expected:.17g}"
        assert len(prob.replace(".", "").replace("-", "").lstrip("0")) >= 15

    def test_absolute_path_ignores_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("VISTEST_OUTPUT_DIR", str(tmp_path / "unused"))
        target = tmp_path / "abs.csv"
        code, _, _ = run(capsys, "dist", "--truncation", "2",
                         "--out", str(target))
        assert code == 0
        assert target.exists()


class TestChernoff:
    def test_json_summary(self, capsys):
        code, out, _ = run(capsys, "chernoff", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "chernoff"
        info = doc["summary"]["information_nats"]
        assert 0.06 < info < 0.08
        assert doc["summary"]["info_per_photon"] == pytest.approx(info / 6.3)

    def test_coherent_flag(self, capsys):
        code, out, _ = run(capsys, "chernoff", "--coherent", "--v1", "1",
                           "--v2", "-1", "--energy", "2.5", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"]["information_nats"] == pytest.approx(2.5, abs=1e-9)

    def test_marginal_and_truncate_reduce_information(self, capsys):
        _, full, _ = run(capsys, "chernoff", "--json")
        _, diff, _ = run(capsys, "chernoff", "--marginal-diff", "--json")
        _, coarse, _ = run(capsys, "chernoff", "--truncate", "2", "--json")
        get = lambda t: json.loads(t)["summary"]["information_nats"]
        assert get(diff) < get(full)
        assert get(coarse) < get(full)

    def test_csv_report(self, capsys):
        code, out, _ = run(capsys, "chernoff")
        assert code == 0
        assert "quantity,value" in out
        assert "information_nats," in out

    def test_non_finite_value_is_null_in_json_and_nan_in_csv(self, capsys):
        # the coherent form leaves sigma undefined at V1 = 1; NaN is not JSON
        argv = ["chernoff", "--coherent", "--v1", "1.0", "--v2", "0.5"]
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0

        def refuse(token):
            raise ValueError(f"non-JSON constant {token}")

        summary = json.loads(out, parse_constant=refuse)["summary"]
        assert summary["sigma"] is None
        assert summary["information_nats"] == pytest.approx(1.575)
        assert "sigma,nan\n" in run(capsys, *argv)[1]

    def test_builds_the_pair_from_one_split_row_set(self, capsys, monkeypatch):
        split_rows = count_split_rows(monkeypatch)
        assert run(capsys, "chernoff")[0] == 0
        assert len(split_rows) == 1

    def test_truncate_above_truncation_refused(self, capsys):
        code, out, err = run(capsys, "chernoff", "--truncate", "40")
        assert (code, out) == (3, "")
        assert "K = 15" in err and "K = 40" in err


class TestOptimize:
    def test_json_summary(self, capsys):
        code, out, _ = run(capsys, "optimize", "--json", "--tol", "0.2")
        assert code == 0
        doc = json.loads(out)
        assert float(doc["summary"]["optimum_energy"]) == pytest.approx(6.6, abs=0.3)

    def test_at_boundary_reported(self, capsys):
        _, out, _ = run(capsys, "optimize", "--json", "--tol", "0.2")
        assert json.loads(out)["summary"]["at_boundary"] is False
        _, out, _ = run(capsys, "optimize", "--v1", "1.0", "--v2", "0.98", "--tol", "0.2")
        assert "# at_boundary = True\n" in out
        assert "# optimum_energy = 30\n" in out

    def test_scan_csv(self, capsys):
        code, out, _ = run(capsys, "optimize", "--tol", "0.2")
        assert code == 0
        rows = [l for l in out.strip().split("\n") if not l.startswith("#")]
        assert rows[0] == "energy,info_per_photon"
        assert len(rows) == 61

    def test_scan_solves_every_energy(self, capsys, monkeypatch):
        # 60 scan energies and 9 refinement evaluations, each one Newton solve
        # on split-law cells; the search builds no table (it built 138)
        tables, solves = count_builds_and_solves(monkeypatch)
        assert run(capsys, "optimize")[0] == 0
        assert (len(solves), len(tables)) == (69, 0)


class TestSimulate:
    # the refined bound only undercuts exp(-NC)/2 once N is moderately
    # large, so start the grid at 5
    ARGS = ("simulate", "--n-list", "5,10", "--ensemble", "200", "--seed", "7")

    def test_deterministic_reruns(self, capsys):
        code1, out1, _ = run(capsys, *self.ARGS)
        code2, out2, _ = run(capsys, *self.ARGS)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_columns_and_bounds(self, capsys):
        _, out, _ = run(capsys, *self.ARGS)
        rows = [l for l in out.strip().split("\n") if not l.startswith("#")]
        header = rows[0].split(",")
        assert header == ["N", "eps_mean", "eps_std", "chernoff_bound",
                          "refined_bound", "band_lo", "band_hi"]
        for row in rows[1:]:
            fields = row.split(",")
            assert float(fields[3]) <= 0.5
            assert float(fields[4]) < float(fields[3])

    def test_single_n_row_matches_default_list(self, capsys):
        # every N is read from a prefix of the same per-hypothesis streams
        args = ("simulate", "--ensemble", "300", "--seed", "7")
        _, full, _ = run(capsys, *args)
        _, single, _ = run(capsys, *args, "--n-list", "5")
        row = lambda text: [l for l in text.split("\n") if l.startswith("5,")]
        assert row(single) == row(full) and len(row(full)) == 1

    def test_band_columns_filled(self, capsys):
        _, out, _ = run(capsys, "simulate", "--n-list", "2", "--ensemble", "100",
                        "--seed", "7", "--band", "0.28,0.56")
        row = [l for l in out.strip().split("\n") if not l.startswith("#")][1]
        fields = row.split(",")
        assert fields[5] != "" and fields[6] != ""
        assert float(fields[5]) <= float(fields[6])

    BAND = ("--band", "0,0.14,0.28,0.42,0.56")

    @pytest.mark.parametrize("seed", [3, 41, 2718, 65537, 90210])
    def test_estimate_lies_inside_its_band(self, capsys, seed):
        # the printed estimate is the band's design-point member
        _, out, _ = run(capsys, "simulate", "--ensemble", "300", "--seed", str(seed), *self.BAND)
        rows = [l.split(",") for l in out.strip().split("\n") if not l.startswith("#")][1:]
        assert len(rows) == 15
        for row in rows:
            assert float(row[5]) <= float(row[1]) <= float(row[6]), row
        params = ps.DetectionParams(6.3, 0.0, 15)
        p1, p2 = ps.random_phase_tables(params, [0.98, 0.56])
        sources = [ps.joint_random_phase(params, v) for v in (0.0, 0.14, 0.28, 0.42)] + [p2]
        band = simkit.worst_case_sweep(p1, p2, sources, [int(row[0]) for row in rows], 300, seed)
        assert [float(row[1]) for row in rows] == [b.estimates[-1].error_mean for b in band]

    def test_band_builds_one_split_row_set_and_reads_each_stream_once(
            self, capsys, monkeypatch):
        streams, stream = [], simkit.dataset_rng
        split_rows = count_split_rows(monkeypatch)
        monkeypatch.setattr(simkit, "dataset_rng",
                            lambda *a: streams.append(a) or stream(*a))
        code, _, _ = run(capsys, "simulate", "--n-list", "1,5", "--ensemble", "50", *self.BAND)
        assert code == 0
        # every table, the (v1, v2) pair and the band's, folds from one row set
        assert len(split_rows) == 1
        assert len(streams) == len(set(streams)) == 6

    def test_builds_the_pair_once_and_solves_it_once(self, capsys, monkeypatch):
        solves = count_builds_and_solves(monkeypatch)[1]
        split_rows = count_split_rows(monkeypatch)
        code, _, _ = run(capsys, "simulate", "--ensemble", "100")
        assert code == 0
        assert (len(split_rows), len(solves)) == (1, 1)

    def test_without_band_equals_error_curve(self, capsys):
        n_list = [1, 3, 8]
        _, out, _ = run(capsys, "simulate", "--n-list", "1,3,8", "--ensemble", "400",
                        "--seed", "13")
        rows = [l.split(",") for l in out.strip().split("\n") if not l.startswith("#")][1:]
        p1, p2 = ps.random_phase_tables(ps.DetectionParams(6.3, 0.0, 15), [0.98, 0.56])
        curve = simkit.estimate_error(p1, p2, n_list, 400, 13)
        assert [(int(r[0]), float(r[1]), float(r[2])) for r in rows] == [
            (n, e.error_mean, e.error_std) for n, e in zip(n_list, curve)]
        assert all(r[5] == r[6] == "" for r in rows)

    @pytest.mark.parametrize("option,message", [
        # the band's test is designed at --v2, so the band must end there
        (["--band", "0,0.3"], "the largest --band value must equal --v2"),
        # a negative magnitude would otherwise pass as a phase of pi
        (["--band=-0.2,0.56"], "random-phase |V| = -0.2 must lie in [0, 1]"),
        (["--v1", "-0.1"], "random-phase |V| = -0.1 must lie in [0, 1]"),
        # every |V| is checked, in the order v1, v2, band, before the design point
        (["--v1", "-0.1", "--band", "0,0.3"], "random-phase |V| = -0.1 must lie in [0, 1]"),
        (["--band=-0.2,0.3"], "random-phase |V| = -0.2 must lie in [0, 1]"),
    ], ids=["design-point", "band-visibility", "v1-visibility", "v1-before-design-point",
            "band-visibility-before-design-point"])
    def test_refused_before_sampling(self, capsys, monkeypatch, option, message):
        def refuse(*args):
            raise AssertionError("the Monte Carlo ran")

        monkeypatch.setattr(simkit, "worst_case_sweep", refuse)
        code, out, err = run(capsys, "simulate", "--n-list", "1", "--ensemble", "10", *option)
        assert (code, out) == (3, "")
        assert err == f"error: {message}\n"


class TestFingerprint:
    def test_json_summary(self, capsys):
        code, out, _ = run(capsys, "fingerprint", "--json")
        assert code == 0
        doc = json.loads(out)
        summary = doc["summary"]
        assert summary["rate_gv"] == pytest.approx(0.2505, abs=0.005)
        assert summary["rate_modified"] == pytest.approx(0.1215, abs=0.005)
        assert summary["n_vs_best_classical"] < summary["n_vs_classical_limit"]

    def test_curve_csv(self, capsys):
        code, out, _ = run(capsys, "fingerprint", "--coherent-energy", "3.0")
        assert code == 0
        rows = [l for l in out.strip().split("\n") if not l.startswith("#")]
        assert rows[0].startswith("n,I_quantum_incoherent,I_quantum_coherent")
        assert len(rows) == 102
        first = rows[1].split(",")
        assert all(field for field in first)

    @pytest.mark.parametrize("v1,v2,edge", [(0.98, 0.56, False), (1.0, 0.94, True)])
    def test_reports_an_energy_at_the_search_edge(self, capsys, v1, v2, edge):
        _, csv, _ = run(capsys, "fingerprint", "--v1", str(v1), "--v2", str(v2))
        code, out, _ = run(capsys, "fingerprint", "--v1", str(v1), "--v2", str(v2), "--json")
        assert code == 0
        assert f"# at_boundary = {edge}\n" in csv
        assert json.loads(out)["summary"]["at_boundary"] is edge

    def test_one_energy_search_per_invocation(self, capsys, monkeypatch):
        searches = []
        search = energyopt.optimal_energy

        def counted(*args, **kwargs):
            searches.append(args[:2])
            return search(*args, **kwargs)

        monkeypatch.setattr(energyopt, "optimal_energy", counted)
        code, _, _ = run(capsys, "fingerprint", "--coherent-energy", "3.0")
        assert code == 0
        assert searches == [(0.98, 0.56)]


class TestIngest:
    def test_histogram_output(self, capsys, tmp_path):
        path = make_tag_file(tmp_path)
        code, out, _ = run(capsys, "ingest", "--tags", str(path), "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"]["windows"] >= 399
        assert doc["summary"]["total_outcomes"] == doc["summary"]["windows"]

    def test_theory_comparison(self, capsys, tmp_path):
        path = make_tag_file(tmp_path, windows=2000)
        code, out, _ = run(capsys, "ingest", "--tags", str(path),
                           "--theory", "0.56,6.3", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"]["consistent"] is True

    def test_csv_cells(self, capsys, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("channel,timestamp_ns\n1,5\n")
        code, out, _ = run(capsys, "ingest", "--tags", str(path), "--truncation", "1")
        assert code == 0
        assert "".join(l for l in out.splitlines(keepends=True) if not l.startswith("#")) == \
            "k,kprime,count\n0,0,0\n0,1,1\n1,0,0\n1,1,0\n"

    def test_malformed_tags_exit_3(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("channel,timestamp_ns\n5,100\n")
        code, _, err = run(capsys, "ingest", "--tags", str(path))
        assert code == 3
        assert "error:" in err and "line 2" in err

    @pytest.mark.parametrize("line,message", [
        (b"1,1\xff0", "not valid UTF-8"),
        (b"1,9999999999999999999999", "bad timestamp"),
        (b"1,+2000", "bad timestamp"),
    ], ids=["invalid-utf8", "beyond-int64", "signed"])
    def test_refused_line_exit_3(self, capsys, tmp_path, line, message):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"channel,timestamp_ns\n0,100\n" + line + b"\n")
        code, out, err = run(capsys, "ingest", "--tags", str(path))
        assert (code, out) == (3, "")
        assert err.startswith("error: line 3:") and message in err

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    def test_late_decrease_writes_nothing(self, capsys, tmp_path, to_file):
        # the decrease lies over 256 KiB in, past the first chunk, so the tally has already
        # taken the blocks before it when the parse refuses the file
        lines = [f"{i % 2},{1000 * i}.5" for i in range(40_000)]
        lines[30_000] = "0,5.0"  # line 30002 of the file, after the header
        text = "channel,timestamp_ns\n" + "\n".join(lines) + "\n"
        assert text.index("\n0,5.0\n") > 2**18
        path, out_path = tmp_path / "late.csv", tmp_path / "hist.csv"
        path.write_text(text)
        code, out, err = run(capsys, "ingest", "--tags", str(path),
                             *(["--out", str(out_path)] if to_file else []))
        assert (code, out) == (3, "")
        assert err == "error: line 30002: timestamps decrease\n"
        assert not out_path.exists()

    def test_header_only_file_reports_no_tags(self, capsys, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("channel,timestamp_ns\n")
        code, out, err = run(capsys, "ingest", "--tags", str(path))
        assert (code, err) == (0, "")
        assert "# tags = 0\n# windows = 0\n# total_outcomes = 0\n" in out

    def test_window_count_does_not_size_memory(self, capsys, tmp_path):
        # 2.5e11 windows of 4 ns: empty windows are counted, never stored
        path = tmp_path / "sparse.csv"
        path.write_text("channel,timestamp_ns\n0,5\n1,7.5\n0,1000000000000\n")
        code, out, err = run(capsys, "ingest", "--tags", str(path), "--window", "4")
        assert (code, err) == (0, "")
        assert "# windows = 250000000001\n" in out
        assert "# total_outcomes = 250000000001\n" in out
        assert "\n0,0,249999999999\n" in out and "\n1,1,1\n" in out and "\n1,0,1\n" in out

    def test_header_only_file(self, capsys, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("channel,timestamp_ns\n")
        code, out, _ = run(capsys, "ingest", "--tags", str(path), "--json")
        assert code == 0
        assert json.loads(out)["summary"] == {"tags": 0, "windows": 0, "total_outcomes": 0}
        code, out, err = run(capsys, "ingest", "--tags", str(path), "--theory", "0.56,6.3")
        assert (code, out) == (3, "")
        assert "empty histogram" in err

    @pytest.mark.parametrize("option,message", [
        (["--theory", "0.56"], "--theory takes v,energy"),
        (["--theory", "1.5,6.3"], "random-phase |V| = 1.5 must lie in [0, 1]"),
        (["--window", "0"], "window and resolution must be positive"),
        (["--truncation", "0"], "truncation must be >= 1"),
        # its tenths of a ns would overflow the int64 window arithmetic
        (["--window", "922337203685477581"],
         "window of 922337203685477581 ns exceeds int64 in tenths of a ns"),
        (["--theory", "0.56,-1"], "mean_detected_energy must be finite and >= 0"),
        (["--theory", "0.56,nan"], "mean_detected_energy must be finite and >= 0"),
        (["--theory", "0.56,inf"], "mean_detected_energy must be finite and >= 0"),
        # the table's split-law rows would pass the row limit: at E = 900, or at 2K = 1200
        (["--theory", "0.56,900"], "split-law rows to n = 1182 at E = 900 pass 1000"),
        (["--truncation", "600", "--theory", "0.5,1"],
         "split-law rows to n = 1200 at E = 1 pass 1000"),
    ], ids=["theory-arity", "theory-visibility", "window", "truncation", "window-int64",
            "theory-negative-energy", "theory-nan-energy", "theory-infinite-energy",
            "theory-rows-past-the-limit", "theory-truncation-past-the-limit"])
    def test_bad_option_refused_before_the_file_is_read(self, capsys, tmp_path, monkeypatch,
                                                        option, message):
        def refuse(source):
            raise AssertionError("the tag file was parsed")

        monkeypatch.setattr(tagio, "parse_tags", refuse)
        code, out, err = run(capsys, "ingest", "--tags", str(make_tag_file(tmp_path)), *option)
        assert (code, out) == (3, "")
        assert err == f"error: {message}\n"

    def test_theory_table_is_built_after_the_tally(self, capsys, tmp_path, monkeypatch):
        # so that the numpy code the table build first runs is not resident under the parse
        calls, tally, build = [], tagio.tally, ps.joint_random_phase
        monkeypatch.setattr(tagio, "tally", lambda *a: calls.append("tally") or tally(*a))
        monkeypatch.setattr(ps, "joint_random_phase",
                            lambda *a: calls.append("table") or build(*a))
        code, _, err = run(capsys, "ingest", "--tags", str(make_tag_file(tmp_path)),
                           "--theory", "0.56,6.3")
        assert (code, err, calls) == (0, "", ["tally", "table"])

    def test_missing_file_exit_3(self, capsys, tmp_path):
        code, _, err = run(capsys, "ingest", "--tags", str(tmp_path / "nope.csv"))
        assert code == 3
        assert "error:" in err

    def test_empty_file_exit_3(self, capsys, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        code, out, err = run(capsys, "ingest", "--tags", str(path))
        assert (code, out) == (3, "")
        assert err.startswith("error:") and "expected header" in err


class TestConfigFile:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nv = 0.3\ntruncation = 2\n")
        code, out, _ = run(capsys, "dist", "--config", str(cfg))
        assert code == 0
        assert "# v = 0.3" in out
        assert "# truncation = 2" in out

    def test_cli_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("v = 0.3\n")
        code, out, _ = run(capsys, "dist", "--truncation", "2",
                           "--v", "0.9", "--config", str(cfg))
        assert code == 0
        assert "# v = 0.9" in out

    def test_bad_config_line_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("not a pair\n")
        code, _, err = run(capsys, "dist", "--config", str(cfg))
        assert code == 2
        assert "error:" in err

    def test_missing_config_file_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "dist", "--config", str(tmp_path / "no.cfg"))
        assert code == 2

    def test_equals_form(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("v1 = 0.9\n")
        code, out, _ = run(capsys, "optimize", "--tol", "0.2", f"--config={cfg}")
        assert code == 0
        assert "# v1 = 0.9" in out.splitlines()

    def test_boolean_keys(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("json = true\n")
        code, out, _ = run(capsys, "chernoff", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["command"] == "chernoff"
        cfg.write_text("json = false\nmarginal_diff = False\n")
        code, out, _ = run(capsys, "chernoff", "--config", str(cfg))
        assert code == 0
        assert "# marginal_diff = False" in out
        assert "quantity,value" in out

    def test_unknown_key_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("v1 = 0.9\nbogus_key = 1\n")
        code, _, err = run(capsys, "chernoff", "--config", str(cfg))
        assert code == 2
        assert "bogus_key" in err

    def test_bad_boolean_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("json = 1\n")
        code, _, err = run(capsys, "chernoff", "--config", str(cfg))
        assert code == 2
        assert "json" in err


TAGS = "<tag file>"


# one quick invocation of each command
ECHO_ARGV = {
    "dist": ["--truncation", "1"],
    "chernoff": ["--truncation", "4"],
    "optimize": ["--hi", "2"],
    "simulate": ["--n-list", "1", "--ensemble", "10"],
    "fingerprint": [],
    "ingest": ["--tags", TAGS],
    "figures": ["--id", "2a", "--grid-size", "2"],
}


def subparsers():
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


class TestEcho:
    def test_every_command_is_probed(self):
        assert set(ECHO_ARGV) == set(subparsers())

    @pytest.mark.parametrize("command", sorted(ECHO_ARGV))
    def test_echo_lists_every_option(self, capsys, tmp_path, command):
        sub = subparsers()[command]
        dests = {a.dest for a in sub._actions} - {"help", "out", "config", "json"}
        argv = [str(make_tag_file(tmp_path)) if a == TAGS else a for a in ECHO_ARGV[command]]
        code, out, _ = run(capsys, command, *argv)
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == f"# command = {command}"
        comments = [l for l in lines[2:] if l.startswith("# ")]
        if "--json" not in sub._option_string_actions:
            assert {l[2:].partition(" = ")[0] for l in comments} == dests
            return
        code, out, _ = run(capsys, command, *argv, "--json")
        assert code == 0
        config = json.loads(out)["config"]
        assert set(config) == dests
        # the echo leads; summary lines, if any, follow it
        assert comments[:len(dests)] == [f"# {k} = {v}" for k, v in sorted(config.items())]

    def test_figures_echo_coherent_energy(self, capsys):
        code, out, _ = run(capsys, "figures", "--id", "2b", "--grid-size", "3",
                           "--coherent-energy", "5")
        assert code == 0
        assert "# coherent_energy = 5.0\n" in out


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["chernoff", "--energy", "not-a-number"])
        assert err.value.code == 2

    def test_domain_error_is_3(self, capsys):
        code, _, err = run(capsys, "dist", "--v", "1.5")
        assert code == 3
        assert err.startswith("error:")

    @pytest.mark.parametrize("argv", [
        ["chernoff", "--energy", "0"],
        ["chernoff", "--coherent", "--energy", "0"],
        ["fingerprint", "--eps", "0"],
        ["fingerprint", "--eps", "-1"],
        ["figures", "--id", "2b", "--grid-size", "-1"],
        ["optimize", "--hi", "inf"],
        ["optimize", "--hi", "1e4"],
        # the band's test is designed at --v2, so the band must end there
        ["simulate", "--n-list", "1", "--ensemble", "10", "--band", "0,0.3"],
        ["simulate", "--n-list", "1", "--ensemble", "10", "--v2", "-0.5"],
        ["simulate", "--n-list", "1", "--ensemble", "10", "--band=-0.2,0.56"],
        ["optimize", "--tol", "0"],
        ["optimize", "--tol", "-1"],
        ["optimize", "--tol", "nan"],
        # a negative list is a value, not an unknown option
        ["simulate", "--n-list", "1", "--ensemble", "10", "--band", "-0.2,0.56"],
        # a random-phase |V| has no sign to fold into a phase
        ["dist", "--v", "-0.5"],
        ["chernoff", "--v1", "-0.98"],
        ["optimize", "--v1", "-0.98"],
        ["ingest", "--tags", TAGS, "--theory=-0.56,6.3"],
        ["ingest", "--tags", TAGS, "--theory", "-0.56,6.3"],
        # -inf and -nan are values too
        ["dist", "--energy", "-inf"],
        ["optimize", "--lo", "-inf"],
        ["chernoff", "--energy", "-nan"],
        # an energy search's resolution floor is refused below 1, not clamped
        ["optimize", "--truncation", "-7"],
        ["fingerprint", "--truncation", "0"],
        ["figures", "--id", "2b", "--grid-size", "3", "--truncation", "0"],
        ["figures", "--id", "3", "--truncation", "0"],
        # a seed must be a non-negative integer
        ["simulate", "--seed", "-1"],
        ["figures", "--id", "4c", "--seed", "-1"],
        # N and M are refused by name
        ["simulate", "--ensemble", "0"],
        ["simulate", "--n-list", "0", "--ensemble", "10"],
        # a tenths-of-a-ns window past int64, and a coherent C whose log(1/2eps)/C overflows
        ["ingest", "--tags", TAGS, "--window", "922337203685477581"],
        ["fingerprint", "--coherent-energy", "1e-310"],
        ["fingerprint", "--coherent-energy", "1e-320"],
        ["fingerprint", "--eps", "1e-320"],
        # so many repetitions that no length in the searched range has a crossover
        ["fingerprint", "--eps", "1e-100"],
        # split-law rows past n = 1000, refused before the table is allocated
        ["dist", "--truncation", "20000"],
    ])
    def test_out_of_range_input_is_3(self, capsys, tmp_path, argv):
        if TAGS in argv:
            argv = [str(make_tag_file(tmp_path)) if a == TAGS else a for a in argv]
        code, _, err = run(capsys, *argv)
        assert code == 3
        assert err.startswith("error:")

    @pytest.mark.parametrize("argv,message", [
        # the energy search names the |V| it refuses, as dist and chernoff do
        (["optimize", "--v1", "nan"], "random-phase |V| = nan must lie in [0, 1]"),
        (["optimize", "--v2", "1.5"], "random-phase |V| = 1.5 must lie in [0, 1]"),
        # its top energy is refused by the K it would need, naming the energy
        (["optimize", "--hi", "209"], "E = 209 needs a resolution K above the limit 300; "
                                      "energies up to about 208 can be searched"),
        (["optimize", "--hi", "inf"], "E = inf needs a resolution K above the limit 300; "
                                      "energies up to about 208 can be searched"),
    ])
    def test_search_refusal_names_the_input(self, capsys, argv, message):
        assert run(capsys, *argv) == (3, "", f"error: {message}\n")

    def test_unwritable_output_is_3(self, capsys, tmp_path):
        code, _, err = run(capsys, "dist", "--truncation", "2",
                           "--out", str(tmp_path / "no-dir" / "x.csv"))
        assert code == 3


class TestFigures:
    def test_coherent_surface(self, capsys):
        code, out, _ = run(capsys, "figures", "--id", "2a", "--grid-size", "5")
        assert code == 0
        rows = [l for l in out.strip().split("\n") if not l.startswith("#")]
        assert rows[0] == "re_v1,re_v2,info_per_photon"
        assert len(rows) == 26

    def test_scan_curves_build_one_split_row_set(self, capsys, monkeypatch):
        # all 60 energies and all three readouts read one set of split-law
        # rows, cut at the top energy; the K-table path built 240 tables
        tables, split_rows = count_builds_and_solves(monkeypatch)[0], count_split_rows(monkeypatch)
        code, out, _ = run(capsys, "figures", "--id", "3")
        assert code == 0
        assert (len(split_rows), len(tables)) == (1, 0)
        assert len([l for l in out.strip().split("\n") if not l.startswith("#")]) == 61
        energyopt.info_per_photon(0.98, 0.56, 6.3)
        assert (len(split_rows), len(tables)) == (2, 0)

    @pytest.mark.parametrize("grid_size,most_solves,most_tables", [(1, 0, 0), (5, 300, 400)])
    def test_map_solves_only_what_each_optimum_needs(self, capsys, monkeypatch, grid_size,
                                                     most_solves, most_tables):
        # 11 shared scan energies, a short search per pair, then the refinement;
        # solving all 60 energies took 704 solves and 508 tables at grid 5, and
        # 60 tables for a one-value grid, which has no pair to solve
        tables, solves = count_builds_and_solves(monkeypatch)
        code, _, _ = run(capsys, "figures", "--id", "2b", "--grid-size", str(grid_size))
        assert code == 0
        assert len(solves) <= most_solves
        assert len(tables) <= most_tables

    @pytest.mark.parametrize("figure,command", [
        (["--id", "4c", "--ensemble", "300", "--seed", "5"],
         ["simulate", "--band", "0,0.14,0.28,0.42,0.56", "--ensemble", "300", "--seed", "5"]),
        (["--id", "s2", "--coherent-energy", "2"], ["fingerprint", "--coherent-energy", "2"]),
    ])
    def test_delegating_figure_equals_its_command(self, capsys, figure, command):
        code, out, _ = run(capsys, "figures", *figure)
        assert code == 0
        assert (0, out) == run(capsys, *command)[:2]

    def test_band_figure_builds_one_split_row_set(self, capsys, monkeypatch):
        split_rows = count_split_rows(monkeypatch)
        assert run(capsys, "figures", "--id", "4c", "--ensemble", "100")[0] == 0
        assert len(split_rows) == 1

    def test_simulation_figure_delegates(self, capsys):
        # keep it tiny: override via the shared simulate defaults is not
        # possible here, so just check the header shape with a small grid
        code, out, _ = run(capsys, "figures", "--id", "2b", "--grid-size", "3")
        assert code == 0
        rows = [l for l in out.strip().split("\n") if not l.startswith("#")]
        assert rows[0] == "v1,v2,max_ratio,opt_energy"
        assert len(rows) == 10


class TestNoScipyAtRunTime:
    """scipy is a test dependency only; the program runs on numpy."""

    @staticmethod
    def python(code, *args):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        return subprocess.run([sys.executable, "-c", code, *args], env=env,
                              capture_output=True, text=True, timeout=120)

    def test_cli_import_loads_no_scipy(self):
        done = self.python("import sys, vistest.cli; "
                           "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_cli_import_loads_only_what_the_parser_needs(self):
        # each command imports the modules it runs: ingest alone loads tagio
        done = self.python("import sys, vistest.cli; print(sorted(m for m in sys.modules "
                           "if m.startswith('vistest.') or m == 'json'))")
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == str(["vistest.chernoff", "vistest.cli",
                                           "vistest.energyopt", "vistest.photostat",
                                           "vistest.util"])

    def test_every_command_runs_with_scipy_blocked(self, tmp_path):
        commands = [
            ["dist", "--truncation", "4"],
            ["chernoff", "--json"],
            ["optimize", "--hi", "5"],
            ["simulate", "--n-list", "1,2", "--ensemble", "50"],
            ["fingerprint", "--json"],
            ["ingest", "--tags", str(make_tag_file(tmp_path, windows=50)),
             "--theory", "0.56,6.3"],
            ["figures", "--id", "2b", "--grid-size", "3"],
        ]
        done = self.python(
            "import json, os, sys\n"
            "sys.modules['scipy'] = None  # any scipy import now fails\n"
            "from vistest.cli import main\n"
            "codes = [main(argv + ['--out', os.devnull]) for argv in json.loads(sys.argv[1])]\n"
            "print(json.dumps(codes))\n",
            json.dumps(commands))
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == [0] * len(commands)
