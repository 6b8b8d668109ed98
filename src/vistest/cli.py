"""Command-line front end.

Every command writes CSV (with the resolved configuration echoed as
`#` comment lines) either to stdout or to --out; runs are deterministic
given flags and seed. Exit codes: 0 success, 2 usage error, 3 domain
error.
"""

import argparse
import contextlib
import itertools
import math
import os
import re
import sys

import numpy as np

# photostat runs in every command but two; each command imports the rest of what it
# runs, and nothing more, so that no command compiles a module it does not run
from . import __version__, photostat
from .util import DEFAULT_SEARCH_RANGE, DEFAULT_TOL, DomainError, format_float

OUTPUT_DIR_ENV = "VISTEST_OUTPUT_DIR"
# CSV lines joined into one write: stdout may be unbuffered, making a syscall of each write
ROWS_PER_WRITE = 1024

DEFAULT_V1 = 0.98
DEFAULT_V2 = 0.56
DEFAULT_ENERGY = 6.3
DEFAULT_TRUNCATION = 15
DEFAULT_ENSEMBLE = 15000
DEFAULT_EPS = 1e-4
DEFAULT_SEED = 20170831
DEFAULT_N_LIST = "1,2,3,4,5,6,7,8,9,10,15,20,30,40,50"


def _resolve_out(path):
    if path is None:
        return None
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _emit(head, lines, out_path):
    """Write head, then the lines in blocks of ROWS_PER_WRITE, to stdout or
    to the --out file, so that no more than one block is held as text."""
    path = _resolve_out(out_path)
    with (contextlib.nullcontext(sys.stdout) if path is None
          else open(path, "w", encoding="utf-8", newline="\n")) as f:
        f.write(head)
        lines = iter(lines)
        while block := "".join(itertools.islice(lines, ROWS_PER_WRITE)):
            f.write(block)


def _float_list(text):
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad number list {text!r}") from None


def _int_list(text):
    try:
        return [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from None


# parsed-option entries that say how to run, not what was computed
_NOT_ECHOED = ("command", "func", "json", "out", "config")


def _cell(value):
    """The one rendering of a summary value or CSV cell: 17 significant
    digits for a float, an empty cell for None."""
    if isinstance(value, float):
        return format_float(value)
    return "" if value is None else str(value)


def _report(args, summary, header=None, rows=()):
    """Emit a command's summary: as a JSON document with --json, else
    after the `#` echo of every option, as `# key = value` lines ahead of
    the `header` CSV of `rows` or, with no header, as the CSV table
    itself."""
    config = {key: ",".join(map(str, value)) if isinstance(value, list) else str(value)
              for key, value in sorted(vars(args).items()) if key not in _NOT_ECHOED}
    if args.json:  # a NaN or infinity has no JSON form: it is written null
        import json

        summary = {key: None if isinstance(value, float) and not math.isfinite(value)
                   else value for key, value in summary.items()}
        doc = {"tool": f"vistest {__version__}", "command": args.command,
               "config": config, "summary": summary}
        _emit(json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n", (), args.out)
        return
    lines = [f"vistest {__version__}", f"command = {args.command}"]
    lines += [f"{key} = {value}" for key, value in config.items()]
    if header is None:
        header, rows = "quantity,value", summary.items()
    else:
        lines += [f"{key} = {_cell(value)}" for key, value in summary.items()]
    _emit("".join(f"# {line}\n" for line in lines) + header + "\n",
          (",".join(map(_cell, row)) + "\n" for row in rows), args.out)


# ---------------------------------------------------------------------------
# commands


def cmd_dist(args):
    params = photostat.DetectionParams(args.energy, args.dark, args.truncation)
    if args.fixed_phase is not None:
        vis = photostat.ComplexVisibility(args.v, args.fixed_phase)
        dist = photostat.joint_fixed_phase(params, vis)
    else:
        dist = photostat.joint_random_phase(params, args.v)
    _report(args, {}, "k,kprime,prob",
            ((k, kp, dist.probs[k, kp]) for k, kp in np.ndindex(dist.probs.shape)))


def cmd_chernoff(args):
    from . import chernoff

    if not args.energy > 0.0:
        raise DomainError("energy must be > 0")
    if args.coherent:
        result = chernoff.chernoff_coherent_closed_form(args.energy, args.v1, args.v2)
    else:
        params = photostat.DetectionParams(args.energy, 0.0, args.truncation)
        tables = photostat.random_phase_tables(params, [args.v1, args.v2])
        if args.truncate is not None:
            tables = [photostat.retruncate(table, args.truncate) for table in tables]
        if args.marginal_diff:
            tables = [photostat.marginal_difference(table) for table in tables]
        result = chernoff.chernoff_information(*tables)
    per_photon = math.inf if result.infinite else result.information / args.energy
    _report(args, {"information_nats": result.information,
                   "alpha_star": result.alpha_star,
                   "sigma": result.sigma,
                   "infinite": result.infinite,
                   "info_per_photon": per_photon})


def cmd_optimize(args):
    from . import energyopt

    scan = energyopt.optimal_energy(args.v1, args.v2, args.truncation,
                                    (args.lo, args.hi), args.tol)
    _report(args, {"optimum_energy": scan.optimum_energy,
                   "optimum_ratio": scan.optimum_ratio,
                   "at_boundary": scan.at_boundary},
            "energy,info_per_photon", zip(scan.energies, scan.ratios))


def cmd_simulate(args):
    from . import chernoff, simkit

    # the band's test is designed at --v2, so the band ends there, and that row is printed
    band = args.band or [args.v2]
    params = photostat.DetectionParams(args.energy, 0.0, args.truncation)
    p1, p2, *sources = photostat.random_phase_tables(params, [args.v1, args.v2, *band])
    if max(band) != args.v2:
        raise DomainError("the largest --band value must equal --v2")
    info = chernoff.chernoff_information(p1, p2)
    curve = simkit.worst_case_sweep(p1, p2, sources, args.n_list, args.ensemble, args.seed)
    records = []
    for n, point in zip(args.n_list, curve):
        estimate = point.estimates[band.index(args.v2)]
        try:
            refined = chernoff.refined_bound(info, n)
        except chernoff.DegeneratePairError:
            refined = math.nan
        edges = (point.band_lo, point.band_hi) if args.band else (None, None)
        records.append((n, estimate.error_mean, estimate.error_std,
                        chernoff.chernoff_bound(info, n), refined, *edges))
    _report(args, {}, "N,eps_mean,eps_std,chernoff_bound,refined_bound,band_lo,band_hi",
            records)


def cmd_fingerprint(args):
    from . import fingerprint

    plan = fingerprint.plan(args.v1, args.v2, args.eps, args.truncation)
    cross = fingerprint.crossover(plan)
    n_values = np.geomspace(1e2, 1e12, 101)
    curves = fingerprint.revealed_curves(plan, n_values, args.coherent_energy)
    coherent = curves["quantum_coherent"] or [None] * len(n_values)
    _report(args, {"delta_min": plan.delta_min,
                   "rate_modified": plan.rate,
                   "rate_gv": fingerprint.gv_rate(plan.delta_min),
                   "repetitions": cross.repetitions,
                   "total_energy": cross.total_energy,
                   "at_boundary": plan.at_boundary,
                   "n_vs_best_classical": cross.n_vs_best_classical,
                   "n_vs_classical_limit": cross.n_vs_classical_limit},
            "n,I_quantum_incoherent,I_quantum_coherent,I_classical_best,I_classical_bound",
            zip(n_values, curves["quantum_incoherent"], coherent,
                curves["classical_best"], curves["classical_bound"]))


def cmd_ingest(args):
    from . import tagio

    # every option is checked before the file is read, so that a bad one costs no parse;
    # the table is built after the tally, so the numpy code it first runs is not
    # resident under the parse's peak
    binning = tagio.BinningConfig(window_ns=args.window, truncation=args.truncation)
    if args.theory:
        if len(args.theory) != 2:
            raise DomainError("--theory takes v,energy")
        v, energy = args.theory
        params = photostat.DetectionParams(energy, 0.0, args.truncation)
        photostat._checked_magnitude(v)
        photostat._poisson_rows(energy, 2 * args.truncation)  # refused past MAX_SPLIT_ROW
    with open(args.tags, "rb") as f:
        table, tags = tagio.tally(tagio.parse_tags(f), binning)
    summary = {"tags": tags, "windows": int(table.sum()), "total_outcomes": int(table.sum())}
    if args.theory:
        comparison = tagio.compare_to_theory(table, photostat.joint_random_phase(params, v))
        summary["fraction_within_2"] = comparison.fraction_within_2
        summary["tv_distance"] = comparison.tv_distance
        summary["consistent"] = comparison.fraction_within_2 >= 0.9
    _report(args, summary, "k,kprime,count",
            ((k, kp, table[k, kp]) for k, kp in np.ndindex(table.shape)))


def cmd_figures(args):
    if args.grid_size < 1:
        raise DomainError("grid size must be >= 1")
    if args.id in ("4c", "s2"):
        # each delegate runs at its own command's defaults
        argv = (["simulate", "--ensemble", str(args.ensemble), "--seed", str(args.seed),
                 "--band", "0,0.14,0.28,0.42,0.56"] if args.id == "4c" else
                ["fingerprint"] + ([] if args.coherent_energy is None else
                                   ["--coherent-energy", repr(args.coherent_energy)]))
        delegate = build_parser().parse_args(argv + ["--truncation", str(args.truncation)])
        delegate.out = args.out
        return delegate.func(delegate)
    from . import energyopt

    if args.id == "2a":
        grid = np.linspace(-1.0, 1.0, args.grid_size)
        table = energyopt.coherent_map(grid)
        header = "re_v1,re_v2,info_per_photon"
        records = ((a, b, table[i, j]) for i, a in enumerate(grid) for j, b in enumerate(grid))
    elif args.id in ("2b", "2c"):
        grid = np.linspace(0.0, 1.0, args.grid_size)
        ratio, energy = energyopt.random_phase_map(grid, args.truncation)
        header = "v1,v2,max_ratio,opt_energy"
        records = ((a, b, ratio[i, j], energy[i, j])
                   for i, a in enumerate(grid) for j, b in enumerate(grid))
    else:  # 3
        energies = np.geomspace(*DEFAULT_SEARCH_RANGE, energyopt.SCAN_POINTS)
        header = "energy,ratio_joint,ratio_k2,ratio_diff"
        records = zip(energies, *energyopt.energy_scan_curves(
            DEFAULT_V1, DEFAULT_V2, energies, args.truncation))
    _report(args, {}, header, records)


# ---------------------------------------------------------------------------
# parser


def build_parser():
    parser = argparse.ArgumentParser(
        prog="vistest",
        description="Visibility-based hypothesis testing toolkit")
    parser.add_argument("--version", action="version",
                        version=f"vistest {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        # a value such as -0.2,0.56, -inf or -nan is a value, not an unknown option
        p._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)
        p.set_defaults(func=func, json=False)
        p.add_argument("--truncation", type=int, default=DEFAULT_TRUNCATION)
        p.add_argument("--out", default=None,
                       help=f"output file (relative paths resolve under "
                            f"${OUTPUT_DIR_ENV} when set; default stdout)")
        p.add_argument("--config", default=None,
                       help="file of `key = value` defaults for this command")
        return p

    p = command("dist", cmd_dist, "joint photocount distribution CSV")
    p.add_argument("--v", type=float, default=DEFAULT_V2)
    p.add_argument("--energy", type=float, default=DEFAULT_ENERGY)
    p.add_argument("--dark", type=float, default=0.0)
    p.add_argument("--fixed-phase", type=float, default=None,
                   help="fixed visibility phase (default: random-phase average)")

    p = command("chernoff", cmd_chernoff, "Chernoff information report")
    p.add_argument("--v1", type=float, default=DEFAULT_V1)
    p.add_argument("--v2", type=float, default=DEFAULT_V2)
    p.add_argument("--energy", type=float, default=DEFAULT_ENERGY)
    p.add_argument("--coherent", action="store_true",
                   help="closed form for phase-locked signals (v1, v2 are Re V)")
    p.add_argument("--marginal-diff", action="store_true",
                   help="test on the count-difference marginal")
    p.add_argument("--truncate", type=int, default=None,
                   help="fold the tables down to this resolution first")
    p.add_argument("--json", action="store_true")

    p = command("optimize", cmd_optimize, "energy-per-repetition optimization")
    p.add_argument("--v1", type=float, default=DEFAULT_V1)
    p.add_argument("--v2", type=float, default=DEFAULT_V2)
    p.add_argument("--lo", type=float, default=DEFAULT_SEARCH_RANGE[0])
    p.add_argument("--hi", type=float, default=DEFAULT_SEARCH_RANGE[1])
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--json", action="store_true")

    p = command("simulate", cmd_simulate, "Monte Carlo error-rate curves")
    p.add_argument("--v1", type=float, default=DEFAULT_V1)
    p.add_argument("--v2", type=float, default=DEFAULT_V2)
    p.add_argument("--energy", type=float, default=DEFAULT_ENERGY)
    p.add_argument("--n-list", type=_int_list, default=_int_list(DEFAULT_N_LIST))
    p.add_argument("--ensemble", type=int, default=DEFAULT_ENSEMBLE)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--band", type=_float_list, default=[],
                   help="true-v2 grid for the worst-case envelope")

    p = command("fingerprint", cmd_fingerprint, "fingerprinting resource plan")
    p.add_argument("--v1", type=float, default=DEFAULT_V1)
    p.add_argument("--v2", type=float, default=DEFAULT_V2)
    p.add_argument("--eps", type=float, default=DEFAULT_EPS)
    p.add_argument("--coherent-energy", type=float, default=None,
                   help="photon budget per repetition for the coherent curve")
    p.add_argument("--json", action="store_true")

    p = command("ingest", cmd_ingest, "bin a tag file and histogram it")
    p.add_argument("--tags", required=True)
    p.add_argument("--window", type=int, default=80_000)
    p.add_argument("--theory", type=_float_list, default=[],
                   help="v,energy of the model to compare against")
    p.add_argument("--json", action="store_true")

    p = command("figures", cmd_figures, "canonical figure datasets")
    p.add_argument("--id", required=True, choices=["2a", "2b", "2c", "3", "4c", "s2"])
    p.add_argument("--grid-size", type=int, default=50)
    p.add_argument("--ensemble", type=int, default=DEFAULT_ENSEMBLE)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--coherent-energy", type=float, default=None)

    return parser


def _apply_config_file(argv, parser):
    """Splice `key = value` pairs from a --config file in right after the
    subcommand, so explicit command-line flags still win. Each key names
    a long option of the subcommand, with `_` for `-`; an on/off flag
    takes true or false."""
    pre = argparse.ArgumentParser(prog="vistest", add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    found, rest = pre.parse_known_args(argv)
    if found.config is None:
        return argv
    commands = next(a.choices for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction))
    if not rest or rest[0] not in commands:
        return rest  # let argparse report the missing or unknown command
    options = commands[rest[0]]._option_string_actions
    injected = []
    with open(found.config, "r", encoding="utf-8") as f:
        for raw in f:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise DomainError(f"bad config line {line!r}")
            key, value = key.strip(), value.strip()
            flag = "--" + key.replace("_", "-")
            action = options.get(flag)
            if action is None or action.dest in ("help", "config"):
                raise DomainError(f"unknown config key {key!r} for {rest[0]}")
            if action.nargs != 0:
                injected.extend([flag, value])
            elif value.lower() == "true":
                injected.append(flag)
            elif value.lower() != "false":
                raise DomainError(f"config key {key!r} takes true or false, not {value!r}")
    return [rest[0]] + injected + rest[1:]


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config_file(argv, parser)
    except (OSError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
