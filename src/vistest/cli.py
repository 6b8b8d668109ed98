"""Command-line front end.

Every command writes CSV (with the resolved configuration echoed as
`#` comment lines) either to stdout or to --out; runs are deterministic
given flags and seed. Exit codes: 0 success, 2 usage error, 3 domain
error.
"""

import argparse
import io
import json
import math
import os
import re
import sys

import numpy as np

from . import __version__, chernoff, energyopt, fingerprint, photostat, simkit, tagio
from .util import DomainError, format_float

OUTPUT_DIR_ENV = "VISTEST_OUTPUT_DIR"

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


def _emit(text, out_path):
    path = _resolve_out(out_path)
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)


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


def _report(args, command, config, summary, body=None):
    """Emit a command's summary: as a JSON document with --json, else
    after the `#` header, as `# key = value` lines ahead of the CSV that
    `body(buf)` writes or, with no body, as the CSV table itself."""
    if args.json:
        doc = {"tool": f"vistest {__version__}", "command": command,
               "config": {k: str(v) for k, v in sorted(config.items())},
               "summary": summary}
        _emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.out)
        return
    rendered = {key: format_float(value) if isinstance(value, float) else str(value)
                for key, value in summary.items()}
    buf = io.StringIO()
    buf.write(f"# vistest {__version__}\n# command = {command}\n")
    buf.writelines(f"# {key} = {config[key]}\n" for key in sorted(config))
    if body is None:
        buf.write("quantity,value\n")
        buf.writelines(f"{key},{value}\n" for key, value in rendered.items())
    else:
        buf.writelines(f"# {key} = {value}\n" for key, value in rendered.items())
        body(buf)
    _emit(buf.getvalue(), args.out)


# ---------------------------------------------------------------------------
# commands


def cmd_dist(args):
    config = {"v": args.v, "energy": args.energy, "truncation": args.truncation,
              "dark": args.dark, "fixed_phase": args.fixed_phase}
    params = photostat.DetectionParams(args.energy, args.dark, args.truncation)
    if args.fixed_phase is not None:
        vis = photostat.ComplexVisibility(args.v, args.fixed_phase)
        dist = photostat.joint_fixed_phase(params, vis)
    else:
        dist = photostat.joint_random_phase(params, args.v)
    _report(args, "dist", config, {}, lambda buf: photostat.distribution_to_csv(dist, buf))


def cmd_chernoff(args):
    config = {"v1": args.v1, "v2": args.v2, "energy": args.energy,
              "truncation": args.truncation, "coherent": args.coherent,
              "marginal_diff": args.marginal_diff, "truncate": args.truncate}
    if not args.energy > 0.0:
        raise DomainError("energy must be > 0")
    if args.coherent:
        result = chernoff.chernoff_coherent_closed_form(args.energy, args.v1, args.v2)
    else:
        p1, p2 = photostat.hypothesis_tables(args.v1, args.v2, args.energy, args.truncation)
        if args.truncate is not None:
            p1 = photostat.retruncate(p1, args.truncate)
            p2 = photostat.retruncate(p2, args.truncate)
        if args.marginal_diff:
            p1 = photostat.marginal_difference(p1)
            p2 = photostat.marginal_difference(p2)
        result = chernoff.chernoff_information(p1, p2)
    per_photon = math.inf if result.infinite else result.information / args.energy
    _report(args, "chernoff", config,
            {"information_nats": result.information,
             "alpha_star": result.alpha_star,
             "sigma": result.sigma,
             "infinite": result.infinite,
             "info_per_photon": per_photon})


def cmd_optimize(args):
    config = {"v1": args.v1, "v2": args.v2, "lo": args.lo, "hi": args.hi,
              "tol": args.tol, "truncation": args.truncation}
    scan = energyopt.optimal_energy(args.v1, args.v2, args.truncation,
                                    (args.lo, args.hi), args.tol)

    def rows(buf):
        buf.write("energy,info_per_photon\n")
        for e, r in zip(scan.energies, scan.ratios):
            buf.write(f"{format_float(e)},{format_float(r)}\n")

    _report(args, "optimize", config,
            {"optimum_energy": scan.optimum_energy,
             "optimum_ratio": scan.optimum_ratio,
             "at_boundary": scan.at_boundary}, rows)


def cmd_simulate(args):
    config = {"v1": args.v1, "v2": args.v2, "energy": args.energy,
              "truncation": args.truncation, "n_list": ",".join(map(str, args.n_list)),
              "ensemble": args.ensemble, "seed": args.seed,
              "band": ",".join(map(str, args.band)) if args.band else ""}
    p1, p2 = photostat.hypothesis_tables(args.v1, args.v2, args.energy, args.truncation)
    info = chernoff.chernoff_information(p1, p2)
    run = simkit.ExperimentConfig(args.v1, args.energy, args.truncation,
                                  max(args.n_list, default=1), args.ensemble, args.seed)
    # the printed estimate is the band's member at the design point
    band = args.band or [args.v2]
    design = int(np.argmax(band))
    curve = simkit.worst_case_curve(args.v1, band, args.v2, run, args.n_list,
                                    tables={args.v1: p1, args.v2: p2})

    def rows(buf):
        buf.write("N,eps_mean,eps_std,chernoff_bound,refined_bound,band_lo,band_hi\n")
        for n, point in zip(args.n_list, curve):
            estimate = point.estimates[design]
            try:
                refined = chernoff.refined_bound_from(info, n)
            except chernoff.DegeneratePairError:
                refined = math.nan
            lo, hi = ((format_float(point.band_lo), format_float(point.band_hi))
                      if args.band else ("", ""))
            buf.write(f"{n},{format_float(estimate.error_mean)},"
                      f"{format_float(estimate.error_std)},"
                      f"{format_float(chernoff.chernoff_bound(info, n))},"
                      f"{format_float(refined)},{lo},{hi}\n")

    _report(args, "simulate", config, {}, rows)


def cmd_fingerprint(args):
    config = {"v1": args.v1, "v2": args.v2, "eps": args.eps,
              "truncation": args.truncation,
              "coherent_energy": args.coherent_energy}
    plan = fingerprint.plan(args.v1, args.v2, args.eps, args.truncation)
    cross = plan.crossover()

    def rows(buf):
        n_values = np.geomspace(1e2, 1e12, 101)
        curves = plan.revealed_curves(n_values, args.coherent_energy)
        buf.write("n,I_quantum_incoherent,I_quantum_coherent,I_classical_best,"
                  "I_classical_bound\n")
        coh = curves["quantum_coherent"]
        for i, n in enumerate(n_values):
            coh_text = "" if coh is None else format_float(coh[i])
            buf.write(f"{format_float(n)},{format_float(curves['quantum_incoherent'][i])},"
                      f"{coh_text},{format_float(curves['classical_best'][i])},"
                      f"{format_float(curves['classical_bound'][i])}\n")

    _report(args, "fingerprint", config,
            {"delta_min": plan.delta_min,
             "rate_modified": plan.rate,
             "rate_gv": fingerprint.gv_rate(plan.delta_min),
             "repetitions": cross.repetitions,
             "total_energy": cross.total_energy,
             "n_vs_best_classical": cross.n_vs_best_classical,
             "n_vs_classical_limit": cross.n_vs_classical_limit}, rows)


def cmd_ingest(args):
    config = {"tags": args.tags, "window": args.window,
              "truncation": args.truncation,
              "theory": ",".join(map(str, args.theory)) if args.theory else ""}
    with open(args.tags, "rb") as f:
        stream = tagio.parse_tags(f)
    binning = tagio.BinningConfig(window_ns=args.window, truncation=args.truncation)
    outcomes = tagio.bin_counts(stream, binning)
    hist = tagio.histogram(outcomes, args.truncation)
    summary = {"tags": len(stream), "windows": int(len(outcomes)),
               "total_outcomes": hist.total}
    if args.theory:
        if len(args.theory) != 2:
            raise DomainError("--theory takes v,energy")
        v, energy = args.theory
        params = photostat.DetectionParams(energy, 0.0, args.truncation)
        comparison = tagio.compare_to_theory(
            hist, photostat.joint_random_phase(params, v))
        summary["fraction_within_2"] = comparison.fraction_within_2
        summary["tv_distance"] = comparison.tv_distance
        summary["consistent"] = comparison.fraction_within_2 >= 0.9
    _report(args, "ingest", config, summary, lambda buf: tagio.histogram_to_csv(hist, buf))


def cmd_figures(args):
    config = {"id": args.id, "grid_size": args.grid_size, "seed": args.seed,
              "ensemble": args.ensemble, "truncation": args.truncation}
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
    if args.id == "2a":
        grid = np.linspace(-1.0, 1.0, args.grid_size)
        table = energyopt.coherent_map(grid)
        header = "re_v1,re_v2,info_per_photon"
        records = [(a, b, table[i, j]) for i, a in enumerate(grid) for j, b in enumerate(grid)]
    elif args.id in ("2b", "2c"):
        grid = np.linspace(0.0, 1.0, args.grid_size)
        ratio, energy = energyopt.random_phase_map(grid, args.truncation)
        header = "v1,v2,max_ratio,opt_energy"
        records = [(a, b, ratio[i, j], energy[i, j])
                   for i, a in enumerate(grid) for j, b in enumerate(grid)]
    else:  # 3
        energies = np.geomspace(0.1, 30.0, 60)
        header = "energy,ratio_joint,ratio_k2,ratio_diff"
        records = zip(energies, *energyopt.energy_scan_curves(
            DEFAULT_V1, DEFAULT_V2, energies, 2, args.truncation))

    def rows(buf):
        buf.write(header + "\n")
        buf.writelines(",".join(map(format_float, record)) + "\n" for record in records)

    _report(args, "figures", config, {}, rows)


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
    p.add_argument("--lo", type=float, default=energyopt.DEFAULT_SEARCH_RANGE[0])
    p.add_argument("--hi", type=float, default=energyopt.DEFAULT_SEARCH_RANGE[1])
    p.add_argument("--tol", type=float, default=energyopt.DEFAULT_TOL)
    p.add_argument("--json", action="store_true")

    p = command("simulate", cmd_simulate, "Monte Carlo error-rate curves")
    p.add_argument("--v1", type=float, default=DEFAULT_V1)
    p.add_argument("--v2", type=float, default=DEFAULT_V2)
    p.add_argument("--energy", type=float, default=DEFAULT_ENERGY)
    p.add_argument("--n-list", type=_int_list, default=_int_list(DEFAULT_N_LIST))
    p.add_argument("--ensemble", type=int, default=DEFAULT_ENSEMBLE)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--band", type=_float_list, default=None,
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
    p.add_argument("--theory", type=_float_list, default=None,
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
    except (DomainError, tagio.TagFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
