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


def _header(command, config):
    lines = [f"# vistest {__version__}", f"# command = {command}"]
    for key in sorted(config):
        lines.append(f"# {key} = {config[key]}")
    return "\n".join(lines) + "\n"


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


def _json_summary(command, config, summary):
    doc = {"tool": f"vistest {__version__}", "command": command,
           "config": {k: str(v) for k, v in sorted(config.items())},
           "summary": summary}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


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
    buf = io.StringIO()
    buf.write(_header("dist", config))
    photostat.distribution_to_csv(dist, buf)
    _emit(buf.getvalue(), args.out)


def _hypothesis_tables(v1, v2, energy, truncation):
    params = photostat.DetectionParams(energy, 0.0, truncation)
    return (photostat.joint_random_phase(params, v1),
            photostat.joint_random_phase(params, v2))


def cmd_chernoff(args):
    config = {"v1": args.v1, "v2": args.v2, "energy": args.energy,
              "truncation": args.truncation, "coherent": args.coherent,
              "marginal_diff": args.marginal_diff, "truncate": args.truncate}
    if args.coherent:
        result = chernoff.chernoff_coherent_closed_form(args.energy, args.v1, args.v2)
    else:
        p1, p2 = _hypothesis_tables(args.v1, args.v2, args.energy, args.truncation)
        if args.truncate is not None:
            p1 = photostat.retruncate(p1, args.truncate)
            p2 = photostat.retruncate(p2, args.truncate)
        if args.marginal_diff:
            t1 = photostat.marginal_difference(p1).probs
            t2 = photostat.marginal_difference(p2).probs
        else:
            t1, t2 = p1.probs, p2.probs
        result = chernoff.chernoff_information(t1, t2)
    per_photon = math.inf if result.infinite else result.information / args.energy
    summary = {"information_nats": result.information,
               "alpha_star": result.alpha_star,
               "sigma": result.sigma,
               "infinite": result.infinite,
               "info_per_photon": per_photon}
    if args.json:
        _emit(_json_summary("chernoff", config, summary), args.out)
        return
    buf = io.StringIO()
    buf.write(_header("chernoff", config))
    buf.write("quantity,value\n")
    for key, value in summary.items():
        rendered = format_float(value) if isinstance(value, float) else str(value)
        buf.write(f"{key},{rendered}\n")
    _emit(buf.getvalue(), args.out)


def cmd_optimize(args):
    config = {"v1": args.v1, "v2": args.v2, "lo": args.lo, "hi": args.hi,
              "tol": args.tol, "truncation": args.truncation}
    scan = energyopt.optimal_energy(args.v1, args.v2, args.truncation,
                                    (args.lo, args.hi), args.tol)
    summary = {"optimum_energy": scan.optimum_energy,
               "optimum_ratio": scan.optimum_ratio}
    if args.json:
        _emit(_json_summary("optimize", config, summary), args.out)
        return
    buf = io.StringIO()
    buf.write(_header("optimize", config))
    buf.write(f"# optimum_energy = {format_float(scan.optimum_energy)}\n")
    buf.write(f"# optimum_ratio = {format_float(scan.optimum_ratio)}\n")
    buf.write("energy,info_per_photon\n")
    for e, r in zip(scan.energies, scan.ratios):
        buf.write(f"{format_float(e)},{format_float(r)}\n")
    _emit(buf.getvalue(), args.out)


def cmd_simulate(args):
    config = {"v1": args.v1, "v2": args.v2, "energy": args.energy,
              "truncation": args.truncation, "n_list": ",".join(map(str, args.n_list)),
              "ensemble": args.ensemble, "seed": args.seed,
              "band": ",".join(map(str, args.band)) if args.band else ""}
    p1, p2 = _hypothesis_tables(args.v1, args.v2, args.energy, args.truncation)
    buf = io.StringIO()
    buf.write(_header("simulate", config))
    buf.write("N,eps_mean,eps_std,chernoff_bound,refined_bound,band_lo,band_hi\n")
    info = chernoff.chernoff_information(p1.probs, p2.probs)
    for n in args.n_list:
        cfg1 = simkit.ExperimentConfig(args.v1, args.energy, args.truncation,
                                       n, args.ensemble, args.seed)
        cfg2 = simkit.ExperimentConfig(args.v2, args.energy, args.truncation,
                                       n, args.ensemble, args.seed)
        estimate = simkit.estimate_error(cfg1, cfg2, p1, p2)
        bound = chernoff.chernoff_bound(info, n)
        try:
            refined = chernoff.refined_bound(p1.probs, p2.probs, n)
        except chernoff.DegeneratePairError:
            refined = math.nan
        if args.band:
            band = simkit.worst_case_sweep(args.v1, args.band, max(args.band), cfg1)
            lo, hi = format_float(band.band_lo), format_float(band.band_hi)
        else:
            lo = hi = ""
        buf.write(f"{n},{format_float(estimate.error_mean)},"
                  f"{format_float(estimate.error_std)},{format_float(bound)},"
                  f"{format_float(refined)},{lo},{hi}\n")
    _emit(buf.getvalue(), args.out)


def cmd_fingerprint(args):
    config = {"v1": args.v1, "v2": args.v2, "eps": args.eps,
              "truncation": args.truncation,
              "coherent_energy": args.coherent_energy}
    delta = fingerprint.delta_from_visibilities(args.v1, args.v2)
    rate = fingerprint.modified_rate_appended(delta)
    plan = fingerprint._phaseless_plan(args.v1, args.v2, args.eps, args.truncation)
    cross = fingerprint._crossover(*plan, args.eps)
    summary = {"delta_min": delta,
               "rate_modified": rate,
               "rate_gv": fingerprint.gv_rate(delta),
               "repetitions": cross.repetitions,
               "total_energy": cross.total_energy,
               "n_vs_best_classical": cross.n_vs_best_classical,
               "n_vs_classical_limit": cross.n_vs_classical_limit}
    if args.json:
        _emit(_json_summary("fingerprint", config, summary), args.out)
        return
    n_values = np.geomspace(1e2, 1e12, 101)
    curves = fingerprint._revealed_curves(n_values, *plan, args.v1, args.v2, args.eps,
                                          args.coherent_energy)
    buf = io.StringIO()
    buf.write(_header("fingerprint", config))
    for key, value in summary.items():
        rendered = format_float(value) if isinstance(value, float) else str(value)
        buf.write(f"# {key} = {rendered}\n")
    buf.write("n,I_quantum_incoherent,I_quantum_coherent,I_classical_best,"
              "I_classical_bound\n")
    coh = curves["quantum_coherent"]
    for i, n in enumerate(n_values):
        coh_text = "" if coh is None else format_float(coh[i])
        buf.write(f"{format_float(n)},{format_float(curves['quantum_incoherent'][i])},"
                  f"{coh_text},{format_float(curves['classical_best'][i])},"
                  f"{format_float(curves['classical_bound'][i])}\n")
    _emit(buf.getvalue(), args.out)


def cmd_ingest(args):
    config = {"tags": args.tags, "window": args.window,
              "truncation": args.truncation,
              "theory": ",".join(map(str, args.theory)) if args.theory else ""}
    with open(args.tags, "r", encoding="utf-8") as f:
        stream = tagio.parse_tags(f)
    binning = tagio.BinningConfig(window_ns=args.window, truncation=args.truncation)
    outcomes = tagio.bin_counts(stream, binning)
    hist = tagio.histogram(outcomes, args.truncation)
    summary = {"tags": len(stream), "windows": int(len(outcomes)),
               "total_outcomes": hist.total}
    if args.theory:
        if len(args.theory) != 2:
            raise DomainError("--theory takes v,energy")
        if hist.total == 0:
            raise DomainError("empty histogram: comparison refused")
        v, energy = args.theory
        params = photostat.DetectionParams(energy, 0.0, args.truncation)
        comparison = tagio.compare_to_theory(
            hist, photostat.joint_random_phase(params, v))
        summary["fraction_within_2"] = comparison.fraction_within_2
        summary["tv_distance"] = comparison.tv_distance
        summary["consistent"] = comparison.fraction_within_2 >= 0.9
    if args.json:
        _emit(_json_summary("ingest", config, summary), args.out)
        return
    buf = io.StringIO()
    buf.write(_header("ingest", config))
    for key, value in summary.items():
        rendered = format_float(value) if isinstance(value, float) else str(value)
        buf.write(f"# {key} = {rendered}\n")
    tagio.histogram_to_csv(hist, buf)
    _emit(buf.getvalue(), args.out)


def cmd_figures(args):
    config = {"id": args.id, "grid_size": args.grid_size, "seed": args.seed,
              "ensemble": args.ensemble, "truncation": args.truncation}
    buf = io.StringIO()
    buf.write(_header("figures", config))
    if args.id == "2a":
        grid = np.linspace(-1.0, 1.0, args.grid_size)
        table = energyopt.coherent_map(grid)
        buf.write("re_v1,re_v2,info_per_photon\n")
        for i, a in enumerate(grid):
            for j, b in enumerate(grid):
                buf.write(f"{format_float(a)},{format_float(b)},"
                          f"{format_float(table[i, j])}\n")
    elif args.id in ("2b", "2c"):
        grid = np.linspace(0.0, 1.0, args.grid_size)
        ratio, energy = energyopt.random_phase_map(grid, args.truncation)
        buf.write("v1,v2,max_ratio,opt_energy\n")
        for i, a in enumerate(grid):
            for j, b in enumerate(grid):
                buf.write(f"{format_float(a)},{format_float(b)},"
                          f"{format_float(ratio[i, j])},{format_float(energy[i, j])}\n")
    elif args.id == "3":
        energies = np.geomspace(0.1, 30.0, 60)
        joint, limited, diff = energyopt.energy_scan_curves(
            DEFAULT_V1, DEFAULT_V2, energies, 2, args.truncation)
        buf.write("energy,ratio_joint,ratio_k2,ratio_diff\n")
        for i, e in enumerate(energies):
            buf.write(f"{format_float(e)},{format_float(joint[i])},"
                      f"{format_float(limited[i])},{format_float(diff[i])}\n")
    elif args.id == "4c":
        sim = argparse.Namespace(
            v1=DEFAULT_V1, v2=DEFAULT_V2, energy=DEFAULT_ENERGY,
            truncation=args.truncation, n_list=_int_list(DEFAULT_N_LIST),
            ensemble=args.ensemble, seed=args.seed,
            band=[0.0, 0.14, 0.28, 0.42, 0.56], out=args.out)
        cmd_simulate(sim)
        return
    else:  # s2
        fp = argparse.Namespace(
            v1=DEFAULT_V1, v2=DEFAULT_V2, eps=DEFAULT_EPS,
            truncation=args.truncation, coherent_energy=args.coherent_energy,
            json=False, out=args.out)
        cmd_fingerprint(fp)
        return
    _emit(buf.getvalue(), args.out)


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
        p.set_defaults(func=func)
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
