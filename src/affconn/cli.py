"""Command line interface for the verification suite.

Subcommands: ``verify`` runs the configured checks and emits the JSON
report, ``list`` prints the scenario registry, and ``converge`` writes a
CSV refinement study.  Exit codes: 0 all pass, 1 any check failed, 2
configuration or usage error.  Sampling is Halton-based throughout.
"""

import argparse
import json
import sys

from .errors import CheckNotRefinable, ConfigInvalid, GeometryError
from .scenarios import get_scenario, scenario_names
from .suite import (check_names, emit_convergence, normalize_config,
                    report_json, run_suite)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="affconn",
        description="numerical verification of weighted affine-connection "
                    "geometry")
    parser.add_argument("--workers", type=int, default=1,
                        help="number of concurrent check workers")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run verification checks")
    p_verify.add_argument("--config", help="path to a JSON config file")
    p_verify.add_argument("--out", help="also write the report to this path")

    p_list = sub.add_parser("list", help="list registered scenarios")
    p_list.add_argument("--filter", default="",
                        help="substring filter on scenario names")

    p_conv = sub.add_parser("converge", help="emit a CSV refinement study")
    p_conv.add_argument("--scenario", required=True)
    p_conv.add_argument("--check", required=True)
    p_conv.add_argument("--levels", required=True,
                        help="inclusive range, e.g. 3..6")
    p_conv.add_argument("--out", help="write the CSV to this path")
    return parser


def _load_config(path, workers):
    config = {}
    if path is not None:
        try:
            with open(path) as handle:
                config = json.load(handle)
        except OSError as err:
            raise ConfigInvalid(f"cannot read config: {err}") from err
        except json.JSONDecodeError as err:
            raise ConfigInvalid(f"config is not valid JSON: {err}") from err
    config = normalize_config(config)
    if workers != 1:
        config["workers"] = workers
    return config


def _cmd_verify(args):
    report = run_suite(_load_config(args.config, args.workers))
    text = report_json(report)
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    return 0 if report["passed"] else 1


def _cmd_list(args):
    rows = []
    for name in scenario_names():
        if args.filter and args.filter not in name:
            continue
        scn = get_scenario(name)
        man = scn.manifold()
        rows.append((name, man.dim, scn.params.alpha, scn.params.beta,
                     "yes" if scn.weighted else "no", scn.description))
    if rows:
        header = ("name", "dim", "alpha", "beta", "weighted", "description")
        width = max(len(r[0]) for r in rows + [header])
        fmt = f"{{:<{width}}}  {{:>3}}  {{:>6}}  {{:>6}}  {{:>8}}  {{}}"
        print(fmt.format(*header))
        for row in rows:
            print(fmt.format(*[str(c) for c in row]))
    return 0


def _parse_levels(text):
    try:
        lo, hi = text.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise ConfigInvalid(f"levels must look like a..b, got {text!r}") from None
    if lo < 0:
        raise ConfigInvalid("levels must be >= 0")
    if hi < lo:
        raise ConfigInvalid("empty level range")
    return list(range(lo, hi + 1))


def _cmd_converge(args):
    levels = _parse_levels(args.levels)
    if args.scenario not in scenario_names():
        raise ConfigInvalid(f"unknown scenario {args.scenario!r}")
    if args.check not in check_names():
        raise ConfigInvalid(f"unknown check {args.check!r}")
    if args.out:
        with open(args.out, "w", newline="") as handle:
            emit_convergence(args.scenario, args.check, levels, handle)
    else:
        emit_convergence(args.scenario, args.check, levels, sys.stdout)
    return 0


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "list":
            return _cmd_list(args)
        return _cmd_converge(args)
    except (ConfigInvalid, CheckNotRefinable) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except GeometryError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
