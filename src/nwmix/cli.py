"""Command-line entry points.

Subcommands: generate, mix, conductance, fr-bound, subtrees, constants,
scaling, quiet-arc.  Each takes a flag for each config key it reads; a
``key = value`` config file (--config) may set any key, and flags win.
Exit codes: 0 success, 2 validation error or an unreadable input or
unwritable output file, 3 budget exhaustion or censoring produced partial
results.  A closed output pipe (``| head``) ends a run quietly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .conductance import EnumerationBudgetError
from .constants import constants_for
from .experiments import (
    CONFIG_KEYS,
    QUIET_ARC_HEADER,
    ExperimentConfig,
    VerificationError,
    _write_text,
    battery_text,
    build_graph,
    conductance_bound,
    mixing_run,
    run_conductance,
    run_quiet_arc,
    run_scaling,
    run_subtree_verification,
    write_mu_table,
)
from .graphs import GraphValidationError, graph_text, read_graph, write_graph
from .subtrees import poisson_law

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PARTIAL = 3


def _config_from(args) -> ExperimentConfig:
    cfg = (ExperimentConfig.from_file(args.config) if args.config
           else ExperimentConfig())
    return cfg.overridden(**{key: getattr(args, key, None) for key in CONFIG_KEYS})


def _single_graph(cfg: ExperimentConfig, args):
    """One graph: from --in if given, else built from the config's one n.
    --in excludes the flags --n, --k and --c, which would go unread; a
    config file may still set them, as a file is a shared profile."""
    if getattr(args, "infile", None):
        given = [f"--{key}" for key in ("n", "k", "c") if getattr(args, key) is not None]
        if given:
            raise ValueError(f"--in excludes {', '.join(given)}: the graph comes "
                             "from the file")
        return read_graph(args.infile)
    if len(cfg.n_values) != 1:
        raise ValueError(f"{args.command} takes exactly one n, got "
                         f"{','.join(map(str, cfg.n_values))}")
    return build_graph(cfg, cfg.n_values[0], 0)


def _emit(cfg: ExperimentConfig, payload: str) -> None:
    """One JSON payload to --out if given, else to stdout."""
    if cfg.out:
        _write_text(cfg.out, payload + "\n")
    else:
        print(payload)


def _cmd_generate(args) -> int:
    cfg = _config_from(args)
    g = _single_graph(cfg, args)
    if cfg.out:
        write_graph(g, cfg.out)
    else:
        sys.stdout.write(graph_text(g))
    return EXIT_OK


def _cmd_mix(args) -> int:
    cfg = _config_from(args)
    _, res = mixing_run(cfg, _single_graph(cfg, args), rep=0)
    _emit(cfg, res.to_json())
    return EXIT_PARTIAL if res.censored else EXIT_OK


def _cmd_conductance(args) -> int:
    cfg = _config_from(args)
    results = run_conductance(cfg, variant=args.variant)
    if not cfg.out:
        for n, bound in results:
            print(bound.to_json())
    return EXIT_OK


def _cmd_fr_bound(args) -> int:
    cfg = _config_from(args)
    _emit(cfg, conductance_bound(cfg, _single_graph(cfg, args)).to_json())
    return EXIT_OK


def _cmd_subtrees(args) -> int:
    cfg = _config_from(args)
    report = run_subtree_verification(cfg, J=args.max_j)
    if args.table:
        c = cfg.c if cfg.c > 0 else Fraction(1)
        write_mu_table(args.table, poisson_law(c), args.max_j, bound_C=c)
    if not cfg.out:
        sys.stdout.write(battery_text(report))
    failed = [name for name, ok, _ in report if not ok]
    return EXIT_OK if not failed else 1


def _cmd_constants(args) -> int:
    cfg = _config_from(args)
    if cfg.c <= 0:
        raise ValueError("constants need c > 0")
    _emit(cfg, constants_for(cfg.c, cfg.k).to_json())
    return EXIT_OK


def _cmd_scaling(args) -> int:
    cfg = _config_from(args)
    records, summaries = run_scaling(cfg)
    if not cfg.out:
        for n, reps, cens, med in summaries:
            med_s = "NA" if med is None else f"{med:.4f}"
            print(f"n={n} reps={reps} censored={cens} median(tau/ln^2 n)={med_s}")
    return EXIT_PARTIAL if any(r.censored for r in records) else EXIT_OK


def _cmd_quiet_arc(args) -> int:
    cfg = _config_from(args)
    rows = run_quiet_arc(cfg)
    if not cfg.out:
        for row in rows:
            print(json.dumps(dict(zip(QUIET_ARC_HEADER, row))))
    censored = QUIET_ARC_HEADER.index("escape_censored")
    any_censored = any(row[censored] > 0 for row in rows)
    return EXIT_PARTIAL if any_censored else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="nwmix",
        description="Small-world random graph mixing/conductance toolkit",
    )
    sub = top.add_subparsers(dest="command", required=True)

    # (name, handler, help, the config keys it reads: one flag each)
    specs = [
        ("generate", _cmd_generate, "sample a graph and write its edge list",
         "n k c seed out"),
        ("mix", _cmd_mix, "mixing time of the lazy walk on one graph",
         "n k c seed out cap mode"),
        ("conductance", _cmd_conductance, "scale profile CSV + bound JSON",
         "n k c seed out budget mode"),
        ("fr-bound", _cmd_fr_bound, "sum of phi^-2 over dyadic scales",
         "n k c seed out budget mode"),
        ("subtrees", _cmd_subtrees, "subtree-count verification battery",
         "c seed out samples"),
        ("constants", _cmd_constants, "explicit proof constants as JSON", "k c out"),
        ("scaling", _cmd_scaling, "mixing-time scaling experiment",
         "n k c seed reps out cap mode"),
        ("quiet-arc", _cmd_quiet_arc, "longest shortcut-free arc + escape MC",
         "n k c seed reps out cap"),
    ]
    for name, func, help_, keys in specs:
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=func)
        p.add_argument("--config", help="key = value config file; flags override it")
        for key in keys.split():
            flag = "--mc-samples" if key == "samples" else f"--{key}"
            p.add_argument(flag, dest=key, help=CONFIG_KEYS[key][3])
        if name in ("mix", "fr-bound"):
            p.add_argument("--in", dest="infile", help="read graph edge list")
        if name == "conductance":
            p.add_argument("--variant", choices=["standard", "expected-volume"],
                           default="standard")
        if name == "subtrees":
            p.add_argument("--max-j", type=int, default=30)
            p.add_argument("--table", help="also write a j,q_j,mu_j CSV here")
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader closed the pipe (``| head``): stop quietly, and send the
        # interpreter's final flush of stdout to devnull so it cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except OSError as e:
        # an unreadable --in or --config file, or an unwritable --out
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except EnumerationBudgetError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARTIAL
    except VerificationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (GraphValidationError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
