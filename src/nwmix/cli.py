"""Command-line entry points.

Subcommands: generate, mix, conductance, fr-bound, subtrees, constants,
scaling, quiet-arc.  Options may come from a ``key = value`` config file
(--config), with command-line flags taking precedence.  Exit codes:
0 success, 2 validation error, 3 budget exhaustion or censoring produced
partial results.  A closed output pipe (``| head``) ends a run quietly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .conductance import EnumerationBudgetError, fr_bound
from .experiments import (
    ExperimentConfig,
    VerificationError,
    quiet_arc,
    run_conductance,
    run_constants,
    run_quiet_arc,
    run_scaling,
    run_subtree_verification,
)
from .graphs import (
    GraphSpec,
    GraphValidationError,
    build_ring,
    graph_text,
    read_graph,
    sample_small_world,
    write_graph,
)
from .rng import derive_seed
from .subtrees import poisson_law, write_mu_table
from .walks import mixing_time, sample_starts

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PARTIAL = 3


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value config file; flags override it")
    p.add_argument("--n", help="ring size(s), comma separated")
    p.add_argument("--k", type=int, help="ring half-width")
    p.add_argument("--c", help="shortcut intensity (p = c/n); rational ok")
    p.add_argument("--seed", type=int, help="master seed")
    p.add_argument("--reps", type=int, help="replications")
    p.add_argument("--out", help="output path (stem for multi-file outputs)")
    p.add_argument("--budget", type=int, help="enumeration work budget")
    p.add_argument("--cap", type=int, help="walk step cap")


def _config_from(args) -> ExperimentConfig:
    cfg = (ExperimentConfig.from_file(args.config) if args.config
           else ExperimentConfig())
    return cfg.overridden(
        n=args.n, k=args.k, c=args.c, seed=args.seed, reps=args.reps,
        out=args.out, budget=args.budget, cap=args.cap,
        mode=getattr(args, "mode", None),
    )


def _single_graph(cfg: ExperimentConfig, args):
    """One graph: from --in if given, else sampled from the config."""
    if getattr(args, "infile", None):
        return read_graph(args.infile)
    n = cfg.n_values[0]
    if cfg.c == 0:
        return build_ring(n, cfg.k)
    seed = derive_seed(cfg.master_seed, n, 0)
    return sample_small_world(GraphSpec(n=n, k=cfg.k, c=cfg.c, seed=seed))


def _cmd_generate(args) -> int:
    cfg = _config_from(args)
    n = cfg.n_values[0]
    if cfg.c == 0:
        g = build_ring(n, cfg.k)
    else:
        g = sample_small_world(
            GraphSpec(n=n, k=cfg.k, c=cfg.c, seed=derive_seed(cfg.master_seed, n, 0))
        )
    if cfg.out:
        write_graph(g, cfg.out)
    else:
        sys.stdout.write(graph_text(g))
    return EXIT_OK


def _cmd_mix(args) -> int:
    cfg = _config_from(args)
    g = _single_graph(cfg, args)
    mode = cfg.mode
    if mode == "auto":
        mode = "all" if g.n <= 1024 else "sampled"
    if mode == "all":
        res = mixing_time(g, starts="all", cap=cfg.step_cap)
    elif mode == "sampled":
        arc = quiet_arc(g)
        starts = sorted(
            set(sample_starts(g.n, min(64, g.n),
                              derive_seed(cfg.master_seed, g.n, 1)))
            | ({arc.center} if arc.length > 0 else set())
        )
        res = mixing_time(g, starts=starts, cap=cfg.step_cap)
    else:
        raise ValueError(f"unknown mixing mode {cfg.mode!r}")
    payload = res.to_json()
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)
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
    g = _single_graph(cfg, args)
    mode = cfg.mode
    if mode == "auto":
        mode = "exact" if g.n <= 20 else "local-search"
    bound = fr_bound(g, mode=mode, seed=derive_seed(cfg.master_seed, g.n, 7),
                     budget=cfg.enum_budget)
    payload = bound.to_json()
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)
    return EXIT_OK


def _cmd_subtrees(args) -> int:
    cfg = _config_from(args)
    if args.table:
        c = cfg.c if cfg.c > 0 else Fraction(1)
        write_mu_table(args.table, poisson_law(c), args.max_j, bound_C=c)
    report = run_subtree_verification(cfg, J=args.max_j,
                                      mc_samples=args.mc_samples)
    if not cfg.out:
        for name, ok, detail in report:
            print(f"{'PASS' if ok else 'FAIL'} {name} {detail}".rstrip())
    failed = [name for name, ok, _ in report if not ok]
    return EXIT_OK if not failed else 1


def _cmd_constants(args) -> int:
    cfg = _config_from(args)
    if cfg.c <= 0:
        raise ValueError("constants need c > 0")
    payload = run_constants(cfg.c, cfg.k, out=cfg.out)
    if not cfg.out:
        print(payload)
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
            rec = dict(zip(
                ["version", "master_seed", "n", "rep", "seed", "arc_start",
                 "arc_len", "threshold", "meets_threshold", "escape_trials",
                 "escape_median", "escape_censored"], row))
            print(json.dumps(rec))
    any_censored = any(row[-1] > 0 for row in rows)
    return EXIT_PARTIAL if any_censored else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="nwmix",
        description="Small-world random graph mixing/conductance toolkit",
    )
    sub = top.add_subparsers(dest="command", required=True)

    specs = [
        ("generate", _cmd_generate, "sample a graph and write its edge list"),
        ("mix", _cmd_mix, "mixing time of the lazy walk on one graph"),
        ("conductance", _cmd_conductance, "scale profile CSV + bound JSON"),
        ("fr-bound", _cmd_fr_bound, "sum of phi^-2 over dyadic scales"),
        ("subtrees", _cmd_subtrees, "subtree-count verification battery"),
        ("constants", _cmd_constants, "explicit proof constants as JSON"),
        ("scaling", _cmd_scaling, "mixing-time scaling experiment"),
        ("quiet-arc", _cmd_quiet_arc, "longest shortcut-free arc + escape MC"),
    ]
    for name, func, help_ in specs:
        p = sub.add_parser(name, help=help_)
        _add_common(p)
        p.set_defaults(func=func)
        if name in ("mix", "fr-bound"):
            p.add_argument("--in", dest="infile", help="read graph edge list")
        if name in ("mix", "fr-bound", "conductance", "scaling"):
            p.add_argument("--mode", help="mode (subcommand specific)")
        if name in ("conductance",):
            p.add_argument("--variant", choices=["standard", "expected-volume"],
                           default="standard")
        if name == "subtrees":
            p.add_argument("--max-j", type=int, default=30)
            p.add_argument("--mc-samples", type=int, default=None)
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
