"""Command-line interface.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure. Failures print a one-line JSON error record to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from . import __version__
from .errors import (
    ConfigError,
    DomainError,
    GraphValidationError,
    InterepiError,
    MeanDegreeTooLarge,
    NonConvergence,
    ParseError,
    WiringFailed,
)
from .graph import classify_coupling, compute_moments, kappa
from .io import (
    ExperimentConfig,
    analytic_frontier,
    load_network,
    parse_config,
    parse_rate,
    run_experiment,
    sir_config,
    with_overrides,
    write_dynamics_csv,
    write_frontier_csv,
    write_graph,
    write_sweep_csv,
)
from .sir import dynamics, infection_density, run_sir, structural_gcc_sizes, sweep_heatmap
from .threshold import classify_state

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

# the run-parameter flags and the config keys they override
_FLAG_KEYS = {
    "--tau": "analysis.tau",
    "--grid-step": "analysis.grid_step",
    "--tie-intra": "analysis.tie_intra",
    "--refine": "analysis.refine_tol",
    "--realizations": "sim.realizations",
    "--max-steps": "sim.max_steps",
    "--master-seed": "master_seed",
    "--betas": "sweep.beta",
    "--alphas": "sweep.alpha",
    "--settings": "dynamics.settings",
}
# --seed-policy KIND:DETAIL sets sim.seed_placement = KIND and this key to DETAIL
# ('/' read as ':'), or to the default when DETAIL is empty
_SEED_DETAIL = {
    "uniform": ("sim.seed_count", "1"),
    "per-layer": ("sim.seeds_per_layer", ""),
    "explicit": ("sim.seed_nodes", ""),
}
# without --config the frontier search is untied
_NO_CONFIG = ExperimentConfig(source="file", items=(("analysis.tie_intra", "false"),))


def _add_common(p: argparse.ArgumentParser, *flags: str) -> None:
    """Add --config and those of --out, --master-seed, --threads in ``flags``."""
    p.add_argument("--config", help="experiment config file")
    if "--out" in flags:
        p.add_argument("--out", help="output file or directory")
    if "--master-seed" in flags:
        p.add_argument("--master-seed")
    if "--threads" in flags:
        p.add_argument("--threads", type=int, default=1)


def _config(args) -> ExperimentConfig:
    """The config with the run-parameter flags given put in place of its keys,
    and --graph, if given, in place of its network."""
    given = {flag: getattr(args, flag[2:].replace("-", "_"), None) for flag in _FLAG_KEYS}
    overrides = {_FLAG_KEYS[f]: (f, value) for f, value in given.items() if value is not None}
    if getattr(args, "seed_policy", None) is not None:
        kind, _, detail = args.seed_policy.partition(":")
        overrides["sim.seed_placement"] = ("--seed-policy", kind)
        if kind in _SEED_DETAIL:
            key, default = _SEED_DETAIL[kind]
            overrides[key] = ("--seed-policy", detail.replace("/", ":") or default)
    cfg = with_overrides(parse_config(args.config) if args.config else _NO_CONFIG, overrides)
    if getattr(args, "graph", None):
        return replace(cfg, source="file", graph_file=args.graph)
    if not args.config:
        needs = "--graph or --config" if hasattr(args, "graph") else "--config"
        raise ConfigError(f"{args.command} requires {needs}")
    return cfg


def _graph_summary_lines(g) -> list[str]:
    moments = compute_moments(g)
    lines = [
        f"layers: {len(g.layer_sizes)}  sizes: {' '.join(str(s) for s in g.layer_sizes)}",
        f"edges: {g.num_edges}  colors: {g.num_colors}",
    ]
    counts = g.edge_count_by_color()
    for c in range(g.num_colors):
        members = g.colors.members(c)
        tag = f"layer {members[0]}" if len(members) == 1 else f"layers {members[0]}-{members[1]}"
        lines.append(
            f"color {c} ({tag}): edges={int(counts[c])} "
            f"mean_restricted={moments.per_color[c].mean_restricted:.4f}"
        )
    try:
        lines.append(f"kappa(network) = {kappa(g):.4f}")
    except InterepiError:
        lines.append("kappa(network) undefined (no edges)")
    return lines


def cmd_generate(args) -> int:
    cfg = _config(args)
    if cfg.source != "generate":
        raise ConfigError("generate requires network.source=generate")
    g = load_network(cfg)
    out = args.out or "graph.edges"
    write_graph(g, out)
    print(f"wrote {out}")
    for line in _graph_summary_lines(g):
        print(line)
    return 0


def cmd_info(args) -> int:
    g = load_network(_config(args))
    for line in _graph_summary_lines(g):
        print(line)
    whole, per_layer = structural_gcc_sizes(g)
    print(f"gcc(network) = {whole}")
    for layer, size in enumerate(per_layer):
        print(f"gcc(layer {layer}) = {size}")
    return 0


def cmd_threshold(args) -> int:
    cfg = _config(args)
    frontier = analytic_frontier(cfg, empirical=args.empirical)
    out = args.out or "frontier.csv"
    write_frontier_csv(out, frontier)
    print(f"wrote {out} ({len(frontier)} frontier tuples, grid step {cfg.grid_step}, "
          f"{frontier.evaluations} Jacobians)")
    return 0


def cmd_simulate(args) -> int:
    cfg = _config(args)
    g = load_network(cfg)
    rates = parse_rate("--beta", args.beta), parse_rate("--alpha", args.alpha)
    summary = run_sir(g, sir_config(cfg, g, *rates), realization_index=0)
    dens = infection_density(summary, g)
    print(f"steps: {summary.steps_run}")
    print(f"ever infected per layer: {' '.join(str(c) for c in summary.ever_counts)}")
    for layer, d in enumerate(dens.per_layer):
        print(f"density layer {layer}: {d:.6f}")
    print(f"density network: {dens.whole:.6f}")
    if dens.exceeds_gcc:
        print("note: density exceeds 1 (infection reached nodes outside the gcc)")
    return 0


def cmd_sweep(args) -> int:
    cfg = _config(args)
    g = load_network(cfg)
    betas, alphas = cfg.sweep_betas, cfg.sweep_alphas
    sweep = sweep_heatmap(g, betas, alphas, sir_config(cfg, g), workers=args.threads)
    out = args.out or "sweep.csv"
    write_sweep_csv(out, sweep)
    print(f"wrote {out} ({len(betas)}x{len(alphas)} cells)")
    return 0


def cmd_dynamics(args) -> int:
    cfg = _config(args)
    g = load_network(cfg)
    result = dynamics(g, cfg.dynamics_settings, sir_config(cfg, g))
    out = args.out or "dynamics.csv"
    write_dynamics_csv(out, result, cumulative=False)
    print(f"wrote {out} ({len(cfg.dynamics_settings)} settings)")
    if args.cumulative_out:
        write_dynamics_csv(args.cumulative_out, result, cumulative=True)
        print(f"wrote {args.cumulative_out}")
    return 0


def cmd_classify(args) -> int:
    cfg = _config(args)
    g = load_network(cfg)
    coupling = classify_coupling(g)
    print(f"coupling: {coupling.value}")
    try:
        print(f"kappa(network)={kappa(g):.4f} kappa(0)={kappa(g, 0):.4f} kappa(1)={kappa(g, 1):.4f}")
    except InterepiError:
        pass
    if args.beta is not None and args.alpha is not None:
        beta, alpha = parse_rate("--beta", args.beta), parse_rate("--alpha", args.alpha)
        state = classify_state(compute_moments(g), g.layer_sizes, (beta, beta, alpha), cfg.tau)
        print(f"state at beta={beta} alpha={alpha}: {state.value}")
    return 0


def cmd_run(args) -> int:
    outputs = run_experiment(_config(args), out_dir=args.out, workers=args.threads)
    for name in sorted(outputs):
        print(f"{name}: {outputs[name]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="interepi",
        description="Epidemic thresholds and SIR simulation on interdependent networks",
    )
    parser.add_argument("--version", action="version", version=f"interepi {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a network from a config and write it")
    _add_common(p, "--out", "--master-seed")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("info", help="summarize a graph file")
    _add_common(p, "--master-seed")
    p.add_argument("--graph", help="edge-list graph file")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("threshold", help="multidimensional threshold frontier CSV")
    _add_common(p, "--out")
    p.add_argument("--graph", help="edge-list graph file (measured moments)")
    p.add_argument("--empirical", action="store_true",
                   help="with a graph file: use measured colored cross-moments")
    p.add_argument("--tau", help="recovery steps (default 5 or config)")
    p.add_argument("--grid-step", help="default 0.01 or config")
    p.add_argument("--tie-intra", action="store_const", const="true",
                   help="search with all intra-layer rates equal")
    p.add_argument("--refine", help="bisection refinement tolerance (0 disables)")
    p.set_defaults(func=cmd_threshold)

    for name, fn, flags in (("simulate", cmd_simulate, ("--master-seed",)),
                            ("sweep", cmd_sweep, ("--out", "--master-seed", "--threads")),
                            ("dynamics", cmd_dynamics, ("--out", "--master-seed"))):
        p = sub.add_parser(name, help=f"{name} SIR on a two-layer network")
        _add_common(p, *flags)
        p.add_argument("--graph", help="edge-list graph file")
        p.add_argument("--tau", help="default 5 or config")
        p.add_argument("--realizations", help="default 100 or config")
        p.add_argument("--max-steps", help="0 = no cap (default) or config")
        p.add_argument("--seed-policy",
                       help="uniform:K | per-layer:K0,K1 | explicit:L/I,L/I,... "
                            "(default uniform:1 or config)")
        if name == "simulate":
            p.add_argument("--beta", required=True)
            p.add_argument("--alpha", required=True)
        elif name == "sweep":
            p.add_argument("--betas", required=True, help="start:stop:step")
            p.add_argument("--alphas", required=True, help="start:stop:step")
        else:
            p.add_argument("--settings", required=True, help="beta:alpha list")
            p.add_argument("--cumulative-out", default=None)
        p.set_defaults(func=fn)

    p = sub.add_parser("classify", help="coupling class and optional diffusion state")
    _add_common(p, "--master-seed")
    p.add_argument("--graph", help="edge-list graph file")
    p.add_argument("--beta")
    p.add_argument("--alpha")
    p.add_argument("--tau", help="default 5 or config")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("run", help="full experiment from a config file")
    _add_common(p, "--out", "--master-seed", "--threads")
    p.set_defaults(func=cmd_run)

    return parser


def _error_record(exc: Exception) -> str:
    return json.dumps({"error": type(exc).__name__, "message": str(exc)})


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DomainError, ValueError) as exc:
        print(_error_record(exc), file=sys.stderr)
        return EXIT_CONFIG
    except (ParseError, GraphValidationError, OSError) as exc:
        print(_error_record(exc), file=sys.stderr)
        return EXIT_DATA
    except (NonConvergence, WiringFailed, MeanDegreeTooLarge, FloatingPointError) as exc:
        print(_error_record(exc), file=sys.stderr)
        return EXIT_NUMERIC
    except InterepiError as exc:
        print(_error_record(exc), file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
