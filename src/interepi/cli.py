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
from .graph import classify_coupling, kappa
from .io import (
    SEED_PLACEMENTS,
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
from .threshold import classify_state, colored_cross_moments, independent_colors

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

# every flag: the config key it overrides (None for none), its help, and any
# further argparse options
_FLAGS = {
    "--config": (None, "experiment config file"),
    "--graph": (None, "edge-list graph file, in place of the config's network"),
    "--out": (None, "output file or directory"),
    "--threads": (None, "worker processes for sweep cells and dynamics settings, at least 1 "
                  "(default: every usable CPU)", dict(type=int)),
    "--empirical": (None, "use the colored degree moments measured on each layer of the "
                    "network, generated or loaded", dict(action="store_true")),
    "--beta": (None, "intra-layer rate in [0, 1]"),
    "--alpha": (None, "inter-layer rate in [0, 1]"),
    "--cumulative-out": (None, "file for the ever-infected series"),
    "--tau": ("analysis.tau", "recovery steps"),
    "--grid-step": ("analysis.grid_step", "frontier grid step"),
    "--tie-intra": ("analysis.tie_intra", "search with all intra-layer rates equal",
                    dict(action="store_const", const="true")),
    "--refine": ("analysis.refine_tol", "bisection refinement tolerance, 0 disables"),
    "--realizations": ("sim.realizations", "Monte Carlo runs per cell or setting"),
    "--max-steps": ("sim.max_steps", "step cap, 0 for none"),
    "--seed-policy": ("sim.seed_placement",
                      "uniform:K | per-layer:K0,K1 | explicit:L/I,L/I,...; also sets "
                      "sim.seed_count, sim.seeds_per_layer or sim.seed_nodes"),
    "--master-seed": ("master_seed", "the single source of randomness"),
    "--betas": ("sweep.beta", "start:stop:step"),
    "--alphas": ("sweep.alpha", "start:stop:step"),
    "--settings": ("dynamics.settings", "beta:alpha list"),
}
# without --config the frontier search is untied
_NO_CONFIG = ExperimentConfig(source="file", items=(("analysis.tie_intra", "false"),))


def _config(args) -> ExperimentConfig:
    """The config with the run-parameter flags given put in place of its keys,
    and --graph, if given, in place of its network."""
    overrides = {}
    for flag, (key, *_) in _FLAGS.items():
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if key and value is not None:
            overrides[key] = (flag, value)
    if "sim.seed_placement" in overrides:
        # --seed-policy PLACEMENT:DETAIL also sets the placement's detail key
        # to DETAIL ('/' read as ':'), or to its default when DETAIL is empty
        placement, _, detail = args.seed_policy.partition(":")
        overrides["sim.seed_placement"] = ("--seed-policy", placement)
        if placement in SEED_PLACEMENTS:
            key, default, _ = SEED_PLACEMENTS[placement]
            overrides[key] = ("--seed-policy", detail.replace("/", ":") or default or "")
    if getattr(args, "threads", None) is not None and args.threads < 1:
        raise ConfigError("--threads must be at least 1")
    cfg = with_overrides(parse_config(args.config) if args.config else _NO_CONFIG, overrides)
    if getattr(args, "graph", None):
        return replace(cfg, source="file", graph_file=args.graph)
    if not args.config:
        needs = "--graph or --config" if hasattr(args, "graph") else "--config"
        raise ConfigError(f"{args.command} requires {needs}")
    return cfg


def _graph_summary_lines(g) -> list[str]:
    lines = [
        f"layers: {len(g.layer_sizes)}  sizes: {' '.join(str(s) for s in g.layer_sizes)}",
        f"edges: {g.num_edges}  colors: {g.num_colors}",
    ]
    for c, edges in enumerate(g.edge_count_by_color().tolist()):
        members = g.colors.members(c)
        tag = f"layer {members[0]}" if len(members) == 1 else f"layers {members[0]}-{members[1]}"
        # each edge adds one to the color degree of both its ends
        mean = 2 * edges / sum(g.layer_sizes[l] for l in members)
        lines.append(f"color {c} ({tag}): edges={edges} mean_restricted={mean:.4f}")
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
          f"{frontier.evaluations} evaluations)")
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


def _required(command: str, values: tuple, key: str) -> tuple:
    """``values`` unless it is empty, when neither ``key`` nor its flag set it."""
    if not values:
        flag = next(flag for flag, (flag_key, *_) in _FLAGS.items() if flag_key == key)
        raise ConfigError(f"{command} requires {key} in the config or {flag}")
    return values


def cmd_sweep(args) -> int:
    cfg = _config(args)
    betas = _required("sweep", cfg.sweep_betas, "sweep.beta")
    alphas = _required("sweep", cfg.sweep_alphas, "sweep.alpha")
    g = load_network(cfg)
    sweep = sweep_heatmap(g, betas, alphas, sir_config(cfg, g), workers=args.threads)
    out = args.out or "sweep.csv"
    write_sweep_csv(out, sweep)
    print(f"wrote {out} ({len(betas)}x{len(alphas)} cells)")
    return 0


def cmd_dynamics(args) -> int:
    cfg = _config(args)
    settings = _required("dynamics", cfg.dynamics_settings, "dynamics.settings")
    g = load_network(cfg)
    result = dynamics(g, settings, sir_config(cfg, g), workers=args.threads)
    out = args.out or "dynamics.csv"
    write_dynamics_csv(out, result, cumulative=False)
    print(f"wrote {out} ({len(settings)} settings)")
    if args.cumulative_out:
        write_dynamics_csv(args.cumulative_out, result, cumulative=True)
        print(f"wrote {args.cumulative_out}")
    return 0


def cmd_classify(args) -> int:
    if (args.beta is None) != (args.alpha is None):
        missing, given = ("--beta", "--alpha") if args.beta is None else ("--alpha", "--beta")
        raise ConfigError(f"{missing} is required with {given}")
    cfg = _config(args)
    g = load_network(cfg)
    coupling = classify_coupling(g)
    print(f"coupling: {coupling.value}")
    try:
        print(f"kappa(network)={kappa(g):.4f} kappa(0)={kappa(g, 0):.4f} kappa(1)={kappa(g, 1):.4f}")
    except InterepiError:
        pass
    if args.beta is not None:
        beta, alpha = parse_rate("--beta", args.beta), parse_rate("--alpha", args.alpha)
        table = independent_colors(colored_cross_moments(g), g.layer_sizes)
        state = classify_state(table, (beta, beta, alpha), cfg.tau)
        print(f"state at beta={beta} alpha={alpha}: {state.value}")
    return 0


def cmd_run(args) -> int:
    outputs = run_experiment(_config(args), out_dir=args.out, workers=args.threads)
    for name in sorted(outputs):
        print(f"{name}: {outputs[name]}")
    return 0


_SIM_FLAGS = "--config --master-seed --graph --tau --realizations --max-steps --seed-policy"
# subcommand: (handler, help, its optional flags, its required flags)
_COMMANDS = {
    "generate": (cmd_generate, "generate a network from a config and write it",
                 "--config --out --master-seed", ""),
    "info": (cmd_info, "summarize a graph file", "--config --master-seed --graph", ""),
    "threshold": (cmd_threshold, "multidimensional threshold frontier CSV",
                  "--config --out --graph --empirical --tau --grid-step --tie-intra --refine", ""),
    "simulate": (cmd_simulate, "simulate SIR on a two-layer network",
                 _SIM_FLAGS, "--beta --alpha"),
    "sweep": (cmd_sweep, "sweep SIR on a two-layer network",
              f"{_SIM_FLAGS} --out --threads --betas --alphas", ""),
    "dynamics": (cmd_dynamics, "dynamics SIR on a two-layer network",
                 f"{_SIM_FLAGS} --out --cumulative-out --threads --settings", ""),
    "classify": (cmd_classify, "coupling class and optional diffusion state",
                 "--config --master-seed --graph --beta --alpha --tau", ""),
    "run": (cmd_run, "full experiment from a config file",
            "--config --out --master-seed --threads", ""),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="interepi",
        description="Epidemic thresholds and SIR simulation on interdependent networks",
    )
    parser.add_argument("--version", action="version", version=f"interepi {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, text, flags, required) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        for flag in f"{flags} {required}".split():
            key, help_text, *options = _FLAGS[flag]
            p.add_argument(flag, help=f"{help_text} (overrides {key})" if key else help_text,
                           required=flag in required.split(), **dict(*options))
        p.set_defaults(func=func)
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
