"""Command-line interface.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure. Failures print a one-line JSON error record to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import __version__
from .errors import (
    ConfigError,
    GraphValidationError,
    InterepiError,
    MeanDegreeTooLarge,
    NonConvergence,
    ParseError,
    WiringFailed,
)
from .generate import build_interdependent
from .graph import classify_coupling, compute_moments, kappa
from .io import (
    load_graph,
    model_moments,
    parse_config,
    parse_grid,
    parse_settings,
    run_experiment,
    write_dynamics_csv,
    write_frontier_csv,
    write_graph,
    write_sweep_csv,
)
from .sir import (
    SeedPolicy,
    SirConfig,
    dynamics,
    infection_density,
    run_sir,
    structural_gcc_sizes,
    sweep_heatmap,
)
from .threshold import (
    classify_state,
    multi_threshold,
    multi_threshold_empirical,
)

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="experiment config file")
    p.add_argument("--out", help="output file or directory")
    p.add_argument("--master-seed", type=int, default=None)
    p.add_argument("--threads", type=int, default=1)


def _seed_policy(spec: Optional[str]) -> SeedPolicy:
    if spec is None:
        return SeedPolicy.uniform(1)
    kind, _, rest = spec.partition(":")
    if kind == "uniform":
        return SeedPolicy.uniform(int(rest or "1"))
    if kind == "per-layer":
        return SeedPolicy.in_layers([int(t) for t in rest.split(",") if t])
    if kind == "explicit":
        nodes = []
        for token in rest.split(","):
            if not token:
                continue
            layer, _, idx = token.partition("/")
            nodes.append((int(layer), int(idx)))
        return SeedPolicy.explicit(nodes)
    raise ConfigError(f"unknown seed policy {spec!r}")


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


def _load_or_generate(args) -> "object":
    if getattr(args, "graph", None):
        return load_graph(args.graph)
    if args.config:
        cfg = parse_config(args.config)
        if args.master_seed is not None:
            cfg.master_seed = args.master_seed
        if cfg.source == "file":
            return load_graph(cfg.graph_file)
        return build_interdependent(cfg.layers, cfg.inter_means, cfg.master_seed)
    raise ConfigError("need --graph or --config to obtain a network")


def cmd_generate(args) -> int:
    if not args.config:
        raise ConfigError("generate requires --config")
    cfg = parse_config(args.config)
    if cfg.source != "generate":
        raise ConfigError("generate requires network.source=generate")
    seed = args.master_seed if args.master_seed is not None else cfg.master_seed
    g = build_interdependent(cfg.layers, cfg.inter_means, seed)
    out = args.out or "graph.edges"
    write_graph(g, out)
    print(f"wrote {out}")
    for line in _graph_summary_lines(g):
        print(line)
    return 0


def cmd_info(args) -> int:
    g = _load_or_generate(args)
    for line in _graph_summary_lines(g):
        print(line)
    whole, per_layer = structural_gcc_sizes(g)
    print(f"gcc(network) = {whole}")
    for layer, size in enumerate(per_layer):
        print(f"gcc(layer {layer}) = {size}")
    return 0


def cmd_threshold(args) -> int:
    # flags win; unset flags fall back to the config's analysis block
    tau = args.tau if args.tau is not None else 5
    step = args.grid_step
    tie = args.tie_intra
    refine = args.refine
    cfg = None
    if args.config:
        cfg = parse_config(args.config)
        tau = args.tau if args.tau is not None else cfg.tau
        step = step if step is not None else cfg.grid_step
        tie = tie or cfg.tie_intra
        refine = refine if refine is not None else cfg.refine_tol
    step = step if step is not None else 0.01
    refine_tol = refine if refine and refine > 0 else None

    if args.graph and args.empirical:
        g = load_graph(args.graph)
        frontier = multi_threshold_empirical(
            g, tau, step, tie_intra=tie, refine_tol=refine_tol
        )
    else:
        if args.graph:
            g = load_graph(args.graph)
            moments, layer_sizes = compute_moments(g), g.layer_sizes
        elif cfg is not None:
            moments, layer_sizes = model_moments(cfg)
        else:
            raise ConfigError("threshold needs --graph or --config")
        frontier = multi_threshold(
            moments, layer_sizes, tau, step, tie_intra=tie, refine_tol=refine_tol
        )
    out = args.out or "frontier.csv"
    write_frontier_csv(out, frontier)
    print(f"wrote {out} ({len(frontier)} frontier tuples, grid step {step})")
    return 0


def _sim_config(args, g, beta, alpha) -> SirConfig:
    if g.num_layers != 2:
        raise ConfigError("beta/alpha simulation requires a two-layer network")
    return SirConfig(
        rates=(beta, beta, alpha),
        tau=args.tau,
        seeds=_seed_policy(args.seed_policy),
        max_steps=args.max_steps,
        realizations=args.realizations,
        master_seed=args.master_seed if args.master_seed is not None else 0,
    )


def cmd_simulate(args) -> int:
    g = _load_or_generate(args)
    cfg = _sim_config(args, g, args.beta, args.alpha)
    summary = run_sir(g, cfg, realization_index=0)
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
    g = _load_or_generate(args)
    betas = parse_grid(args.betas)
    alphas = parse_grid(args.alphas)
    cfg = _sim_config(args, g, 0.0, 0.0)
    sweep = sweep_heatmap(g, betas, alphas, cfg, workers=args.threads)
    out = args.out or "sweep.csv"
    write_sweep_csv(out, sweep)
    print(f"wrote {out} ({len(betas)}x{len(alphas)} cells)")
    return 0


def cmd_dynamics(args) -> int:
    g = _load_or_generate(args)
    settings = parse_settings(args.settings)
    cfg = _sim_config(args, g, 0.0, 0.0)
    result = dynamics(g, settings, cfg)
    out = args.out or "dynamics.csv"
    write_dynamics_csv(out, result, cumulative=False)
    print(f"wrote {out} ({len(settings)} settings)")
    if args.cumulative_out:
        write_dynamics_csv(args.cumulative_out, result, cumulative=True)
        print(f"wrote {args.cumulative_out}")
    return 0


def cmd_classify(args) -> int:
    g = _load_or_generate(args)
    coupling = classify_coupling(g)
    print(f"coupling: {coupling.value}")
    try:
        print(f"kappa(network)={kappa(g):.4f} kappa(0)={kappa(g, 0):.4f} kappa(1)={kappa(g, 1):.4f}")
    except InterepiError:
        pass
    if args.beta is not None and args.alpha is not None:
        moments = compute_moments(g)
        state = classify_state(
            moments, g.layer_sizes, (args.beta, args.beta, args.alpha), args.tau
        )
        print(f"state at beta={args.beta} alpha={args.alpha}: {state.value}")
    return 0


def cmd_run(args) -> int:
    if not args.config:
        raise ConfigError("run requires --config")
    cfg = parse_config(args.config)
    outputs = run_experiment(
        cfg, out_dir=args.out, master_seed=args.master_seed, workers=args.threads
    )
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
    _add_common(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("info", help="summarize a graph file")
    _add_common(p)
    p.add_argument("--graph", help="edge-list graph file")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("threshold", help="multidimensional threshold frontier CSV")
    _add_common(p)
    p.add_argument("--graph", help="edge-list graph file (measured moments)")
    p.add_argument("--empirical", action="store_true",
                   help="with --graph: use measured colored cross-moments")
    p.add_argument("--tau", type=int, default=None, help="recovery steps (default 5 or config)")
    p.add_argument("--grid-step", type=float, default=None, help="default 0.01 or config")
    p.add_argument("--tie-intra", action="store_true",
                   help="search with all intra-layer rates equal")
    p.add_argument("--refine", type=float, default=None,
                   help="bisection refinement tolerance (0 disables)")
    p.set_defaults(func=cmd_threshold)

    for name, fn in (("simulate", cmd_simulate), ("sweep", cmd_sweep), ("dynamics", cmd_dynamics)):
        p = sub.add_parser(name, help=f"{name} SIR on a two-layer network")
        _add_common(p)
        p.add_argument("--graph", help="edge-list graph file")
        p.add_argument("--tau", type=int, default=5)
        p.add_argument("--realizations", type=int, default=100)
        p.add_argument("--max-steps", type=int, default=None)
        p.add_argument("--seed-policy", default=None,
                       help="uniform:K | per-layer:K0,K1 | explicit:L/I,L/I,...")
        if name == "simulate":
            p.add_argument("--beta", type=float, required=True)
            p.add_argument("--alpha", type=float, required=True)
        elif name == "sweep":
            p.add_argument("--betas", required=True, help="start:stop:step")
            p.add_argument("--alphas", required=True, help="start:stop:step")
        else:
            p.add_argument("--settings", required=True, help="beta:alpha list")
            p.add_argument("--cumulative-out", default=None)
        p.set_defaults(func=fn)

    p = sub.add_parser("classify", help="coupling class and optional diffusion state")
    _add_common(p)
    p.add_argument("--graph", help="edge-list graph file")
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--tau", type=int, default=5)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("run", help="full experiment from a config file")
    _add_common(p)
    p.set_defaults(func=cmd_run)

    return parser


def _error_record(exc: Exception) -> str:
    return json.dumps({"error": type(exc).__name__, "message": str(exc)})


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
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
