"""File formats and experiment orchestration.

Graph files are plain text: a ``#layers n_0 n_1 ...`` header, then one edge
per line as ``layer_u u layer_v v`` (0-indexed, whitespace-separated); the
edge color is inferred from the layer pair. Lines starting with ``#`` are
comments.

Experiment configs are flat ``key = value`` text with dotted section
prefixes (see README for the full key reference). ``run_experiment`` turns
one config into frontier / sweep / dynamics CSVs plus a manifest, and is
byte-for-byte reproducible for a fixed master seed.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from . import __version__
from .errors import ConfigError, ParseError
from .generate import ErLayerSpec, LayerSpec, PowerLawSpec, build_interdependent
from .graph import (
    ColorTable,
    LayeredGraph,
    MomentSet,
    build_graph_array,
    compute_moments,
    int64_array,
)
from .sir import (
    DynamicsResult,
    SeedPolicy,
    SirConfig,
    SweepResult,
    dynamics,
    sweep_heatmap,
)
from .threshold import (
    FrontierSet,
    er_color_moments,
    multi_threshold,
    powerlaw_color_moments,
    two_layer_moments,
)

MANIFEST_NAME = "manifest"
_FLOAT_FMT = ".10g"


def _fmt(x: float) -> str:
    return format(float(x), _FLOAT_FMT)


# ---------------------------------------------------------------------------
# Graph files
# ---------------------------------------------------------------------------

def write_graph(g: LayeredGraph, path: Union[str, os.PathLike]) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("#layers " + " ".join(str(s) for s in g.layer_sizes) + "\n")
        rows = g.local_edges()
        for start in range(0, len(rows), 1 << 16):  # bounded memory on large graphs
            chunk = rows[start : start + (1 << 16)]
            fh.write("%d %d %d %d\n" * len(chunk) % tuple(chunk.ravel().tolist()))


def load_graph(path: Union[str, os.PathLike]) -> LayeredGraph:
    """Parse and validate a graph file; ParseError carries the line number."""
    with open(path, "r", encoding="ascii") as fh:
        layer_sizes, edges = _parse_graph_text(fh.read())
    colors = ColorTable(len(layer_sizes)).color_matrix()[edges[:, 0], edges[:, 2]]
    return build_graph_array(layer_sizes, np.column_stack([edges, colors]))


def _parse_graph_text(text: str) -> tuple[list[int], np.ndarray]:
    """Header layer sizes and (m, 4) edge rows of a graph file.

    Tokens, their lines and their values come from array operations. Only
    the lines that can be malformed (comments, the first edge line, the first
    without four fields, those with a field other than an optional minus and
    1 to 18 digits) go through the line checks, in file order, so the first
    malformed line raises. Fields are read with int() semantics.
    """
    buf = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    space = np.isin(buf, (9, 10, 11, 12, 13, 28, 29, 30, 31, 32))  # what str.split() splits on
    space = np.concatenate(([True], space, [True]))
    starts, ends = np.flatnonzero(space[:-1] != space[1:]).reshape(-1, 2).T
    newline = np.flatnonzero(buf == 10)
    line = np.searchsorted(newline, starts)  # 0-based line of each token
    lead = np.flatnonzero(np.diff(line, prepend=-1))  # first token of each line
    comment = buf[starts[lead]] == ord("#")
    data = ~np.repeat(comment, np.diff(lead, append=len(line)))
    neg = buf[starts[data]] == ord("-")
    s, e, data_line = starts[data] + neg, ends[data], line[data]
    # values of plain fields (an optional minus and 1 to 18 digits) by Horner
    values = np.zeros(len(s), dtype=np.int64)
    plain = (e > s) & (e - s <= 18)
    for j in range(min(int((e - s).max(initial=0)), 18)):
        at = np.flatnonzero(plain & (s + j < e))
        digit = buf[s[at] + j] - 48  # uint8: a non-digit wraps past 9
        plain[at] = digit <= 9
        values[at] = values[at] * 10 + digit
    values[neg] *= -1
    lines, fields = np.unique(data_line, return_counts=True)
    suspect = [line[lead[comment]], lines[:1], lines[fields != 4][:1], data_line[~plain]]

    bounds = np.concatenate(([0], newline + 1, [len(text) + 1]))
    layer_sizes: Optional[list[int]] = None
    for k in np.unique(np.concatenate(suspect)).tolist():
        row, line_no = text[bounds[k] : bounds[k + 1] - 1].strip(), k + 1
        head, *rest = row.split()
        if head == "#layers":
            if layer_sizes is not None:
                raise ParseError(line_no, "duplicate #layers header")
            try:
                layer_sizes = [int(tok) for tok in rest]
            except ValueError:
                raise ParseError(line_no, "layer sizes must be integers")
            if not layer_sizes:
                raise ParseError(line_no, "#layers header declares no layers")
        elif head[0] == "#":
            continue
        elif layer_sizes is None:
            raise ParseError(line_no, "edge before #layers header")
        elif len(rest) != 3:
            raise ParseError(line_no, f"expected 'layer_u u layer_v v', got {row!r}")
        else:
            try:
                [int(tok) for tok in row.split()]
            except ValueError:
                raise ParseError(line_no, f"non-integer field in {row!r}")
    if layer_sizes is None:
        raise ParseError(0, "missing #layers header")

    if not plain.all():
        values = [int(text[a:b]) for a, b in zip(starts[data], e)]
    edges = int64_array(values).reshape(-1, 4)
    undeclared = (edges[:, [0, 2]] < 0) | (edges[:, [0, 2]] >= len(layer_sizes))
    if undeclared.any():
        i, col = np.argwhere(undeclared)[0]
        layer = values[4 * i + 2 * col]
        raise ParseError(int(lines[i]) + 1, f"layer {layer} not declared in header")
    return layer_sizes, edges


# ---------------------------------------------------------------------------
# Experiment configuration
# ---------------------------------------------------------------------------

_LAYER_KEY = re.compile(r"^layer\.(\d+)\.(type|n|mean_degree|gamma|y_min)$")
_INTER_KEY = re.compile(r"^inter\.(\d+)\.(\d+)\.mean_degree$")

_SCALAR_KEYS = {
    "network.source",
    "network.file",
    "analysis.tau",
    "analysis.grid_step",
    "analysis.tie_intra",
    "analysis.refine_tol",
    "sim.realizations",
    "sim.max_steps",
    "sim.seed_count",
    "sim.seed_placement",
    "sim.seeds_per_layer",
    "sim.seed_nodes",
    "sweep.beta",
    "sweep.alpha",
    "dynamics.settings",
    "output.dir",
    "master_seed",
}


@dataclass
class ExperimentConfig:
    source: str  # "generate" | "file"
    layers: list[LayerSpec] = field(default_factory=list)
    inter_means: dict[tuple[int, int], float] = field(default_factory=dict)
    graph_file: Optional[str] = None
    tau: int = 5
    grid_step: float = 0.01
    tie_intra: bool = True
    refine_tol: float = 0.0
    realizations: int = 100
    max_steps: Optional[int] = None
    seeds: SeedPolicy = field(default_factory=SeedPolicy.uniform)
    sweep_betas: tuple[float, ...] = ()
    sweep_alphas: tuple[float, ...] = ()
    dynamics_settings: tuple[tuple[float, float], ...] = ()
    out_dir: str = "out"
    master_seed: int = 0
    items: tuple[tuple[str, str], ...] = ()  # resolved key/value echo for the manifest


def _parse_bool(key: str, value: str) -> bool:
    low = value.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ConfigError(f"{key}: expected true/false, got {value!r}")


def _parse_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key}: expected integer, got {value!r}")


def _parse_float(key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{key}: expected number, got {value!r}")


def parse_grid(spec: str) -> tuple[float, ...]:
    """'start:stop:step' inclusive of stop (within float tolerance)."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid {spec!r} must be start:stop:step")
    start, stop, step = (float(p) for p in parts)
    if step <= 0 or stop < start:
        raise ConfigError(f"grid {spec!r} must have step > 0 and stop >= start")
    count = int(round((stop - start) / step)) + 1
    vals = [round(start + i * step, 12) for i in range(count)]
    return tuple(v for v in vals if v <= stop + 1e-12)


def parse_settings(spec: str) -> tuple[tuple[float, float], ...]:
    """'beta:alpha' pairs separated by whitespace or commas."""
    out = []
    for token in re.split(r"[,\s]+", spec.strip()):
        if not token:
            continue
        parts = token.split(":")
        if len(parts) != 2:
            raise ConfigError(f"setting {token!r} must be beta:alpha")
        out.append((float(parts[0]), float(parts[1])))
    if not out:
        raise ConfigError("dynamics.settings is empty")
    return tuple(out)


def parse_config_text(text: str, base_dir: str = ".") -> ExperimentConfig:
    raw: dict[str, str] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {line_no}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.split("#", 1)[0].strip()
        if key in raw:
            raise ConfigError(f"line {line_no}: duplicate key {key}")
        raw[key] = value

    layer_fields: dict[int, dict[str, str]] = {}
    inter_fields: dict[tuple[int, int], str] = {}
    unknown = []
    for key in raw:
        if key in _SCALAR_KEYS:
            continue
        m = _LAYER_KEY.match(key)
        if m:
            layer_fields.setdefault(int(m.group(1)), {})[m.group(2)] = raw[key]
            continue
        m = _INTER_KEY.match(key)
        if m:
            i, j = int(m.group(1)), int(m.group(2))
            inter_fields[(min(i, j), max(i, j))] = raw[key]
            continue
        unknown.append(key)
    if unknown:
        raise ConfigError("unknown config key(s): " + ", ".join(sorted(unknown)))

    source = raw.get("network.source")
    if source not in ("generate", "file"):
        raise ConfigError("network.source must be 'generate' or 'file'")

    cfg = ExperimentConfig(source=source)
    if source == "file":
        if "network.file" not in raw:
            raise ConfigError("network.source=file requires network.file")
        if layer_fields or inter_fields:
            raise ConfigError("layer/inter specs are only valid with network.source=generate")
        path = raw["network.file"]
        if not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        if not os.path.exists(path):
            raise ConfigError(f"network.file does not exist: {path}")
        cfg.graph_file = path
    else:
        if "network.file" in raw:
            raise ConfigError("network.file is only valid with network.source=file")
        if not layer_fields:
            raise ConfigError("network.source=generate requires layer.<i>.* keys")
        indices = sorted(layer_fields)
        if indices != list(range(len(indices))):
            raise ConfigError("layer indices must be contiguous from 0")
        for i in indices:
            fields = layer_fields[i]
            kind = fields.get("type")
            if kind == "er":
                for need in ("n", "mean_degree"):
                    if need not in fields:
                        raise ConfigError(f"layer.{i}.{need} is required for type=er")
                cfg.layers.append(
                    ErLayerSpec(
                        n=_parse_int(f"layer.{i}.n", fields["n"]),
                        mean_degree=_parse_float(f"layer.{i}.mean_degree", fields["mean_degree"]),
                    )
                )
            elif kind == "powerlaw":
                for need in ("n", "gamma"):
                    if need not in fields:
                        raise ConfigError(f"layer.{i}.{need} is required for type=powerlaw")
                cfg.layers.append(
                    PowerLawSpec(
                        gamma=_parse_float(f"layer.{i}.gamma", fields["gamma"]),
                        y_min=_parse_int(f"layer.{i}.y_min", fields.get("y_min", "1")),
                        n=_parse_int(f"layer.{i}.n", fields["n"]),
                    )
                )
            else:
                raise ConfigError(f"layer.{i}.type must be 'er' or 'powerlaw'")
        for (i, j), value in inter_fields.items():
            if j >= len(indices):
                raise ConfigError(f"inter.{i}.{j} references undeclared layer {j}")
            cfg.inter_means[(i, j)] = _parse_float(f"inter.{i}.{j}.mean_degree", value)

    cfg.tau = _parse_int("analysis.tau", raw.get("analysis.tau", "5"))
    if cfg.tau < 1:
        raise ConfigError("analysis.tau must be at least 1")
    cfg.grid_step = _parse_float("analysis.grid_step", raw.get("analysis.grid_step", "0.01"))
    if not 0.0 < cfg.grid_step <= 0.5:
        raise ConfigError("analysis.grid_step must be in (0, 0.5]")
    cfg.tie_intra = _parse_bool("analysis.tie_intra", raw.get("analysis.tie_intra", "true"))
    cfg.refine_tol = _parse_float("analysis.refine_tol", raw.get("analysis.refine_tol", "0"))

    cfg.realizations = _parse_int("sim.realizations", raw.get("sim.realizations", "100"))
    if cfg.realizations < 1:
        raise ConfigError("sim.realizations must be at least 1")
    max_steps = _parse_int("sim.max_steps", raw.get("sim.max_steps", "0"))
    cfg.max_steps = None if max_steps == 0 else max_steps

    placement = raw.get("sim.seed_placement", "uniform")
    if placement == "uniform":
        cfg.seeds = SeedPolicy.uniform(_parse_int("sim.seed_count", raw.get("sim.seed_count", "1")))
    elif placement == "per-layer":
        counts = raw.get("sim.seeds_per_layer")
        if counts is None:
            raise ConfigError("sim.seed_placement=per-layer requires sim.seeds_per_layer")
        cfg.seeds = SeedPolicy.in_layers(
            [_parse_int("sim.seeds_per_layer", t) for t in re.split(r"[,\s]+", counts) if t]
        )
    elif placement == "explicit":
        spec = raw.get("sim.seed_nodes")
        if spec is None:
            raise ConfigError("sim.seed_placement=explicit requires sim.seed_nodes")
        nodes = []
        for token in re.split(r"[,\s]+", spec.strip()):
            if not token:
                continue
            parts = token.split(":")
            if len(parts) != 2:
                raise ConfigError(f"seed node {token!r} must be layer:index")
            nodes.append((int(parts[0]), int(parts[1])))
        cfg.seeds = SeedPolicy.explicit(nodes)
    else:
        raise ConfigError("sim.seed_placement must be uniform, per-layer or explicit")

    if "sweep.beta" in raw:
        cfg.sweep_betas = parse_grid(raw["sweep.beta"])
    if "sweep.alpha" in raw:
        cfg.sweep_alphas = parse_grid(raw["sweep.alpha"])
    if "dynamics.settings" in raw:
        cfg.dynamics_settings = parse_settings(raw["dynamics.settings"])
    for grid in (cfg.sweep_betas, cfg.sweep_alphas):
        if any(not 0.0 <= v <= 1.0 for v in grid):
            raise ConfigError("sweep rates must lie in [0, 1]")
    for beta, alpha in cfg.dynamics_settings:
        if not (0.0 <= beta <= 1.0 and 0.0 <= alpha <= 1.0):
            raise ConfigError("dynamics rates must lie in [0, 1]")

    cfg.out_dir = raw.get("output.dir", "out")
    cfg.master_seed = _parse_int("master_seed", raw.get("master_seed", "0"))
    cfg.items = tuple(sorted(raw.items()))
    return cfg


def parse_config(path: Union[str, os.PathLike]) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_config_text(text, base_dir=os.path.dirname(os.path.abspath(path)))


# ---------------------------------------------------------------------------
# Model moments from a config
# ---------------------------------------------------------------------------

def model_moments(cfg: ExperimentConfig) -> tuple[MomentSet, tuple[int, ...]]:
    """Closed-form two-layer moment set implied by generator specs."""
    if len(cfg.layers) != 2:
        raise ConfigError("analytic route requires exactly two layers")
    n0, n1 = cfg.layers[0].n, cfg.layers[1].n
    total = n0 + n1
    intra = []
    for spec, pop in zip(cfg.layers, (n0, n1)):
        if isinstance(spec, ErLayerSpec):
            intra.append(er_color_moments(spec.mean_degree, pop, total))
        else:
            intra.append(powerlaw_color_moments(spec, pop, total))
    inter_mean = cfg.inter_means.get((0, 1), 0.0)
    inter = er_color_moments(inter_mean, total, total)
    return two_layer_moments(intra[0], intra[1], inter), (n0, n1)


def measured_moments(g: LayeredGraph) -> tuple[MomentSet, tuple[int, ...]]:
    return compute_moments(g), g.layer_sizes


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def _write_csv(path, header: Sequence[str], rows) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")
        fh.write(f"# manifest: {MANIFEST_NAME}\n")


def write_frontier_csv(path, frontier: FrontierSet) -> None:
    header = [f"beta_{i + 1}" for i in range(frontier.num_colors)] + ["theta"]
    rows = (
        [_fmt(v) for v in point] + [_fmt(theta)]
        for point, theta in zip(frontier.points, frontier.thetas)
    )
    _write_csv(path, header, rows)


def write_sweep_csv(path, sweep: SweepResult) -> None:
    header = ["beta", "alpha", "density_L1", "density_L2", "density_all"]
    rows = (
        [
            _fmt(beta),
            _fmt(alpha),
            _fmt(sweep.density_per_layer[i, j, 0]),
            _fmt(sweep.density_per_layer[i, j, 1]),
            _fmt(sweep.density_whole[i, j]),
        ]
        for i, beta in enumerate(sweep.betas)
        for j, alpha in enumerate(sweep.alphas)
    )
    _write_csv(path, header, rows)


def _dynamics_rows(result: DynamicsResult, series: tuple[np.ndarray, ...]):
    for (beta, alpha), table in zip(result.settings, series):
        label = f"beta={_fmt(beta)};alpha={_fmt(alpha)}"
        for step in range(table.shape[0]):
            yield [
                label,
                str(step),
                _fmt(table[step, 0]),
                _fmt(table[step, 1]),
                _fmt(table[step, 2]),
            ]


def write_dynamics_csv(path, result: DynamicsResult, cumulative: bool = False) -> None:
    header = ["setting", "step", "infected_L1", "infected_L2", "infected_all"]
    series = result.cumulative if cumulative else result.infected
    _write_csv(path, header, _dynamics_rows(result, series))


def write_manifest(path, cfg: ExperimentConfig, outputs: Sequence[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# interepi experiment manifest\n")
        fh.write(f"version = {__version__}\n")
        fh.write(f"master_seed = {cfg.master_seed}\n")
        for key, value in cfg.items:
            fh.write(f"config.{key} = {value}\n")
        for name in outputs:
            fh.write(f"output = {name}\n")


# ---------------------------------------------------------------------------
# Experiment driver
# ---------------------------------------------------------------------------

def run_experiment(
    cfg: ExperimentConfig,
    out_dir: Optional[str] = None,
    master_seed: Optional[int] = None,
    workers: int = 1,
) -> dict[str, str]:
    """Produce frontier.csv, sweep.csv, dynamics.csv(+cumulative) and manifest.

    Identical config and master seed give byte-identical outputs. Returns a
    mapping from logical name to written path.
    """
    if master_seed is not None:
        cfg.master_seed = master_seed
    target = out_dir if out_dir is not None else cfg.out_dir
    os.makedirs(target, exist_ok=True)

    if cfg.source == "generate":
        graph = build_interdependent(cfg.layers, cfg.inter_means, cfg.master_seed)
        moments, layer_sizes = model_moments(cfg)
    else:
        graph = load_graph(cfg.graph_file)
        moments, layer_sizes = measured_moments(graph)
    if graph.num_layers != 2:
        raise ConfigError("run_experiment requires a two-layer network")

    frontier = multi_threshold(
        moments,
        layer_sizes,
        cfg.tau,
        cfg.grid_step,
        tie_intra=cfg.tie_intra,
        refine_tol=cfg.refine_tol or None,
    )

    sim_cfg = SirConfig(
        rates=(0.0, 0.0, 0.0),
        tau=cfg.tau,
        seeds=cfg.seeds,
        max_steps=cfg.max_steps,
        realizations=cfg.realizations,
        master_seed=cfg.master_seed,
    )

    outputs: dict[str, str] = {}

    frontier_path = os.path.join(target, "frontier.csv")
    write_frontier_csv(frontier_path, frontier)
    outputs["frontier"] = frontier_path

    if cfg.sweep_betas and cfg.sweep_alphas:
        sweep = sweep_heatmap(graph, cfg.sweep_betas, cfg.sweep_alphas, sim_cfg, workers=workers)
        sweep_path = os.path.join(target, "sweep.csv")
        write_sweep_csv(sweep_path, sweep)
        outputs["sweep"] = sweep_path

    if cfg.dynamics_settings:
        dyn = dynamics(graph, cfg.dynamics_settings, sim_cfg)
        dyn_path = os.path.join(target, "dynamics.csv")
        write_dynamics_csv(dyn_path, dyn, cumulative=False)
        outputs["dynamics"] = dyn_path
        cum_path = os.path.join(target, "dynamics_cumulative.csv")
        write_dynamics_csv(cum_path, dyn, cumulative=True)
        outputs["dynamics_cumulative"] = cum_path

    manifest_path = os.path.join(target, MANIFEST_NAME)
    write_manifest(manifest_path, cfg, sorted(os.path.basename(p) for p in outputs.values()))
    outputs["manifest"] = manifest_path
    return outputs
