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
import warnings
from dataclasses import dataclass, field, replace
from itertools import islice
from typing import Optional, Sequence, TextIO, Union

import numpy as np

from . import __version__
from .errors import ConfigError, GraphValidationError, ParseError
from .generate import ErLayerSpec, LayerSpec, PowerLawSpec, build_interdependent, pair_means
from .graph import INDEX, ColorTable, LayeredGraph, canonical_ends, int64_array, local_rows
from .sir import (
    DynamicsResult,
    SeedPolicy,
    SirConfig,
    SweepResult,
    check_seeds,
    sweep_and_dynamics,
)
from .threshold import (
    DegreeTable,
    FrontierSet,
    colored_cross_moments,
    frontier,
    independent_colors,
    independent_table,
    powerlaw_moments,
)

MANIFEST_NAME = "manifest"
_FLOAT = "%.10g"  # the format of every float in a CSV output


# ---------------------------------------------------------------------------
# Graph files
# ---------------------------------------------------------------------------

_WRITE_ROWS = 1 << 12  # about how many edges are formatted at a time, which bounds write_graph's memory


def write_graph(g: LayeredGraph, path: Union[str, os.PathLike]) -> None:
    bounds = _edge_runs(g, _WRITE_ROWS)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("#layers " + " ".join(str(s) for s in g.layer_sizes) + "\n")
        for start, stop in zip(bounds, bounds[1:]):
            fh.write(_format_columns(local_rows(g, slice(start, stop)).T))


def _edge_runs(g: LayeredGraph, size: int) -> list[int]:
    """Bounds of runs of adjacency rows that hold about ``size`` canonical
    edges each, the edges of the rows' lower ends: a run ends where the edge
    numbered a multiple of ``size`` starts its row. The edges are counted
    over blocks of about ``size`` entries, so that neither pass holds more
    than a block or a run whatever the edge count."""
    indptr = g.csr()[0]
    blocks = [0, *np.searchsorted(indptr, np.arange(size, indptr[-1], size)).tolist(), g.n]
    bounds, before = [0], 0
    for start, stop in zip(blocks, blocks[1:]):
        lower = g.edge_ends(slice(start, stop))[0]
        bounds += lower[-before % size :: size].tolist()
        before += lower.size
    return sorted(set(bounds + [g.n]))


def _format_columns(cols: np.ndarray) -> str:
    """The lines ``"%d %d %d %d\\n" % tuple(row)`` of the rows whose four
    columns are the rows of ``cols``, non-negative integers.

    Each column is written right-aligned into one fixed-width byte matrix, as
    wide as the column's largest value, its digits taken by repeated // 10
    and remainder; the positions before a number's leading digit stay NUL.
    Spaces and the newline sit in fixed columns, and dropping every NUL leaves
    the lines.
    """
    widths = [len(str(v)) for v in cols.max(axis=1, initial=0).tolist()]
    text = np.zeros((cols.shape[1], sum(widths) + len(widths)), dtype=np.uint8)
    end = -1  # the column of the space after a field
    for v, width in zip(cols, widths):
        end += width + 1
        text[:, end] = ord(" ")
        for at in range(end - 1, end - 1 - width, -1):
            q = v // 10
            digit = v - 10 * q
            # the units digit always; a higher one while digits remain (v > 0)
            digit += ord("0") if at == end - 1 else np.minimum(v, 1) * ord("0")
            text[:, at] = digit
            v = q
    text[:, -1] = ord("\n")
    return text[text > 0].tobytes().decode("ascii")


def load_graph(path: Union[str, os.PathLike]) -> LayeredGraph:
    """Parse and validate a graph file; a ParseError or GraphValidationError
    carries the line number."""
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        text = fh.read()
        read = _loadtxt(text, fh) if fh.seekable() else None
    layer_sizes, rows = read or _parse_lines(text)
    del text, read
    try:
        ends = canonical_ends(layer_sizes, rows)
    except GraphValidationError as exc:
        with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
            edges = (no for no, line in enumerate(fh, 1) if line.strip()[:1] not in ("", "#"))
            raise type(exc)(f"line {next(islice(edges, exc.row, None))}: {exc}") from None
    del rows
    return LayeredGraph(layer_sizes, ends)


def _loadtxt(text: str, fh: TextIO) -> Optional[tuple[list[int], np.ndarray]]:
    """Layer sizes and (m, 4) edge rows read by np.loadtxt, or None unless it
    reads them as :func:`_parse_lines` would: an ASCII file whose first line
    is its one valid ``#layers`` header and whose other lines hold no '#',
    read without error or warning into four :data:`INDEX` columns of declared
    layers (a field beyond int32 is an error)."""
    if not text.isascii():
        return None
    try:
        layer_sizes, _ = _parse_lines(text.partition("\n")[0])
    except ParseError:
        return None
    fh.seek(0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            values = np.loadtxt(fh, dtype=INDEX, comments=None, skiprows=1, ndmin=2)
        except (ValueError, OverflowError, Warning):
            return None
    layers = values[:, 0:3:2]
    declared = layers.min(initial=0) >= 0 and layers.max(initial=0) < len(layer_sizes)
    return (layer_sizes, values) if values.shape[1] == 4 and declared else None


def _parse_lines(text: str) -> tuple[list[int], np.ndarray]:
    """Layer sizes and (m, 4) edge rows, read one line at a time; this defines
    the format. A non-ASCII byte (``load_graph`` reads with surrogateescape)
    raises first, then the first malformed line, then the first undeclared
    layer. Fields are read as int() reads them and clamped by int64_array.
    """
    if high := re.search(r"[^\x00-\x7f]", text):
        raise ParseError(text.count("\n", 0, high.start()) + 1, "non-ASCII byte")
    layer_sizes, values, undeclared = None, [], None
    for line_no, line in enumerate(text.split("\n"), start=1):
        fields = line.split()
        if not fields:
            continue
        if fields[0] == "#layers":
            if layer_sizes is not None:
                raise ParseError(line_no, "duplicate #layers header")
            try:
                layer_sizes = [int(tok) for tok in fields[1:]]
            except ValueError:
                raise ParseError(line_no, "layer sizes must be integers")
            if not layer_sizes:
                raise ParseError(line_no, "#layers header declares no layers")
            if min(layer_sizes) < 1:
                raise ParseError(line_no, "layer sizes must be positive")
        elif fields[0][0] == "#":
            continue
        elif layer_sizes is None:
            raise ParseError(line_no, "edge before #layers header")
        elif len(fields) != 4:
            raise ParseError(line_no, f"expected 'layer_u u layer_v v', got {line.strip()!r}")
        else:
            try:
                lu, iu, lv, iv = map(int, fields)
            except ValueError:
                raise ParseError(line_no, f"non-integer field in {line.strip()!r}")
            if not (0 <= lu < len(layer_sizes) and 0 <= lv < len(layer_sizes)):
                bad = lv if 0 <= lu < len(layer_sizes) else lu
                undeclared = undeclared or (line_no, bad)
            values += (lu, iu, lv, iv)
    if layer_sizes is None:
        raise ParseError(0, "missing #layers header")
    if undeclared is not None:
        raise ParseError(undeclared[0], f"layer {undeclared[1]} not declared in header")
    return layer_sizes, int64_array(values).reshape(-1, 4)


# ---------------------------------------------------------------------------
# Experiment configuration
# ---------------------------------------------------------------------------

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
    flags: dict[str, str] = field(default_factory=dict)  # key -> the flag that set it


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


def _keyed(parse):
    """parse(value) as a (name, value) reader whose ConfigError names the key or flag."""
    def read(name: str, value: str):
        try:
            return parse(value)
        except ConfigError as exc:
            raise ConfigError(f"{name}: {exc}") from None
    return read


def _parse_mean(key: str, value: str) -> float:
    mean = _parse_float(key, value)
    if not mean >= 0.0:
        raise ConfigError(f"{key}: mean degree must be non-negative, got {value!r}")
    return mean


def parse_grid(spec: str) -> tuple[float, ...]:
    """'start:stop:step' inclusive of stop (within float tolerance)."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid {spec!r} must be start:stop:step")
    start, stop, step = (_parse_float(f"grid {spec!r}", p) for p in parts)
    if not (0 < step < float("inf") and float("-inf") < start <= stop < float("inf")):
        raise ConfigError(f"grid {spec!r} must be finite with step > 0 and stop >= start")
    count = int(round((stop - start) / step)) + 1
    vals = [round(start + i * step, 12) for i in range(count)]
    return tuple(v for v in vals if v <= stop + 1e-12)


def _tokens(value: str) -> list[str]:
    """The fields of ``value``, separated by whitespace or commas."""
    return [token for token in re.split(r"[,\s]+", value) if token]


def parse_settings(spec: str) -> tuple[tuple[float, float], ...]:
    """'beta:alpha' pairs separated by whitespace or commas."""
    out = []
    for token in _tokens(spec):
        parts = token.split(":")
        if len(parts) != 2:
            raise ConfigError(f"setting {token!r} must be beta:alpha")
        out.append(tuple(_parse_float(f"setting {token!r}", p) for p in parts))
    if not out:
        raise ConfigError("no beta:alpha settings")
    return tuple(out)


def _in_unit(rates) -> bool:
    return all(0.0 <= r <= 1.0 for r in np.ravel(rates))


def parse_rate(name: str, value: str) -> float:
    """A diffusion rate in [0, 1]; a ConfigError names ``name``, its key or flag."""
    rate = _parse_float(name, value)
    if not 0.0 <= rate <= 1.0:
        raise ConfigError(f"{name} must lie in [0, 1], got {value!r}")
    return rate


def _seed_nodes(name: str, value: str) -> SeedPolicy:
    nodes = []
    for token in _tokens(value):
        parts = token.split(":")
        if len(parts) != 2:
            raise ConfigError(f"{name}: seed node {token!r} must be a layer and an index")
        nodes.append([_parse_int(name, part) for part in parts])
    return SeedPolicy.explicit(nodes)


# The run-parameter keys: key -> (ExperimentConfig field, reader of the value,
# and, for a key with a range, its check and the rule the check enforces). A
# key that is not set leaves the field's default.
_RUN_KEYS = {
    "analysis.tau": ("tau", _parse_int, lambda v: v >= 1, "be at least 1"),
    "analysis.grid_step": ("grid_step", _parse_float, lambda v: 0.0 < v <= 0.5,
                           "be in (0, 0.5]"),
    "analysis.tie_intra": ("tie_intra", _parse_bool),
    "analysis.refine_tol": ("refine_tol", _parse_float, lambda v: 0.0 <= v < float("inf"),
                            "be finite and >= 0"),
    "sim.realizations": ("realizations", _parse_int, lambda v: v >= 1, "be at least 1"),
    # 0 is no cap
    "sim.max_steps": ("max_steps", lambda name, value: _parse_int(name, value) or None,
                      lambda v: v is None or v >= 0, "be at least 0"),
    "sweep.beta": ("sweep_betas", _keyed(parse_grid), _in_unit, "hold rates in [0, 1]"),
    "sweep.alpha": ("sweep_alphas", _keyed(parse_grid), _in_unit, "hold rates in [0, 1]"),
    "dynamics.settings": ("dynamics_settings", _keyed(parse_settings), _in_unit,
                          "hold rates in [0, 1]"),
    "output.dir": ("out_dir", lambda name, value: value),
    "master_seed": ("master_seed", _parse_int, lambda v: v >= 0, "be at least 0"),
}
# sim.seed_placement -> (the key that holds the placement's detail, the
# detail's default, None where the placement requires the key, and the
# reader of the detail into a SeedPolicy). An unset sim.seed_placement is
# uniform. --seed-policy PLACEMENT:DETAIL sets the same two keys.
SEED_PLACEMENTS = {
    "uniform": ("sim.seed_count", "1",
                lambda name, value: SeedPolicy.uniform(_parse_int(name, value))),
    "per-layer": ("sim.seeds_per_layer", None,
                  lambda name, value: SeedPolicy.in_layers(
                      [_parse_int(name, token) for token in _tokens(value)])),
    "explicit": ("sim.seed_nodes", None, _seed_nodes),
}
# layer.<i>.type -> (its spec class, and the keys layer.<i>.<field> it reads,
# each with its reader and default, None where the key is required)
_LAYER_TYPES = {
    "er": (ErLayerSpec, {"n": (_parse_int, None), "mean_degree": (_parse_mean, None)}),
    "powerlaw": (PowerLawSpec, {"n": (_parse_int, None), "gamma": (_parse_float, None),
                                "y_min": (_parse_int, 1)}),
}
_LAYER_KEY = re.compile(r"^layer\.(\d+)\.(\w+)$")
_LAYER_FIELDS = {"type"}.union(*(keys for _, keys in _LAYER_TYPES.values()))
_INTER_KEY = re.compile(r"^inter\.(\d+)\.(\d+)\.mean_degree$")
# the keys besides layer.<i>.* and inter.<i>.<j>.mean_degree
_KEYS = {"network.source", "network.file", "sim.seed_placement", *_RUN_KEYS,
         *(key for key, _, _ in SEED_PLACEMENTS.values())}


def with_overrides(
    cfg: ExperimentConfig, overrides: dict[str, tuple[str, str]]
) -> ExperimentConfig:
    """A copy of cfg with its run parameters re-read from its key echo, with
    ``overrides`` ({key: (flag, value)}) in place of those keys: a flag wins
    over the config, and the config over the defaults. A ConfigError names
    the key, or the flag that gave its value. A seed key that the placement
    does not read is an error unless a flag set the placement. ``items``
    stays the config's own echo."""
    raw = dict(cfg.items)
    raw.update((key, value) for key, (_, value) in overrides.items())
    flags = {key: flag for key, (flag, _) in overrides.items()}
    params = {}
    for key, (field_name, read, *check) in _RUN_KEYS.items():
        if key in raw:
            name = flags.get(key, key)
            params[field_name] = value = read(name, raw[key])
            if check and not check[0](value):
                raise ConfigError(f"{name} must {check[1]}")
    placement = raw.get("sim.seed_placement", "uniform")
    if placement not in SEED_PLACEMENTS:
        name = flags.get("sim.seed_placement", "sim.seed_placement")
        raise ConfigError(f"{name} must be uniform, per-layer or explicit")
    key, default, read = SEED_PLACEMENTS[placement]
    if raw.get(key, default) is None:
        raise ConfigError(f"sim.seed_placement={placement} requires {key}")
    params["seeds"] = read(flags.get(key, key), raw.get(key, default))
    unused = sorted({k for k, _, _ in SEED_PLACEMENTS.values()}.intersection(raw) - {key})
    if unused and "sim.seed_placement" not in flags:
        raise ConfigError(f"{unused[0]} is not used by sim.seed_placement={placement}")
    return replace(cfg, **params, flags=flags)


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
    inter_fields: dict[tuple[int, int], list[str]] = {}  # the keys of each layer pair
    unknown = []
    for key in raw:
        if key in _KEYS:
            continue
        m = _LAYER_KEY.match(key)
        if m and m.group(2) in _LAYER_FIELDS:
            layer_fields.setdefault(int(m.group(1)), {})[m.group(2)] = raw[key]
            continue
        m = _INTER_KEY.match(key)
        if m:
            i, j = sorted(map(int, m.groups()))
            inter_fields.setdefault((i, j), []).append(key)
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
            if kind not in _LAYER_TYPES:
                raise ConfigError(f"layer.{i}.type must be 'er' or 'powerlaw'")
            spec, keys = _LAYER_TYPES[kind]
            unused = sorted(set(fields) - {"type", *keys})
            if unused:
                raise ConfigError(f"layer.{i}.{unused[0]} is not used by type={kind}")
            for name, (_, default) in keys.items():
                if name not in fields and default is None:
                    raise ConfigError(f"layer.{i}.{name} is required for type={kind}")
            cfg.layers.append(spec(**{
                name: read(f"layer.{i}.{name}", fields[name]) if name in fields else default
                for name, (read, default) in keys.items()
            }))
        for (i, j), keys in inter_fields.items():
            if i == j:
                raise ConfigError(f"{keys[0]}: an interconnection joins two different layers")
            if len(keys) > 1:
                raise ConfigError(f"{' and '.join(keys)} both set the layer pair ({i}, {j})")
            if j >= len(indices):
                raise ConfigError(f"inter.{i}.{j} references undeclared layer {j}")
            cfg.inter_means[(i, j)] = _parse_mean(keys[0], raw[keys[0]])

    cfg.items = tuple(sorted(raw.items()))
    return with_overrides(cfg, {})


def parse_config(path: Union[str, os.PathLike]) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_config_text(text, base_dir=os.path.dirname(os.path.abspath(path)))


# ---------------------------------------------------------------------------
# Model moments from a config
# ---------------------------------------------------------------------------

def model_moments(cfg: ExperimentConfig) -> tuple[DegreeTable, tuple[int, ...]]:
    """The table of independent colors implied by generator specs, and the
    layer sizes.

    A color's mean m and second moment are over the pop nodes of its own
    layer(s): m (m + 1) for an ER color (a missing pair has m = 0), and the
    continuous ``powerlaw_moments`` for a power-law layer. An inter color's
    pop m edge ends lie half in each of its layers, so on member layer h of
    k each degree factor scales by f = pop / (k n_h): mean f m and factorial
    moment f^2 (second - m), exact for ER coupling and 1 for equal layers.
    """
    sizes = tuple(spec.n for spec in cfg.layers)
    colors = ColorTable(len(sizes))
    pairs = pair_means(cfg.inter_means, len(sizes))
    mean = np.zeros((len(sizes), colors.num_colors))
    factorial = np.zeros_like(mean)
    for c in range(colors.num_colors):
        members = colors.members(c)
        spec = cfg.layers[c] if c < len(sizes) else None
        if isinstance(spec, PowerLawSpec):
            m, ratio = powerlaw_moments(spec)
            second = (ratio + 1.0) * m
        else:
            m = pairs.get(members, 0.0) if spec is None else spec.mean_degree
            second = m * (m + 1.0)
        pop = sum(sizes[h] for h in members)
        for h in members:
            f = pop / (len(members) * sizes[h])
            mean[h, c] = f * m
            factorial[h, c] = f * f * (second - m)
    return independent_table(mean, factorial), sizes


# ---------------------------------------------------------------------------
# Stages shared by run_experiment and the CLI
# ---------------------------------------------------------------------------

def load_network(cfg: ExperimentConfig) -> LayeredGraph:
    """The config's graph file, or the network its layer specs generate under
    its master seed."""
    if cfg.source == "file":
        return load_graph(cfg.graph_file)
    return build_interdependent(cfg.layers, cfg.inter_means, cfg.master_seed)


def analytic_frontier(
    cfg: ExperimentConfig, graph: Optional[LayeredGraph] = None, empirical: bool = False
) -> FrontierSet:
    """The frontier at the config's analysis keys. With ``empirical`` it
    takes the colored degree moments measured on each layer of the config's
    network, ``graph`` (built or loaded if not passed). Otherwise a generated
    network gives the model moments of its layer specs, and a graph file the
    moments measured on ``graph`` with its colors taken as independent."""
    if cfg.source == "generate" and not empirical:
        table = model_moments(cfg)[0]
    else:
        graph = load_network(cfg) if graph is None else graph
        table = colored_cross_moments(graph)
        if not empirical:
            table = independent_colors(table, graph.layer_sizes)
    return frontier(table, cfg.tau, cfg.grid_step, tie_intra=cfg.tie_intra,
                    refine_tol=cfg.refine_tol or None)


def sir_config(
    cfg: ExperimentConfig, graph: LayeredGraph, beta: float = 0.0, alpha: float = 0.0
) -> SirConfig:
    """The SirConfig of the config's tau, sim.* keys and master seed, at
    intra rate beta and inter rate alpha on a two-layer network; a ConfigError
    names the seed key (or its flag) when the seeds do not fit ``graph``."""
    if graph.num_layers != 2:
        raise ConfigError("simulation requires a two-layer network")
    try:
        check_seeds(graph, cfg.seeds)
    except ValueError as exc:
        key = SEED_PLACEMENTS[cfg.seeds.kind.replace("_", "-")][0]  # SeedPolicy spells per_layer
        raise ConfigError(f"{cfg.flags.get(key, key)}: {exc}") from None
    return SirConfig(
        rates=(beta, beta, alpha),
        tau=cfg.tau,
        seeds=cfg.seeds,
        max_steps=cfg.max_steps,
        realizations=cfg.realizations,
        master_seed=cfg.master_seed,
    )


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def _write_csv(path, header: Sequence[str], tables, manifest: Optional[str]) -> None:
    """The header, each (row format, 2-D table) by np.savetxt, then, for a
    file written beside a manifest, a line naming it. A format with one field
    is repeated across the columns; "%.10g" prints a float64 as
    format(x, ".10g") does."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for fmt, table in tables:
            np.savetxt(fh, table, fmt, delimiter=",")
        if manifest is not None:
            fh.write(f"# manifest: {manifest}\n")


# Each writer's ``manifest`` names the manifest written beside the file, if any.

def write_frontier_csv(path, frontier: FrontierSet, manifest: Optional[str] = None) -> None:
    header = [f"beta_{i + 1}" for i in range(frontier.num_colors)] + ["theta"]
    _write_csv(path, header, [(_FLOAT, np.column_stack([frontier.rates, frontier.theta]))],
               manifest)


def write_sweep_csv(path, sweep: SweepResult, manifest: Optional[str] = None) -> None:
    header = ["beta", "alpha", "density_L1", "density_L2", "density_all"]
    betas, alphas = np.meshgrid(sweep.betas, sweep.alphas, indexing="ij")
    table = np.column_stack([
        betas.ravel(),
        alphas.ravel(),
        sweep.density_per_layer.reshape(-1, sweep.density_per_layer.shape[-1]),
        sweep.density_whole.ravel(),
    ])
    _write_csv(path, header, [(_FLOAT, table)], manifest)


def write_dynamics_csv(
    path, result: DynamicsResult, cumulative: bool = False, manifest: Optional[str] = None
) -> None:
    header = ["setting", "step", "infected_L1", "infected_L2", "infected_all"]
    series = result.cumulative if cumulative else result.infected
    _write_csv(path, header, [
        (f"beta={_FLOAT % beta};alpha={_FLOAT % alpha},%d" + f",{_FLOAT}" * table.shape[1],
         np.column_stack([np.arange(table.shape[0]), table]))
        for (beta, alpha), table in zip(result.settings, series)
    ], manifest)


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
    workers: Optional[int] = None,
) -> dict[str, str]:
    """Produce frontier.csv, sweep.csv, dynamics.csv(+cumulative) and manifest.

    Identical config and master seed give byte-identical outputs, whatever
    the number of worker processes (default: every usable CPU) in the one
    pool that the sweep cells and dynamics settings share. Nothing is
    written before every result is computed. Returns a mapping from logical
    name to written path. A sweep runs when both of its grids are set; a
    ConfigError names the missing one when only one is.
    """
    target = out_dir if out_dir is not None else cfg.out_dir
    if bool(cfg.sweep_betas) != bool(cfg.sweep_alphas):
        missing = "sweep.alpha" if cfg.sweep_betas else "sweep.beta"
        raise ConfigError(f"a sweep needs both sweep.beta and sweep.alpha; {missing} is not set")
    graph = load_network(cfg)
    sim_cfg = sir_config(cfg, graph)
    frontier = analytic_frontier(cfg, graph)
    sweep, dyn = sweep_and_dynamics(graph, sim_cfg, cfg.sweep_betas, cfg.sweep_alphas,
                                    cfg.dynamics_settings, workers)

    os.makedirs(target, exist_ok=True)
    outputs = {"frontier": os.path.join(target, "frontier.csv")}
    write_frontier_csv(outputs["frontier"], frontier, MANIFEST_NAME)
    if cfg.sweep_betas:
        outputs["sweep"] = os.path.join(target, "sweep.csv")
        write_sweep_csv(outputs["sweep"], sweep, MANIFEST_NAME)
    if cfg.dynamics_settings:
        outputs["dynamics"] = os.path.join(target, "dynamics.csv")
        write_dynamics_csv(outputs["dynamics"], dyn, manifest=MANIFEST_NAME)
        outputs["dynamics_cumulative"] = os.path.join(target, "dynamics_cumulative.csv")
        write_dynamics_csv(outputs["dynamics_cumulative"], dyn, cumulative=True,
                           manifest=MANIFEST_NAME)

    manifest_path = os.path.join(target, MANIFEST_NAME)
    write_manifest(manifest_path, cfg, sorted(os.path.basename(p) for p in outputs.values()))
    outputs["manifest"] = manifest_path
    return outputs
