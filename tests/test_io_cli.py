import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import interepi
import interepi.cli as cli_module
from interepi import (
    ConfigError,
    DomainError,
    DuplicateEdge,
    ErLayerSpec,
    ParseError,
    PowerLawSpec,
    SelfLoop,
    UnknownNode,
    build_interdependent,
    graphs_equal,
    load_graph,
    multi_threshold,
    parse_config_text,
    run_experiment,
    write_graph,
)
from interepi.io import (
    ExperimentConfig,
    analytic_frontier,
    load_network,
    model_moments,
    with_overrides,
    write_dynamics_csv,
    write_frontier_csv,
    write_sweep_csv,
)
import interepi.io as io_module
import interepi.sir as sir_module
from interepi.cli import main
from interepi.io import parse_grid, parse_settings
from interepi.sir import DynamicsResult, SweepResult
from interepi.threshold import FrontierSet, multi_threshold_empirical
from oracles import chain_plus_layer2, color_table, er_color


BASE_CONFIG = """
network.source = generate
layer.0.type = er
layer.0.n = 120
layer.0.mean_degree = 1.5
layer.1.type = er
layer.1.n = 120
layer.1.mean_degree = 5.0
inter.0.1.mean_degree = 1.0
analysis.tau = 5
analysis.grid_step = 0.05
analysis.tie_intra = true
sim.realizations = 4
sim.seed_placement = per-layer
sim.seeds_per_layer = 1 1
sweep.beta = 0:0.4:0.2
sweep.alpha = 0:0.4:0.2
dynamics.settings = 0.1:0.05 0.3:0.3
master_seed = 12
"""


def _failing_setting(*args):
    # module level, so that a pool can send it to its workers
    raise ValueError("dynamics failed")


def _as_run_writes(path) -> bytes:
    """A standalone CSV's bytes with the line that names the manifest `run`
    writes beside its own CSVs."""
    return Path(path).read_bytes() + b"# manifest: manifest\n"


class TestGraphFiles:
    def test_round_trip(self, tmp_path):
        g = chain_plus_layer2()
        path = tmp_path / "g.edges"
        write_graph(g, path)
        loaded = load_graph(path)
        assert graphs_equal(g, loaded)

    def test_round_trip_generated(self, tmp_path):
        layers = [ErLayerSpec(100, 2.0), PowerLawSpec(gamma=2.5, y_min=1, n=80)]
        g = build_interdependent(layers, {(0, 1): 0.8}, master_seed=77)
        path = tmp_path / "g.edges"
        write_graph(g, path)
        assert graphs_equal(g, load_graph(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.edges"
        path.write_text("")
        with pytest.raises(ParseError):
            load_graph(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "h.edges"
        path.write_text("#layers 4 3\n")
        g = load_graph(path)
        assert g.layer_sizes == (4, 3)
        assert g.num_edges == 0

    def test_comments_ignored(self, tmp_path):
        path = tmp_path / "c.edges"
        path.write_text("# a comment\n#layers 2 2\n# another\n0 0 1 1\n")
        g = load_graph(path)
        assert g.num_edges == 1

    def test_edge_before_header(self, tmp_path):
        path = tmp_path / "b.edges"
        path.write_text("0 0 0 1\n#layers 2 2\n")
        with pytest.raises(ParseError) as exc:
            load_graph(path)
        assert exc.value.line_no == 1

    def test_bad_field_count(self, tmp_path):
        path = tmp_path / "b.edges"
        path.write_text("#layers 2 2\n0 0 1\n")
        with pytest.raises(ParseError) as exc:
            load_graph(path)
        assert exc.value.line_no == 2

    def test_non_integer(self, tmp_path):
        path = tmp_path / "b.edges"
        path.write_text("#layers 2 2\n0 0 1 x\n")
        with pytest.raises(ParseError) as exc:
            load_graph(path)
        assert exc.value.line_no == 2
        assert str(exc.value) == "line 2: non-integer field in '0 0 1 x'"

    def test_undeclared_layer(self, tmp_path):
        path = tmp_path / "b.edges"
        path.write_text("#layers 2 2\n0 0 2 0\n")
        with pytest.raises(ParseError) as exc:
            load_graph(path)
        assert exc.value.line_no == 2
        assert str(exc.value) == "line 2: layer 2 not declared in header"

    @pytest.mark.parametrize(
        "bad,line_no,reason",
        [
            ("0 1 1 x", 7, "non-integer field in '0 1 1 x'"),
            ("  0 1  1\t", 7, "expected 'layer_u u layer_v v', got '0 1  1'"),
            ("0 1 -1 0", 7, "layer -1 not declared in header"),
            ("#layers 2 2", 7, "duplicate #layers header"),
            ("0 1 1 0 # c", 7, "expected 'layer_u u layer_v v', got '0 1 1 0 # c'"),
            ("0 1 1.0 0", 7, "non-integer field in '0 1 1.0 0'"),
        ],
    )
    def test_line_number_counts_comment_and_blank_lines(self, tmp_path, bad, line_no, reason):
        path = tmp_path / "b.edges"
        path.write_text(f"# made by hand\n\n#layers 2 2\n0 0 1 1\n\n   # note\n{bad}\n1 0 1 1\n")
        with pytest.raises(ParseError) as exc:
            load_graph(path)
        assert exc.value.line_no == line_no
        assert exc.value.reason == reason

    @pytest.mark.parametrize(
        "bad,error,message",
        [
            ("0 5 1 1", UnknownNode, "node (0, 5) outside layer of size 2"),
            # past int64: read line by line, not by np.loadtxt
            ("0 9223372036854775808 1 1", UnknownNode,
             "node (0, 9223372036854775807) outside layer of size 2"),
            ("1 1 1 1", SelfLoop, "self-loop at (1, 1)"),
            ("1 1 0 0", DuplicateEdge, "duplicate edge (1,1)-(0,0)"),
        ],
    )
    def test_validation_error_names_its_line(self, tmp_path, bad, error, message):
        path = tmp_path / "b.edges"
        path.write_text(f"# made by hand\n\n#layers 2 2\n0 0 1 1\n\n   # note\n{bad}\n1 0 1 1\n")
        with pytest.raises(error) as exc:
            load_graph(path)
        assert str(exc.value) == f"line 7: {message}"

    def test_first_malformed_line_raises(self, tmp_path):
        # a line-by-line reader stops at line 3, before the duplicate header
        # and the non-integer field
        path = tmp_path / "b.edges"
        path.write_text("#layers 2 2\n0 0 1 1\n0 0 1\n#layers 2\n0 0 1 x\n")
        with pytest.raises(ParseError) as exc:
            load_graph(path)
        assert exc.value.line_no == 3
        # format errors anywhere come before the layer check of earlier lines
        path.write_text("#layers 2 2\n0 0 5 1\n0 0 1 x\n")
        with pytest.raises(ParseError) as exc:
            load_graph(path)
        assert exc.value.line_no == 3

    def test_fields_read_with_int_semantics(self, tmp_path):
        path = tmp_path / "b.edges"
        path.write_text("#layers 8 12\n+0 007 1 1_0\n-0 1\t1 0\r\n")
        g = load_graph(path)
        assert g.edge_list() == [((0, 1), (1, 0), 2), ((0, 7), (1, 10), 2)]
        # signed fields in a file whose other fields are all plain digits
        path.write_text("#layers 2 2\n+1 0 +1 1\n0 -0 1 +0\n")
        assert load_graph(path).edge_list() == [((0, 0), (1, 0), 2), ((1, 0), (1, 1), 1)]
        # str.split() separators: vertical tab, file separator and form feed
        path.write_text("#layers\x0b2 2\n0\x0b0\x1c1 1\n\x1c\n\x0c1\t0 0 1\n")
        assert load_graph(path).edge_list() == [((0, 0), (1, 1), 2), ((0, 1), (1, 0), 2)]

    def test_huge_index_is_an_unknown_node(self, tmp_path):
        path = tmp_path / "b.edges"
        path.write_text("#layers 2 2\n0 0 1 1\n0 123456789012345678901234 1 0\n")
        with pytest.raises(UnknownNode):
            load_graph(path)

    @pytest.mark.parametrize("index, reader", [
        (2**31 - 1, "loadtxt"), (2**31, "lines"), (-2**31 - 1, "lines"),
    ])
    def test_int32_boundary_of_the_fast_reader(self, tmp_path, monkeypatch, index, reader):
        # np.loadtxt reads int32 fields; one beyond int32 leaves the file to the
        # line reader, and either way the validator names the node and its line
        real, read_edges = io_module._parse_lines, []

        def record(text):
            read_edges.append(any(line.strip()[:1] not in ("", "#") for line in text.split("\n")))
            return real(text)

        monkeypatch.setattr(io_module, "_parse_lines", record)
        path = tmp_path / "b.edges"
        path.write_text(f"#layers 2 2\n0 0 1 1\n0 {index} 1 0\n")
        with pytest.raises(UnknownNode) as exc:
            load_graph(path)
        assert str(exc.value) == f"line 3: node (0, {index}) outside layer of size 2"
        assert ("lines" if any(read_edges) else "loadtxt") == reader

    def test_non_positive_layer_size(self, tmp_path):
        path = tmp_path / "b.edges"
        path.write_text("# sizes\n#layers 0 2\n0 0 1 1\n")
        with pytest.raises(ParseError) as exc:
            load_graph(path)
        assert exc.value.line_no == 2
        assert exc.value.reason == "layer sizes must be positive"

    def test_non_ascii_byte(self, tmp_path):
        # text-mode line ends: a lone CR ends line 1 and CRLF ends line 2
        path = tmp_path / "b.edges"
        path.write_bytes(b"#layers 2 2\r0 0 1 1\r\n# caf\xc3\xa9\n0 1 1 0\n")
        with pytest.raises(ParseError) as exc:
            load_graph(path)
        assert exc.value.line_no == 3
        assert exc.value.reason == "non-ASCII byte"

    def test_duplicate_edge_propagates_validation(self, tmp_path):
        path = tmp_path / "b.edges"
        path.write_text("#layers 2 2\n0 0 1 1\n1 1 0 0\n")
        with pytest.raises(DuplicateEdge):
            load_graph(path)

    @pytest.mark.parametrize(
        "text,line_no,reason",
        [
            # every edge line has five integer fields
            ("#layers 2 2\n0 0 1 1 2\n0 1 1 0 2\n", 2,
             "expected 'layer_u u layer_v v', got '0 0 1 1 2'"),
            ("# a\n\n0 0 1 1\n# b\n#layers 2 2\n0 1 1 0\n", 3, "edge before #layers header"),
            ("#layers 2 2 # c\n0 0 1 1\n", 1, "layer sizes must be integers"),
        ],
    )
    def test_near_misses_of_a_plain_file(self, tmp_path, text, line_no, reason):
        path = tmp_path / "b.edges"
        path.write_text(text)
        with pytest.raises(ParseError) as exc:
            load_graph(path)
        assert (exc.value.line_no, exc.value.reason) == (line_no, reason)

    def test_plain_files_are_read_by_loadtxt(self, tmp_path, monkeypatch):
        # the line reader checks the first line, the #layers header, alone;
        # np.loadtxt reads the edge lines of a write_graph file and of one
        # with blank lines
        real = io_module._parse_lines

        def header_only(text):
            assert "\n" not in text and text.split()[0] == "#layers"
            return real(text)

        monkeypatch.setattr(io_module, "_parse_lines", header_only)
        g = chain_plus_layer2()
        path = tmp_path / "g.edges"
        write_graph(g, path)
        assert graphs_equal(load_graph(path), g)
        path.write_text("  #layers 2 2\n\n0 0 1 1\n  \n1 0 1 1\n")
        assert load_graph(path).edge_list() == [((0, 0), (1, 1), 2), ((1, 0), (1, 1), 1)]

    @pytest.mark.parametrize("text", [
        "# made by hand\n#layers 2 2\n0 0 1 1\n1 0 1 1\n",
        "#layers 2 2\n0 0 1 1\n  # b\n1 0 1 1\n",
        "\n#layers 2 2\n0 0 1 1\n1 0 1 1\n",
    ])
    def test_other_files_are_read_line_by_line(self, tmp_path, monkeypatch, text):
        # a comment line, or a header that is not the first line, leaves the
        # whole file to the line reader, which reads the same edges
        real, read = io_module._parse_lines, []

        def record(text):
            read.append(text)
            return real(text)

        monkeypatch.setattr(io_module, "_parse_lines", record)
        path = tmp_path / "g.edges"
        path.write_text(text)
        assert load_graph(path).edge_list() == [((0, 0), (1, 1), 2), ((1, 0), (1, 1), 1)]
        assert read[-1] == text


class TestConfigParsing:
    def test_full_config(self):
        cfg = parse_config_text(BASE_CONFIG)
        assert cfg.source == "generate"
        assert isinstance(cfg.layers[0], ErLayerSpec)
        assert cfg.layers[1].mean_degree == 5.0
        assert cfg.inter_means[(0, 1)] == 1.0
        assert cfg.tau == 5
        assert cfg.sweep_betas == (0.0, 0.2, 0.4)
        assert cfg.dynamics_settings == ((0.1, 0.05), (0.3, 0.3))
        assert cfg.master_seed == 12
        assert cfg.seeds.kind == "per_layer"

    def test_unknown_key_listed(self):
        with pytest.raises(ConfigError) as exc:
            parse_config_text(BASE_CONFIG + "\nanalysis.gridstep = 0.1\n")
        assert "analysis.gridstep" in str(exc.value)

    def test_powerlaw_layer(self):
        text = """
network.source = generate
layer.0.type = powerlaw
layer.0.n = 200
layer.0.gamma = 2.5
layer.1.type = er
layer.1.n = 100
layer.1.mean_degree = 2.0
inter.0.1.mean_degree = 0.5
"""
        cfg = parse_config_text(text)
        assert isinstance(cfg.layers[0], PowerLawSpec)
        assert cfg.layers[0].y_min == 1  # default

    @pytest.mark.parametrize(
        "kind,extra,key",
        [
            ("powerlaw", "layer.0.gamma = 2.5\nlayer.0.mean_degree = 3.0", "mean_degree"),
            ("er", "layer.0.mean_degree = 3.0\nlayer.0.gamma = 2.5", "gamma"),
            ("er", "layer.0.mean_degree = 3.0\nlayer.0.y_min = 2", "y_min"),
        ],
    )
    def test_layer_key_unused_by_its_type(self, kind, extra, key):
        text = f"network.source = generate\nlayer.0.type = {kind}\nlayer.0.n = 100\n{extra}\n"
        with pytest.raises(ConfigError) as exc:
            parse_config_text(text)
        assert str(exc.value) == f"layer.0.{key} is not used by type={kind}"

    @pytest.mark.parametrize(
        "lines,key",
        [
            ("sweep.beta = 0:x:0.2", "sweep.beta"),
            ("sweep.alpha = x:0.4:0.2", "sweep.alpha"),
            ("dynamics.settings = 0.1:0.05 0.3:x", "dynamics.settings"),
            ("sim.seed_placement = explicit\nsim.seed_nodes = 0:x", "sim.seed_nodes"),
            ("analysis.refine_tol = -0.01", "analysis.refine_tol"),
            ("analysis.refine_tol = nan", "analysis.refine_tol"),
            ("analysis.refine_tol = inf", "analysis.refine_tol"),
            ("sim.max_steps = -3", "sim.max_steps"),
            ("sweep.alpha = 0:1.4:0.2", "sweep.alpha"),
            ("sim.seed_placement = explicit\nsim.seed_nodes = 0:1:2", "sim.seed_nodes"),
        ],
    )
    def test_bad_value_names_its_key(self, lines, key):
        replaced = {line.split(" = ")[0] for line in lines.splitlines()}
        keep = [line for line in BASE_CONFIG.splitlines() if line.split(" = ")[0] not in replaced]
        with pytest.raises(ConfigError) as exc:
            parse_config_text("\n".join([*keep, lines]) + "\n")
        assert str(exc.value).startswith(key)

    @pytest.mark.parametrize(
        "lines,key,placement",
        [
            ("sim.seed_placement = uniform\nsim.seed_nodes = 9:9", "sim.seed_nodes", "uniform"),
            ("sim.seeds_per_layer = 1 1", "sim.seeds_per_layer", "uniform"),
            ("sim.seed_placement = per-layer\nsim.seeds_per_layer = 1 1\nsim.seed_count = -4",
             "sim.seed_count", "per-layer"),
            ("sim.seed_placement = explicit\nsim.seed_nodes = 0:1\nsim.seeds_per_layer = 1 1",
             "sim.seeds_per_layer", "explicit"),
        ],
    )
    def test_seed_key_unused_by_its_placement(self, lines, key, placement):
        keep = [line for line in BASE_CONFIG.splitlines() if not line.startswith("sim.seed")]
        with pytest.raises(ConfigError) as exc:
            parse_config_text("\n".join([*keep, lines]) + "\n")
        assert str(exc.value) == f"{key} is not used by sim.seed_placement={placement}"

    def test_missing_source(self):
        with pytest.raises(ConfigError):
            parse_config_text("layer.0.type = er\n")

    def test_file_source_requires_existing_file(self, tmp_path):
        text = "network.source = file\nnetwork.file = nothere.edges\n"
        with pytest.raises(ConfigError):
            parse_config_text(text, base_dir=str(tmp_path))

    def test_file_source(self, tmp_path):
        g = chain_plus_layer2()
        write_graph(g, tmp_path / "g.edges")
        cfg = parse_config_text(
            "network.source = file\nnetwork.file = g.edges\n", base_dir=str(tmp_path)
        )
        assert cfg.graph_file.endswith("g.edges")

    def test_range_validation(self):
        with pytest.raises(ConfigError):
            parse_config_text(BASE_CONFIG.replace("analysis.grid_step = 0.05",
                                                  "analysis.grid_step = 0.7"))
        with pytest.raises(ConfigError):
            parse_config_text(BASE_CONFIG.replace("analysis.tau = 5", "analysis.tau = 0"))
        with pytest.raises(ConfigError):
            parse_config_text(BASE_CONFIG.replace("sweep.beta = 0:0.4:0.2",
                                                  "sweep.beta = 0:1.4:0.2"))
        # a negative seed used to fail inside numpy, naming no key
        with pytest.raises(ConfigError, match="master_seed must be at least 0"):
            parse_config_text(BASE_CONFIG.replace("master_seed = 12", "master_seed = -1"))

    @pytest.mark.parametrize("key", ["layer.1.mean_degree", "inter.0.1.mean_degree"])
    def test_negative_mean_degree(self, key):
        line = next(ln for ln in BASE_CONFIG.splitlines() if ln.startswith(key))
        with pytest.raises(ConfigError, match=key):
            parse_config_text(BASE_CONFIG.replace(line, f"{key} = -0.5"))

    def test_duplicate_key(self):
        with pytest.raises(ConfigError):
            parse_config_text(BASE_CONFIG + "\nmaster_seed = 3\n")

    def test_inter_key_of_one_layer(self):
        # was accepted and ignored
        with pytest.raises(ConfigError, match=r"inter\.1\.1\.mean_degree"):
            parse_config_text(BASE_CONFIG + "\ninter.1.1.mean_degree = 2.0\n")

    def test_inter_pair_keyed_in_both_orders(self):
        # the line that came last won
        with pytest.raises(ConfigError, match=r"inter\.0\.1\.mean_degree and inter\.1\.0\.mean_degree"):
            parse_config_text(BASE_CONFIG + "\ninter.1.0.mean_degree = 2.0\n")

    def test_inter_pair_keyed_in_reverse_order(self):
        cfg = parse_config_text(BASE_CONFIG.replace("inter.0.1.", "inter.1.0."))
        assert cfg.inter_means == {(0, 1): 1.0}

    def test_model_moments_checks_inter_keys_as_generation_does(self):
        layers = [ErLayerSpec(120, 1.5), ErLayerSpec(120, 5.0)]
        for inter in ({(0, 5): 1.0}, {(1, 1): 1.0}, {(0, 1): 1.0, (1, 0): 2.0}):
            cfg = ExperimentConfig(source="generate", layers=layers, inter_means=inter)
            with pytest.raises(ValueError) as exc:
                model_moments(cfg)
            with pytest.raises(ValueError) as want:
                build_interdependent(layers, inter, 0)
            assert str(exc.value) == str(want.value)
        flipped = ExperimentConfig(source="generate", layers=layers, inter_means={(1, 0): 1.0})
        assert model_moments(flipped) == model_moments(parse_config_text(BASE_CONFIG))

    def test_grid_parse(self):
        assert parse_grid("0:0.1:0.05") == (0.0, 0.05, 0.1)
        assert parse_grid("0.2:0.2:0.1") == (0.2,)
        with pytest.raises(ConfigError):
            parse_grid("0:1")
        with pytest.raises(ConfigError):
            parse_grid("0:1:-0.1")
        # an infinite step gave an empty grid, an infinite stop an OverflowError
        for spec in ("0:1:inf", "0:inf:0.1", "nan:1:0.1"):
            with pytest.raises(ConfigError):
                parse_grid(spec)

    def test_settings_parse(self):
        assert parse_settings("0.1:0.2, 0.3:0.4") == ((0.1, 0.2), (0.3, 0.4))
        with pytest.raises(ConfigError):
            parse_settings("0.1")


class TestRunExperiment:
    def test_outputs_and_determinism(self, tmp_path):
        cfg1 = parse_config_text(BASE_CONFIG)
        out1 = run_experiment(cfg1, out_dir=str(tmp_path / "a"))
        assert set(out1) == {"frontier", "sweep", "dynamics", "dynamics_cumulative", "manifest"}
        for path in out1.values():
            assert os.path.exists(path)

        cfg2 = parse_config_text(BASE_CONFIG)
        out2 = run_experiment(cfg2, out_dir=str(tmp_path / "b"))
        for name in ("frontier", "sweep", "dynamics", "dynamics_cumulative"):
            a = Path(out1[name]).read_bytes()
            b = Path(out2[name]).read_bytes()
            assert a == b, f"{name} not byte-identical"

    def test_csv_shapes_and_manifest(self, tmp_path):
        cfg = parse_config_text(BASE_CONFIG)
        out = run_experiment(cfg, out_dir=str(tmp_path))
        sweep_lines = Path(out["sweep"]).read_text().strip().splitlines()
        assert sweep_lines[0] == "beta,alpha,density_L1,density_L2,density_all"
        assert sweep_lines[-1].startswith("# manifest:")
        assert len(sweep_lines) == 1 + 3 * 3 + 1  # header + cells + trailer

        frontier_lines = Path(out["frontier"]).read_text().strip().splitlines()
        assert frontier_lines[0] == "beta_1,beta_2,beta_3,theta"
        assert frontier_lines[-1].startswith("# manifest:")

        dyn_lines = Path(out["dynamics"]).read_text().strip().splitlines()
        assert dyn_lines[0] == "setting,step,infected_L1,infected_L2,infected_all"

        manifest = Path(out["manifest"]).read_text()
        assert "master_seed = 12" in manifest
        assert "config.layer.0.n = 120" in manifest
        assert "output = sweep.csv" in manifest

    def test_master_seed_override_changes_results(self, tmp_path):
        cfg = parse_config_text(BASE_CONFIG)
        out1, out2 = (
            run_experiment(with_overrides(cfg, {"master_seed": ("--master-seed", seed)}),
                           out_dir=str(tmp_path / seed))
            for seed in ("1", "2")
        )
        assert Path(out1["sweep"]).read_text() != Path(out2["sweep"]).read_text()
        assert cfg.master_seed == 12

    @pytest.mark.parametrize("missing", ["sweep.beta", "sweep.alpha"])
    def test_one_sweep_grid_is_a_config_error(self, tmp_path, monkeypatch, missing):
        def fail(*args, **kwargs):
            raise AssertionError("the network was built")

        monkeypatch.setattr(io_module, "load_network", fail)
        cfg = parse_config_text("\n".join(line for line in BASE_CONFIG.splitlines()
                                          if not line.startswith(missing)))
        with pytest.raises(ConfigError, match=f"; {missing} is not set$"):
            run_experiment(cfg, out_dir=str(tmp_path / "out"))
        assert not (tmp_path / "out").exists()

    def test_no_sweep_grid_runs_without_a_sweep(self, tmp_path):
        cfg = parse_config_text("\n".join(line for line in BASE_CONFIG.splitlines()
                                          if not line.startswith("sweep.")))
        out = run_experiment(cfg, out_dir=str(tmp_path))
        assert set(out) == {"frontier", "dynamics", "dynamics_cumulative", "manifest"}


def _frontier(rates, theta):
    rates = np.asarray(rates, dtype=float).reshape(-1, 3)
    return FrontierSet(rates=rates, theta=np.asarray(theta, dtype=float), grid_step=0.01,
                       evaluations=0)


class TestCsvWriters:
    def test_frontier_bytes(self, tmp_path):
        path = tmp_path / "f.csv"
        write_frontier_csv(path, _frontier([[1 / 3, 1.0, 0.05], [0.5, 0.0, 2e-5]],
                                           [1.0, 1.25]))
        assert path.read_bytes() == (
            b"beta_1,beta_2,beta_3,theta\n"
            b"0.3333333333,1,0.05,1\n"
            b"0.5,0,2e-05,1.25\n"
        )

    def test_empty_frontier_bytes(self, tmp_path):
        path = tmp_path / "f.csv"
        write_frontier_csv(path, _frontier([], []))
        assert path.read_bytes() == b"beta_1,beta_2,beta_3,theta\n"

    def test_sweep_bytes(self, tmp_path):
        # cells in (beta, alpha) order, beta outermost
        path = tmp_path / "s.csv"
        per_layer = np.array([[[0.1, 0.2], [1 / 3, 1.0]], [[2.0, 0.0], [0.25, 0.75]]])
        sweep = SweepResult(betas=(0.0, 0.5), alphas=(0.1, 0.2), density_per_layer=per_layer,
                            density_whole=per_layer.mean(axis=2))
        write_sweep_csv(path, sweep)
        assert path.read_bytes() == (
            b"beta,alpha,density_L1,density_L2,density_all\n"
            b"0,0.1,0.1,0.2,0.15\n"
            b"0,0.2,0.3333333333,1,0.6666666667\n"
            b"0.5,0.1,2,0,1\n"
            b"0.5,0.2,0.25,0.75,0.5\n"
        )

    def test_empty_sweep_bytes(self, tmp_path):
        path = tmp_path / "s.csv"
        sweep = SweepResult(betas=(), alphas=(0.3,), density_per_layer=np.empty((0, 1, 2)),
                            density_whole=np.empty((0, 1)))
        write_sweep_csv(path, sweep)
        assert path.read_bytes() == (
            b"beta,alpha,density_L1,density_L2,density_all\n"
        )

    def test_dynamics_bytes(self, tmp_path):
        result = DynamicsResult(
            settings=((0.1, 0.05), (1 / 3, 1.0)),
            infected=(np.array([[1.0, 1.0, 2.0], [0.5, 2 / 3, 7 / 6]]),
                      np.array([[2.0, 0.0, 2.0]])),
            cumulative=(np.array([[1.0, 1.0, 2.0], [1.5, 5 / 3, 19 / 6]]),
                        np.array([[2.0, 0.0, 2.0]])),
        )
        header = b"setting,step,infected_L1,infected_L2,infected_all\n"
        infected, cumulative = tmp_path / "d.csv", tmp_path / "c.csv"
        write_dynamics_csv(infected, result)
        write_dynamics_csv(cumulative, result, cumulative=True)
        assert infected.read_bytes() == header + (
            b"beta=0.1;alpha=0.05,0,1,1,2\n"
            b"beta=0.1;alpha=0.05,1,0.5,0.6666666667,1.166666667\n"
            b"beta=0.3333333333;alpha=1,0,2,0,2\n"
        )
        assert cumulative.read_bytes() == header + (
            b"beta=0.1;alpha=0.05,0,1,1,2\n"
            b"beta=0.1;alpha=0.05,1,1.5,1.666666667,3.166666667\n"
            b"beta=0.3333333333;alpha=1,0,2,0,2\n"
        )


class TestCli:
    def test_generate_info_threshold_simulate(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(BASE_CONFIG)
        graph_path = tmp_path / "g.edges"

        assert main(["generate", "--config", str(cfg_path), "--out", str(graph_path)]) == 0
        assert graph_path.exists()

        assert main(["info", "--graph", str(graph_path)]) == 0
        out = capsys.readouterr().out
        assert "layers: 2" in out
        assert "gcc(network)" in out

        csv_path = tmp_path / "front.csv"
        rc = main([
            "threshold", "--config", str(cfg_path), "--grid-step", "0.05",
            "--tie-intra", "--out", str(csv_path),
        ])
        assert rc == 0
        summary = capsys.readouterr().out
        assert re.fullmatch(r"wrote \S+ \(\d+ frontier tuples, grid step 0.05, "
                            r"[1-9]\d* evaluations\)\n", summary), summary
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "beta_1,beta_2,beta_3,theta"
        assert len(lines) > 2

        rc = main([
            "simulate", "--graph", str(graph_path), "--beta", "0.3", "--alpha", "0.2",
            "--tau", "5", "--master-seed", "4",
        ])
        assert rc == 0
        assert "density network" in capsys.readouterr().out

    def test_info_prints_each_colors_mean_restricted_degree(self, tmp_path, capsys):
        # 2 * edges / population, over layers of unequal sizes so that an
        # inter color's population is neither layer's
        g = build_interdependent([ErLayerSpec(300, 1.5), ErLayerSpec(700, 4.0),
                                  ErLayerSpec(450, 2.5)],
                                 {(0, 1): 1.0, (0, 2): 0.5, (1, 2): 2.0}, master_seed=3)
        graph_path = tmp_path / "g.edges"
        write_graph(g, graph_path)
        assert main(["info", "--graph", str(graph_path)]) == 0
        printed = [line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("color ")]
        counts = g.edge_count_by_color()
        expected = []
        for c, edges in enumerate(counts):
            members = g.colors.members(c)
            tag = (f"layer {members[0]}" if len(members) == 1
                   else f"layers {members[0]}-{members[1]}")
            population = sum(g.layer_sizes[h] for h in members)
            expected.append(f"color {c} ({tag}): edges={edges} "
                            f"mean_restricted={2 * edges / population:.4f}")
        assert printed == expected

    def test_empirical_threshold_route(self, tmp_path):
        g = chain_plus_layer2()
        graph_path = tmp_path / "g.edges"
        write_graph(g, graph_path)
        out_path = tmp_path / "f.csv"
        rc = main([
            "threshold", "--graph", str(graph_path), "--empirical",
            "--grid-step", "0.1", "--out", str(out_path),
        ])
        assert rc == 0
        assert out_path.exists()

    def test_empirical_threshold_of_one_layer(self, tmp_path, capsys):
        # one layer leaves no leading axis: the search runs one line
        graph_path, out_path = tmp_path / "g.edges", tmp_path / "f.csv"
        write_graph(build_interdependent([ErLayerSpec(300, 3.0)], {}, master_seed=3), graph_path)
        rc = main(["threshold", "--graph", str(graph_path), "--empirical",
                   "--out", str(out_path)])
        assert rc == 0, capsys.readouterr().err
        rows = [line for line in out_path.read_text().splitlines() if not line.startswith("#")]
        assert rows[0] == "beta_1,theta"
        assert len(rows) == 2 and rows[1].startswith("0.08,")

    def test_empirical_threshold_of_a_generated_network(self, tmp_path):
        # --empirical measures the network that the config generates
        cfg = parse_config_text(BASE_CONFIG)
        measured = multi_threshold_empirical(load_network(cfg), cfg.tau, cfg.grid_step,
                                             tie_intra=cfg.tie_intra)
        assert analytic_frontier(cfg, empirical=True) == measured
        assert analytic_frontier(cfg) != measured
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(BASE_CONFIG)
        model, empirical, expected = (tmp_path / f"{n}.csv" for n in ("m", "e", "x"))
        assert main(["threshold", "--config", str(cfg_path), "--out", str(model)]) == 0
        assert main(["threshold", "--config", str(cfg_path), "--empirical",
                     "--out", str(empirical)]) == 0
        write_frontier_csv(expected, measured)
        assert empirical.read_bytes() == expected.read_bytes() != model.read_bytes()

    def test_threshold_config_with_graph_file(self, tmp_path):
        # a file-source config gives the measured moments of its graph file
        graph_path = tmp_path / "g.edges"
        write_graph(build_interdependent([ErLayerSpec(200, 1.5), ErLayerSpec(200, 5.0)],
                                         {(0, 1): 1.0}, 3), graph_path)
        cfg_path = tmp_path / "file.cfg"
        cfg_path.write_text("network.source = file\nnetwork.file = g.edges\n"
                            "analysis.grid_step = 0.05\n")
        by_config, by_graph = tmp_path / "config.csv", tmp_path / "graph.csv"
        assert main(["threshold", "--config", str(cfg_path), "--out", str(by_config)]) == 0
        assert main(["threshold", "--graph", str(graph_path), "--grid-step", "0.05",
                     "--tie-intra", "--out", str(by_graph)]) == 0
        assert by_config.read_bytes() == by_graph.read_bytes()
        # a header and one point: the graph's inter ratio (<y^2> - <y>) / <y> is
        # 0.995 < 1, so beta = 0 stays subcritical at every alpha, and at
        # alpha = 0 the dense layer's ratio 5.006 crosses at beta 0.0436 -> 0.05
        assert len(by_config.read_text().splitlines()) == 2

    def test_threshold_of_a_three_layer_config(self, tmp_path):
        # the model route takes any layer count: six colors, inter colors in
        # pair order (0, 1), (0, 2), (1, 2), each over its two layers' nodes
        cfg_path, out, expected = tmp_path / "three.cfg", tmp_path / "f.csv", tmp_path / "x.csv"
        cfg_path.write_text("network.source = generate\n" + "".join(
            f"layer.{i}.type = er\nlayer.{i}.n = {n}\nlayer.{i}.mean_degree = {mean}\n"
            for i, (n, mean) in enumerate([(50, 3.0), (60, 2.0), (70, 1.0)]))
            + "inter.0.2.mean_degree = 1.0\ninter.1.2.mean_degree = 0.5\n"
            "analysis.grid_step = 0.1\n")
        assert main(["threshold", "--config", str(cfg_path), "--out", str(out)]) == 0
        sizes = (50, 60, 70)
        m = color_table([er_color(3.0, 50), er_color(2.0, 60), er_color(1.0, 70),
                         er_color(0.0, 110), er_color(1.0, 120), er_color(0.5, 130)], sizes)
        write_frontier_csv(expected, multi_threshold(m, sizes, 5, 0.1, tie_intra=True))
        assert out.read_bytes() == expected.read_bytes()
        assert out.read_text().startswith("beta_1,beta_2,beta_3,beta_4,beta_5,beta_6,theta\n")

    def test_sweep_and_dynamics_cli(self, tmp_path):
        g = chain_plus_layer2()
        graph_path = tmp_path / "g.edges"
        write_graph(g, graph_path)
        rc = main([
            "sweep", "--graph", str(graph_path), "--betas", "0:0.4:0.4",
            "--alphas", "0:0.4:0.4", "--realizations", "2",
            "--out", str(tmp_path / "s.csv"),
        ])
        assert rc == 0
        rc = main([
            "dynamics", "--graph", str(graph_path), "--settings", "0.2:0.1",
            "--realizations", "2", "--out", str(tmp_path / "d.csv"),
            "--cumulative-out", str(tmp_path / "dc.csv"),
        ])
        assert rc == 0
        assert (tmp_path / "dc.csv").exists()

    def test_sweep_and_dynamics_read_the_config_sim_block(self, tmp_path):
        # unset flags take analysis.tau, sim.* and master_seed from the config
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(BASE_CONFIG.replace("analysis.tau = 5", "analysis.tau = 3")
                            + "sim.max_steps = 30\n")
        run_dir = tmp_path / "run"
        assert main(["run", "--config", str(cfg_path), "--out", str(run_dir)]) == 0
        sweep = ["sweep", "--config", str(cfg_path),
                 "--betas", "0:0.4:0.2", "--alphas", "0:0.4:0.2"]
        assert main([*sweep, "--out", str(tmp_path / "s.csv")]) == 0
        assert _as_run_writes(tmp_path / "s.csv") == (run_dir / "sweep.csv").read_bytes()
        assert main(["dynamics", "--config", str(cfg_path), "--settings", "0.1:0.05 0.3:0.3",
                     "--out", str(tmp_path / "d.csv"),
                     "--cumulative-out", str(tmp_path / "dc.csv")]) == 0
        assert _as_run_writes(tmp_path / "d.csv") == (run_dir / "dynamics.csv").read_bytes()
        assert _as_run_writes(tmp_path / "dc.csv") == (
            run_dir / "dynamics_cumulative.csv").read_bytes()
        # a flag still wins over the config
        assert main([*sweep, "--realizations", "2", "--out", str(tmp_path / "s2.csv")]) == 0
        assert (tmp_path / "s2.csv").read_bytes() != (run_dir / "sweep.csv").read_bytes()

    def test_sweep_and_dynamics_take_their_grids_from_the_config(self, tmp_path):
        # --betas, --alphas and --settings only override sweep.beta,
        # sweep.alpha and dynamics.settings, so a config that sets them needs none
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(BASE_CONFIG)
        run_dir = tmp_path / "run"
        assert main(["run", "--config", str(cfg_path), "--out", str(run_dir)]) == 0
        assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "s.csv")]) == 0
        assert _as_run_writes(tmp_path / "s.csv") == (run_dir / "sweep.csv").read_bytes()
        assert main(["dynamics", "--config", str(cfg_path), "--out", str(tmp_path / "d.csv"),
                     "--cumulative-out", str(tmp_path / "dc.csv")]) == 0
        assert _as_run_writes(tmp_path / "d.csv") == (run_dir / "dynamics.csv").read_bytes()
        assert _as_run_writes(tmp_path / "dc.csv") == (
            run_dir / "dynamics_cumulative.csv").read_bytes()
        # and a flag replaces the config's grid
        assert main(["sweep", "--config", str(cfg_path), "--alphas", "0.2:0.2:0.1",
                     "--out", str(tmp_path / "s1.csv")]) == 0
        rows = (tmp_path / "s1.csv").read_text().splitlines()[1:]
        assert [row.split(",")[:2] for row in rows] == [[b, "0.2"] for b in ("0", "0.2", "0.4")]

    @pytest.mark.parametrize(
        "args,key,flag",
        [
            ("sweep", "sweep.beta", "--betas"),
            ("sweep --betas 0:0.2:0.2", "sweep.alpha", "--alphas"),
            ("sweep --alphas 0:0.2:0.2", "sweep.beta", "--betas"),
            ("dynamics", "dynamics.settings", "--settings"),
        ],
    )
    @pytest.mark.parametrize("source", ["config", "graph"])
    def test_sweep_and_dynamics_without_a_grid_exit_2(
        self, tmp_path, capsys, monkeypatch, args, key, flag, source
    ):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("\n".join(line for line in BASE_CONFIG.splitlines()
                                      if not line.startswith(("sweep.", "dynamics."))))
        if source == "config":
            given = ["--config", str(cfg_path)]
        else:
            given = ["--graph", str(self._graph(tmp_path))]
        monkeypatch.chdir(tmp_path)
        assert main([*args.split(), *given]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record == {"error": "ConfigError",
                          "message": f"{args.split()[0]} requires {key} in the config or {flag}"}
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("tol", ["-0.01", "nan", "inf"])
    def test_invalid_refine_exits_2(self, tmp_path, capsys, tol):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(BASE_CONFIG)
        rc = main(["threshold", "--config", str(cfg_path), "--refine", tol,
                   "--out", str(tmp_path / "f.csv")])
        assert rc == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigError"
        assert "--refine" in record["message"]

    @staticmethod
    def _cli(*args):
        # a child process with a timeout: both callers once never returned
        src = Path(interepi.__file__).resolve().parents[1]
        return subprocess.run([sys.executable, "-m", "interepi.cli", *args],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)

    def test_refine_below_the_float_spacing_returns(self, tmp_path):
        # the bisection's midpoint rounds to one end at float resolution, where
        # the line ends instead of stopping the bracket from shrinking
        cfg = Path(__file__).resolve().parents[1] / "configs" / "er-strong-desk.cfg"
        out = tmp_path / "f.csv"
        proc = self._cli("threshold", "--config", str(cfg), "--grid-step", "0.05",
                         "--refine", "1e-17", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert "(2 frontier tuples, grid step 0.05, " in proc.stdout
        assert len(out.read_text().splitlines()) == 3

    def test_power_law_layer_without_an_even_degree_sum_exits_4(self, tmp_path):
        # three nodes of degree 1 (y_min = y_max = 1) have no even degree sum;
        # the model route needs none, so the spec itself is valid
        layer = "layer.0.type = er\nlayer.0.n = 120\nlayer.0.mean_degree = 1.5"
        assert layer in BASE_CONFIG
        cfg = tmp_path / "odd.cfg"
        cfg.write_text(BASE_CONFIG.replace(layer, "layer.0.type = powerlaw\nlayer.0.n = 3\n"
                                           "layer.0.gamma = 50\nlayer.0.y_min = 1"))
        proc = self._cli("generate", "--config", str(cfg), "--out", str(tmp_path / "g.edges"))
        assert proc.returncode == 4, proc.stderr
        assert json.loads(proc.stderr.strip()) == {
            "error": "WiringFailed", "message": "3 degrees of 1 have no even sum"}
        assert not (tmp_path / "g.edges").exists()
        assert main(["threshold", "--config", str(cfg), "--out", str(tmp_path / "f.csv")]) == 0

    @staticmethod
    def _graph(tmp_path):
        path = tmp_path / "g.edges"
        layers = [ErLayerSpec(300, 1.5), ErLayerSpec(300, 5.0)]
        write_graph(build_interdependent(layers, {(0, 1): 1.0}, master_seed=12), path)
        return path

    @pytest.mark.parametrize(
        "command,flag,value",
        [
            ("threshold", "--grid-step", "0.7"),
            ("threshold", "--tau", "0"),
            ("sweep --betas 0:0.2:0.2 --alphas 0:0.2:0.2", "--realizations", "0"),
            ("sweep --betas 0:1.2:0.2 --alphas 0:0.2:0.2", "--betas", "0:1.2:0.2"),
            ("simulate --beta 0.3 --alpha 0.2", "--max-steps", "-3"),
            ("simulate --beta 0.3 --alpha 0.2", "--master-seed", "x"),
            ("sweep --betas 0:0.2:0.2 --alphas 0:0.2:0.2", "--seed-policy", "per-layer:x"),
            ("dynamics --settings 0.1:0.1", "--seed-policy", "bogus:1"),
            ("simulate --beta 0.3 --alpha 0.2", "--seed-policy", "uniform:0"),
            ("sweep --betas 0:0.2:0.2 --alphas 0:0.2:0.2", "--seed-policy", "per-layer:"),
            ("dynamics --settings 0.1:0.1", "--seed-policy", "per-layer:1,301"),
            ("dynamics --settings 0.1:0.1", "--seed-policy", "explicit:0/1,0/1"),
            ("classify --alpha 0.1", "--beta", "1.5"),
            ("sweep --betas 0:0.2:0.2 --alphas 0:0.2:0.2", "--threads", "0"),
            ("sweep --betas 0:0.2:0.2 --alphas 0:0.2:0.2", "--threads", "-3"),
            ("dynamics --settings 0.1:0.1", "--threads", "0"),
            ("dynamics --settings 0.1:0.1", "--threads", "-3"),
        ],
    )
    def test_bad_flag_value_exits_2_naming_the_flag(
        self, tmp_path, capsys, monkeypatch, command, flag, value
    ):
        graph = self._graph(tmp_path)
        monkeypatch.chdir(tmp_path)
        rc = main([*command.split(), "--graph", str(graph), flag, value])
        assert rc == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigError"
        assert record["message"].startswith(flag)

    def test_domain_error_exits_2(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise DomainError("grid step must be in (0, 0.5]")

        monkeypatch.setattr(cli_module, "analytic_frontier", fail)
        rc = main(["threshold", "--graph", str(self._graph(tmp_path)),
                   "--out", str(tmp_path / "f.csv")])
        assert rc == 2
        assert json.loads(capsys.readouterr().err.strip())["error"] == "DomainError"

    def test_grid_beyond_the_bound_exits_2(self, tmp_path, capsys):
        # untied, as without a config, three layers at the default step 0.01
        # exited 1 with numpy's traceback for a 392 GiB array
        path = tmp_path / "three.edges"
        write_graph(build_interdependent([ErLayerSpec(n, 2.0) for n in (60, 90, 120)],
                                         {(0, 1): 0.5, (1, 2): 0.5}, master_seed=1), path)
        out = tmp_path / "f.csv"
        for flags, message in [
            ((), "grid step 0.01 over 6 searched axes gives 10510100501 lines of 101 rates"),
            (("--tie-intra", "--grid-step", "1e-9"),
             "grid step 1e-09 over 4 searched axes gives 1000000003000000003000000001 lines "
             "of 1000000001 rates"),
        ]:
            assert main(["threshold", "--graph", str(path), *flags, "--out", str(out)]) == 2
            record = json.loads(capsys.readouterr().err.strip())
            assert record == {"error": "DomainError",
                              "message": f"{message}, more than 4194304"}
            assert not out.exists()
        # tied at 0.01, 101^3 lines, still runs
        assert main(["threshold", "--graph", str(path), "--tie-intra", "--out", str(out)]) == 0

    @pytest.mark.parametrize("empirical", [(), ("--empirical",)])
    def test_threshold_of_an_edgeless_graph_exits_3(self, tmp_path, capsys, empirical):
        # without --empirical an edgeless file wrote an empty frontier
        path = tmp_path / "g.edges"
        path.write_text("#layers 3 4\n")
        assert main(["threshold", "--graph", str(path), *empirical,
                     "--out", str(tmp_path / "f.csv")]) == 3
        assert json.loads(capsys.readouterr().err.strip()) == {
            "error": "EmptyColor", "message": "no edges on any color"}

    def test_classify_reads_the_config_tau(self, tmp_path, capsys):
        graph = self._graph(tmp_path)
        cfg_path = tmp_path / "file.cfg"
        cfg_path.write_text("network.source = file\nnetwork.file = g.edges\nanalysis.tau = 1\n")
        states = []
        for source in (["--config", str(cfg_path)], ["--graph", str(graph), "--tau", "1"],
                       ["--graph", str(graph)]):
            assert main(["classify", *source, "--beta", "0.05", "--alpha", "0.05"]) == 0
            states.append(capsys.readouterr().out.splitlines()[-1])
        # tau = 1 leaves the network infection-free where the default tau = 5 does not
        assert states[0] == states[1] != states[2]

    def test_explicit_seed_policy_is_the_seed_nodes_key(self, tmp_path):
        graph = self._graph(tmp_path)
        cfg_path = tmp_path / "file.cfg"
        cfg_path.write_text("network.source = file\nnetwork.file = g.edges\n"
                            "sim.seed_placement = explicit\nsim.seed_nodes = 0:2\n")
        args = ["dynamics", "--settings", "0.3:0.3", "--realizations", "3"]
        by_key, by_flag, default = (tmp_path / f"{name}.csv" for name in ("key", "flag", "default"))
        assert main([*args, "--config", str(cfg_path), "--out", str(by_key)]) == 0
        assert main([*args, "--graph", str(graph), "--seed-policy", "explicit:0/2",
                     "--out", str(by_flag)]) == 0
        assert main([*args, "--graph", str(graph), "--out", str(default)]) == 0
        assert by_key.read_bytes() == by_flag.read_bytes() != default.read_bytes()

    @pytest.mark.parametrize("seed", ["0/-1", "0/300", "2/0"])
    def test_explicit_seed_outside_the_graph_exits_2(self, tmp_path, seed):
        # a child process: explicit:0/-1 once crashed the interpreter (SIGSEGV),
        # and explicit:0/300 seeded node 0 of layer 1
        src = Path(interepi.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-m", "interepi.cli", "simulate", "--graph",
             str(self._graph(tmp_path)), "--beta", "0.3", "--alpha", "0.2",
             "--seed-policy", f"explicit:1/0,{seed}"],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 2, proc.stderr
        record = json.loads(proc.stderr.strip())
        assert record["error"] == "ConfigError"
        assert record["message"].startswith("--seed-policy: ")
        assert f"({seed.replace('/', ', ')})" in record["message"]

    def test_seed_policy_overrides_the_config_placement(self, tmp_path):
        # the config's per-layer keys do not stop --seed-policy from replacing them
        per_layer, uniform = tmp_path / "per-layer.cfg", tmp_path / "uniform.cfg"
        per_layer.write_text(BASE_CONFIG)
        uniform.write_text(BASE_CONFIG.replace(
            "sim.seed_placement = per-layer\nsim.seeds_per_layer = 1 1", "sim.seed_count = 3"))
        args = ["dynamics", "--settings", "0.3:0.3", "--realizations", "3"]
        by_flag, by_key = tmp_path / "flag.csv", tmp_path / "key.csv"
        assert main([*args, "--config", str(per_layer), "--seed-policy", "uniform:3",
                     "--out", str(by_flag)]) == 0
        assert main([*args, "--config", str(uniform), "--out", str(by_key)]) == 0
        assert by_flag.read_bytes() == by_key.read_bytes()

    def test_threshold_at_gamma_three_exits_0(self, tmp_path):
        # the second moment of a gamma = 3 layer is its logarithmic limit
        cfg_path, out = tmp_path / "sf.cfg", tmp_path / "f.csv"
        cfg_path.write_text("network.source = generate\nlayer.0.type = powerlaw\n"
                            "layer.0.n = 300\nlayer.0.gamma = 3\nlayer.1.type = er\n"
                            "layer.1.n = 300\nlayer.1.mean_degree = 3\n"
                            "inter.0.1.mean_degree = 1\nanalysis.grid_step = 0.05\n")
        assert main(["threshold", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) > 2

    def test_run_stops_at_an_explicit_seed_outside_the_graph(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(BASE_CONFIG.replace("sim.seed_placement = per-layer",
                                                "sim.seed_placement = explicit")
                            .replace("sim.seeds_per_layer = 1 1", "sim.seed_nodes = 1:0 0:120"))
        rc = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == 2
        message = json.loads(capsys.readouterr().err.strip())["message"]
        assert message.startswith("sim.seed_nodes: ") and "(0, 120)" in message
        assert not (tmp_path / "out" / "sweep.csv").exists()
        assert not (tmp_path / "out" / "frontier.csv").exists()

    def test_run_with_one_sweep_grid_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(BASE_CONFIG.replace("sweep.alpha = 0:0.4:0.2\n", ""))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record == {
            "error": "ConfigError",
            "message": "a sweep needs both sweep.beta and sweep.alpha; sweep.alpha is not set",
        }
        assert not (tmp_path / "out").exists()

    def test_seed_policy_is_checked_before_any_realization(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a realization ran")

        for name in ("run_sir", "sweep_heatmap", "dynamics"):
            monkeypatch.setattr(cli_module, name, fail)
        graph = self._graph(tmp_path)
        cfg_path = tmp_path / "file.cfg"
        cfg_path.write_text("network.source = file\nnetwork.file = g.edges\n"
                            "sim.seed_count = 601\n")
        for args in (["simulate", "--beta", "0.3", "--alpha", "0.2"],
                     ["sweep", "--betas", "0:0.2:0.2", "--alphas", "0:0.2:0.2"],
                     ["dynamics", "--settings", "0.1:0.1"]):
            assert main([*args, "--config", str(cfg_path)]) == 2
            record = json.loads(capsys.readouterr().err.strip())
            assert record == {"error": "ConfigError",
                              "message": "sim.seed_count: seed count 601 outside [1, 600]"}
            assert main([*args, "--graph", str(graph), "--seed-policy", "uniform:601"]) == 2
            assert json.loads(capsys.readouterr().err.strip())["message"].startswith(
                "--seed-policy: seed count 601")

    def test_run_writes_nothing_when_a_later_stage_fails(self, tmp_path, capsys, monkeypatch):
        # every dynamics setting raises, in this process or in a pool worker
        monkeypatch.setattr(sir_module, "_setting_counts", _failing_setting)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(BASE_CONFIG)
        for threads in (["--threads", "1"], []):
            out = tmp_path / "out"
            assert main(["run", "--config", str(cfg_path), "--out", str(out), *threads]) == 2
            assert not out.exists()
            assert "dynamics failed" in capsys.readouterr().err

    def test_classify(self, tmp_path, capsys):
        layers = [ErLayerSpec(400, 1.5), ErLayerSpec(400, 6.0)]
        g = build_interdependent(layers, {(0, 1): 1.5}, master_seed=2)
        graph_path = tmp_path / "g.edges"
        write_graph(g, graph_path)
        rc = main(["classify", "--graph", str(graph_path), "--beta", "0.5", "--alpha", "0.5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "coupling: strongly-coupled" in out
        assert "state at" in out

    @pytest.mark.parametrize("given,missing", [("--alpha", "--beta"), ("--beta", "--alpha")])
    def test_classify_with_one_rate_exits_2(self, tmp_path, capsys, given, missing):
        graph_path = tmp_path / "g.edges"
        write_graph(chain_plus_layer2(), graph_path)
        assert main(["classify", "--graph", str(graph_path), given, "0.2"]) == 2
        captured = capsys.readouterr()
        record = json.loads(captured.err.strip())
        assert record["error"] == "ConfigError"
        assert record["message"] == f"{missing} is required with {given}"
        assert "state at" not in captured.out

    def test_run_subcommand(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(BASE_CONFIG)
        rc = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "frontier.csv").exists()
        assert (tmp_path / "out" / "manifest").exists()

    # sha256 of every file `run` writes for BASE_CONFIG, the same bytes as
    # when every CSV, standalone or not, ended with the manifest line.
    # frontier.csv is "beta_1,beta_2,beta_3,theta\n0,0,1,1\n0.05,0.05,0,
    # 1.131095313\n# manifest: manifest\n": equal ER layers lump the Jacobian
    # to [[1.5 R(b), R(a)], [R(a), 5 R(b)]], so b = 0 crosses at R(a) = 1,
    # a = 1 with theta 1, and a = 0 at 5 R(b) >= 1, b >= 0.0437 -> 0.05 with
    # theta 5 R(0.05) = 1.1310953125 (printed to 10 digits)
    RUN_SHA256 = {
        "dynamics.csv": "ee992700e655fae5240b0d996c9ae0a152f2f2a036e31de082a8419edfaf6e30",
        "dynamics_cumulative.csv":
            "7bf466b816266fcb058a4f16c65be40f742094f0fa63abb2cda4376ebdb8d038",
        "frontier.csv": "4733b45282417ef43cd1cb75c81ba72bc3ffd4c5b3d1a297456fe3a4a8a1979d",
        "manifest": "e9acb1423bd28af494bef9565469fa6e6d93669789531c9f7a8da71ae6791824",
        "sweep.csv": "b2df2e3a013eeac34a48b82a6db47d12cb07c16a7e7d3108f051dd3562683aeb",
    }

    @pytest.mark.parametrize("threads", [(), ("--threads", "1"), ("--threads", "2")])
    def test_run_files_keep_their_bytes(self, tmp_path, capsys, threads):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(BASE_CONFIG)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out), *threads]) == 0
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in out.iterdir()}
        assert digests == self.RUN_SHA256

    # sha256 of the graph file `generate` writes for a config at a master
    # seed, the same bytes as when every field was formatted by "%d"
    GENERATE_SHA256 = {
        ("configs/er-strong-desk.cfg", 0):
            "46848c4b509014ef1b6f7605bdce36d9155ab2ee50c3c21759c3da12724416a8",
        ("configs/er-strong-desk.cfg", 42):
            "3656a5fbe6df2d2b760c45c4762eeaa502effcc449bfe9a9f28b4dfe4480d50a",
        ("configs/er-weak-desk.cfg", 0):
            "97f7348305145bfbf14398b1d7c5fb6e61cd2a3bd09899ae33aea0827bf47688",
        ("configs/er-weak-desk.cfg", 42):
            "4e0db8e8a35d0a7e95875ee7807637a688798ecb0077ea1a6dd7af38261e5780",
        ("perfbench/configs/cli-er.cfg", 0):
            "46848c4b509014ef1b6f7605bdce36d9155ab2ee50c3c21759c3da12724416a8",
        ("perfbench/configs/cli-er.cfg", 42):
            "3656a5fbe6df2d2b760c45c4762eeaa502effcc449bfe9a9f28b4dfe4480d50a",
    }

    @pytest.mark.parametrize("config,seed", sorted(GENERATE_SHA256))
    def test_generated_graph_files_keep_their_bytes(self, tmp_path, capsys, config, seed):
        path = tmp_path / "g.edges"
        cfg = Path(__file__).resolve().parents[1] / config
        assert main(["generate", "--config", str(cfg), "--master-seed", str(seed),
                     "--out", str(path)]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.GENERATE_SHA256[config, seed]

    def test_standalone_csvs_end_without_a_manifest_line(self, tmp_path, capsys, monkeypatch):
        # no manifest is written beside them; otherwise they are run's files
        (tmp_path / "exp.cfg").write_text(BASE_CONFIG)
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", "exp.cfg", "--out", "run"]) == 0
        for args in (["threshold", "--out", "frontier.csv"], ["sweep", "--out", "sweep.csv"],
                     ["dynamics", "--out", "dynamics.csv",
                      "--cumulative-out", "dynamics_cumulative.csv"]):
            assert main([*args, "--config", "exp.cfg"]) == 0
        for name in ("frontier.csv", "sweep.csv", "dynamics.csv", "dynamics_cumulative.csv"):
            standalone = (tmp_path / name).read_bytes()
            assert b"manifest" not in standalone
            assert _as_run_writes(tmp_path / name) == (tmp_path / "run" / name).read_bytes()

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(BASE_CONFIG + "\nbogus.key = 1\n")
        rc = main(["run", "--config", str(cfg_path)])
        assert rc == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigError"
        assert "bogus.key" in record["message"]

    @pytest.mark.parametrize("extra,keys", [
        ("inter.1.1.mean_degree = 2.0", ["inter.1.1.mean_degree"]),
        ("inter.1.0.mean_degree = 2.0", ["inter.0.1.mean_degree", "inter.1.0.mean_degree"]),
    ])
    def test_inter_key_error_exit_code(self, tmp_path, capsys, extra, keys):
        # info exited 0 on both configs
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(BASE_CONFIG + extra + "\n")
        assert main(["info", "--config", str(cfg_path)]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigError"
        assert all(key in record["message"] for key in keys)

    def test_data_error_exit_code(self, tmp_path, capsys):
        rc = main(["info", "--graph", str(tmp_path / "missing.edges")])
        assert rc == 3
        record = json.loads(capsys.readouterr().err.strip())
        assert "error" in record

    def test_eigenvalue_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", fail)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(BASE_CONFIG)
        rc = main(["threshold", "--config", str(cfg_path), "--out", str(tmp_path / "f.csv")])
        assert rc == 4
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "NonConvergence"
        assert "did not converge" in record["message"]

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.edges"
        path.write_text("0 0 1 1\n")
        rc = main(["info", "--graph", str(path)])
        assert rc == 3
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ParseError"

    @pytest.mark.parametrize("contents", [b"#layers 0 2\n", b"#layers 2 2\n0 0 1 \xff\n"])
    def test_malformed_graph_file_exit_code(self, tmp_path, capsys, contents):
        path = tmp_path / "bad.edges"
        path.write_bytes(contents)
        rc = main(["info", "--graph", str(path)])
        assert rc == 3
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ParseError"

    @pytest.mark.parametrize(
        "command,flag",
        [
            ("generate", ("--threads", "2")),
            ("info", ("--threads", "2")),
            ("info", ("--out", "x")),
            ("threshold", ("--threads", "8")),
            ("threshold", ("--master-seed", "3")),
            ("simulate --beta 0.1 --alpha 0.1", ("--threads", "2")),
            ("simulate --beta 0.1 --alpha 0.1", ("--out", "x")),
            ("classify", ("--threads", "2")),
            ("classify", ("--out", "x")),
        ],
    )
    def test_flags_only_where_read(self, tmp_path, capsys, command, flag):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(BASE_CONFIG)
        with pytest.raises(SystemExit) as exc:
            main([*command.split(), "--config", str(cfg_path), *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


class TestGraphRouteBytes:
    """The outputs of the routes that measure a graph file, on generated
    graphs of unequal layers: sha256 of the `threshold --graph` CSV, and the
    `classify` state lines."""

    TWO = ([ErLayerSpec(3000, 2.0), ErLayerSpec(7000, 4.0)], {(0, 1): 0.8}, 5)
    THREE = ([ErLayerSpec(300, 1.5), ErLayerSpec(700, 4.0), ErLayerSpec(450, 2.5)],
             {(0, 1): 1.0, (0, 2): 0.5, (1, 2): 2.0}, 3)
    THRESHOLD_SHA256 = {
        ("TWO", "--grid-step 0.05"):
            "a8a5248e3e6d428bbb8edcb2db81965ccafbef38dcc25acfd0edd258aa38a23f",
        ("TWO", "--grid-step 0.01 --tie-intra --refine 1e-4"):
            "70ac3b9d5c82a77c246e246d11d18eac8cd429b806614cf9443d0ea74bfbd4e4",
        ("THREE", "--grid-step 0.1"):
            "34c16569f28b8d1cd5f97be251cc675daf3ea4abf49c9d2e5cf594e99f76ff5d",
        ("THREE", "--grid-step 0.1 --tie-intra --refine 1e-4"):
            "71499212271867671c095b3d5211822c7f6bace0e83a00868b7044f5fb140976",
    }
    # layer 0 alone is epidemic from beta 0.129 (kappa 3), layer 1 from 0.056 (kappa 5)
    CLASSIFY_STATES = {
        ("0.02", "0.02"): "infection-free",
        ("0.05", "0"): "infection-free",
        ("0.06", "0.1"): "mixed",
        ("0.08", "0.01"): "mixed",
        ("0.1", "0.3"): "mixed",
        ("0.12", "0.05"): "mixed",
        ("0", "1"): "mixed",
        ("0.2", "0"): "epidemic",
        ("0.2", "0.2"): "epidemic",
        ("0.5", "0.5"): "epidemic",
    }

    @pytest.fixture(scope="class")
    def graph_files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("graphs")
        for name in ("TWO", "THREE"):
            write_graph(build_interdependent(*getattr(self, name)), root / f"{name}.edges")
        return root

    @pytest.mark.parametrize("graph,flags", sorted(THRESHOLD_SHA256))
    def test_threshold_of_a_graph_file_keeps_its_bytes(self, graph_files, tmp_path, capsys,
                                                       graph, flags):
        out = tmp_path / "f.csv"
        assert main(["threshold", "--graph", str(graph_files / f"{graph}.edges"),
                     *flags.split(), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.THRESHOLD_SHA256[graph, flags]

    def test_classify_state_lines(self, graph_files, capsys):
        for (beta, alpha), state in self.CLASSIFY_STATES.items():
            assert main(["classify", "--graph", str(graph_files / "TWO.edges"),
                         "--beta", beta, "--alpha", alpha]) == 0
            line = capsys.readouterr().out.splitlines()[-1]
            assert line == f"state at beta={float(beta)} alpha={float(alpha)}: {state}"


class TestModelRouteBytes:
    """The outputs of the route that reads a generated network's layer specs:
    sha256 of the `threshold --config` CSV on the desk configs, tied at their
    own grid step and untied at 0.05, on unequal ER and power-law layers, and
    on three layers with a missing pair."""

    TWO = ("network.source = generate\n"
           "layer.0.type = er\nlayer.0.n = 3000\nlayer.0.mean_degree = 2.0\n"
           "layer.1.type = powerlaw\nlayer.1.n = 7000\nlayer.1.gamma = 2.5\n"
           "inter.0.1.mean_degree = 0.8\n")
    THREE = ("network.source = generate\n"
             "layer.0.type = er\nlayer.0.n = 300\nlayer.0.mean_degree = 1.5\n"
             "layer.1.type = er\nlayer.1.n = 700\nlayer.1.mean_degree = 4.0\n"
             "layer.2.type = powerlaw\nlayer.2.n = 450\nlayer.2.gamma = 2.9\n"
             "inter.0.1.mean_degree = 1.0\ninter.0.2.mean_degree = 0.5\n"
             "analysis.grid_step = 0.1\n")
    THRESHOLD_SHA256 = {
        ("er-strong-desk", "tied", ""):
            "a500865b33c8cbb4bffc552c217bb8d789f875c29dd4a89ae943e765b73d9586",
        ("er-strong-desk", "tied", "--refine 1e-4"):
            "816ba14cb03b721dda45d921a02ce2dc418893752fc14349101c167bdcdf7b1e",
        ("er-strong-desk", "untied", "--grid-step 0.05"):
            "ec42c766c9fe1ae4d7f15eae0c9840882f9153bbaaecd022eec5ed8d24a251ad",
        ("er-weak-desk", "tied", ""):
            "380b25c29e8ce5bad86bb49dd7016cc907f2005633bc1430b6465bed55115c37",
        ("er-weak-desk", "untied", "--grid-step 0.05"):
            "a9b90dbd49bb9328ded1020e86a3c7179574d23b37c96dc717c385f181762329",
        ("sf-desk", "tied", ""):
            "72f6b35ca448546d009e111630f7252c8ff7a33cb4f4bccad0e9df8cd9f7893a",
        ("sf-desk", "untied", "--grid-step 0.05"):
            "9d060899ec5117f53a2417b7b2ed753c79395e6794fe35c2036cb64d09908920",
        ("TWO", "tied", ""):
            "5fad9971bb98d6c6d5813fc5855065a95bb0bcf4583608d242c2b876aee0b19f",
        ("TWO", "untied", "--grid-step 0.05"):
            "defeea2838a821a357a910f66507c87bfb824ec3bcef7c99017fa5f922f74240",
        ("THREE", "tied", ""):
            "0c22fac49738f997ef1ecdd3ec2e65bdb55a6077c66ae967869e12fab315ac11",
    }

    @pytest.fixture(scope="class")
    def configs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("configs")
        desk = Path(__file__).resolve().parents[1] / "configs"
        texts = {name: (desk / f"{name}.cfg").read_text(encoding="utf-8")
                 for name in ("er-strong-desk", "er-weak-desk", "sf-desk")}
        texts.update(TWO=self.TWO, THREE=self.THREE)
        for name, text in texts.items():
            (root / f"{name}-tied.cfg").write_text(text)
            untied = text.replace("analysis.tie_intra = true", "")
            (root / f"{name}-untied.cfg").write_text(untied + "\nanalysis.tie_intra = false\n")
        return root

    @pytest.mark.parametrize("name,tie,flags", sorted(THRESHOLD_SHA256))
    def test_threshold_of_a_config_keeps_its_bytes(self, configs, tmp_path, capsys,
                                                   name, tie, flags):
        out = tmp_path / "f.csv"
        assert main(["threshold", "--config", str(configs / f"{name}-{tie}.cfg"),
                     *flags.split(), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == \
            self.THRESHOLD_SHA256[name, tie, flags]


def test_readme_python_quick_start_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert "DensityResult(" in capsys.readouterr().out


def _readme_keys() -> set[str]:
    """The keys of the README's 'Recognized keys' table, one per key."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = text.split("Recognized keys:", 1)[1].split("\n\n")[1]
    return {key for row in table.splitlines()[2:]
            for key in re.findall(r"`([^`]+)`", row.split("|")[1])}


def _accepted(key: str) -> bool:
    """Whether parse_config_text knows ``key`` (layer <i> = 0, <j> = 1)."""
    key = key.replace("<i>", "0").replace("<j>", "1")
    lines = {line.split(" = ")[0]: line for line in BASE_CONFIG.strip().splitlines()}
    lines[key] = f"{key} = 1"
    try:
        parse_config_text("\n".join(lines.values()))
    except ConfigError as exc:
        return not str(exc).startswith("unknown config key")
    return True


class TestConfigKeyDocs:
    def test_readme_lists_exactly_the_accepted_keys(self):
        declared = ({*io_module._KEYS, "inter.<i>.<j>.mean_degree"}
                    | {f"layer.<i>.{name}" for name in io_module._LAYER_FIELDS})
        readme = _readme_keys()
        assert {key for key in readme | declared if _accepted(key)} == readme
        assert all(_accepted(key) for key in declared)
        for key in ("analysis.gridstep", "layer.<i>.foo", "inter.<i>.<j>.n", "seed_count"):
            assert not _accepted(key)

    def test_every_flag_overrides_an_accepted_key(self):
        keys = [key for key, *_ in cli_module._FLAGS.values() if key is not None]
        assert len(keys) == 11
        assert all(key in _readme_keys() and _accepted(key) for key in keys)
