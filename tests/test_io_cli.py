import json
import os

import numpy as np
import pytest

from interepi import (
    ConfigError,
    DuplicateEdge,
    ErLayerSpec,
    ParseError,
    PowerLawSpec,
    UnknownNode,
    build_interdependent,
    graphs_equal,
    load_graph,
    parse_config_text,
    run_experiment,
    write_graph,
)
from interepi.cli import main
from interepi.io import parse_grid, parse_settings
from oracles import chain_plus_layer2


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
        ],
    )
    def test_line_number_counts_comment_and_blank_lines(self, tmp_path, bad, line_no, reason):
        path = tmp_path / "b.edges"
        path.write_text(f"# made by hand\n\n#layers 2 2\n0 0 1 1\n\n   # note\n{bad}\n1 0 1 1\n")
        with pytest.raises(ParseError) as exc:
            load_graph(path)
        assert exc.value.line_no == line_no
        assert exc.value.reason == reason

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

    def test_huge_index_is_an_unknown_node(self, tmp_path):
        path = tmp_path / "b.edges"
        path.write_text("#layers 2 2\n0 0 1 1\n0 123456789012345678901234 1 0\n")
        with pytest.raises(UnknownNode):
            load_graph(path)

    def test_duplicate_edge_propagates_validation(self, tmp_path):
        path = tmp_path / "b.edges"
        path.write_text("#layers 2 2\n0 0 1 1\n1 1 0 0\n")
        with pytest.raises(DuplicateEdge):
            load_graph(path)


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

    def test_duplicate_key(self):
        with pytest.raises(ConfigError):
            parse_config_text(BASE_CONFIG + "\nmaster_seed = 3\n")

    def test_grid_parse(self):
        assert parse_grid("0:0.1:0.05") == (0.0, 0.05, 0.1)
        assert parse_grid("0.2:0.2:0.1") == (0.2,)
        with pytest.raises(ConfigError):
            parse_grid("0:1")
        with pytest.raises(ConfigError):
            parse_grid("0:1:-0.1")

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
            a = open(out1[name], "rb").read()
            b = open(out2[name], "rb").read()
            assert a == b, f"{name} not byte-identical"

    def test_csv_shapes_and_manifest(self, tmp_path):
        cfg = parse_config_text(BASE_CONFIG)
        out = run_experiment(cfg, out_dir=str(tmp_path))
        sweep_lines = open(out["sweep"]).read().strip().splitlines()
        assert sweep_lines[0] == "beta,alpha,density_L1,density_L2,density_all"
        assert sweep_lines[-1].startswith("# manifest:")
        assert len(sweep_lines) == 1 + 3 * 3 + 1  # header + cells + trailer

        frontier_lines = open(out["frontier"]).read().strip().splitlines()
        assert frontier_lines[0] == "beta_1,beta_2,beta_3,theta"
        assert frontier_lines[-1].startswith("# manifest:")

        dyn_lines = open(out["dynamics"]).read().strip().splitlines()
        assert dyn_lines[0] == "setting,step,infected_L1,infected_L2,infected_all"

        manifest = open(out["manifest"]).read()
        assert "master_seed = 12" in manifest
        assert "config.layer.0.n = 120" in manifest
        assert "output = sweep.csv" in manifest

    def test_master_seed_override_changes_results(self, tmp_path):
        cfg = parse_config_text(BASE_CONFIG)
        out1 = run_experiment(cfg, out_dir=str(tmp_path / "a"), master_seed=1)
        cfg2 = parse_config_text(BASE_CONFIG)
        out2 = run_experiment(cfg2, out_dir=str(tmp_path / "b"), master_seed=2)
        assert open(out1["sweep"]).read() != open(out2["sweep"]).read()


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
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "beta_1,beta_2,beta_3,theta"
        assert len(lines) > 2

        rc = main([
            "simulate", "--graph", str(graph_path), "--beta", "0.3", "--alpha", "0.2",
            "--tau", "5", "--master-seed", "4",
        ])
        assert rc == 0
        assert "density network" in capsys.readouterr().out

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

    def test_run_subcommand(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(BASE_CONFIG)
        rc = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "frontier.csv").exists()
        assert (tmp_path / "out" / "manifest").exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(BASE_CONFIG + "\nbogus.key = 1\n")
        rc = main(["run", "--config", str(cfg_path)])
        assert rc == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigError"
        assert "bogus.key" in record["message"]

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
