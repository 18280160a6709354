import numpy as np
import pytest

from interepi import (
    Coupling,
    CrossLayerColorMismatch,
    DuplicateEdge,
    ErLayerSpec,
    NoEdgesInScope,
    NotTwoLayers,
    SelfLoop,
    UnknownNode,
    build_graph,
    build_interdependent,
    child_rng,
    classify_coupling,
    compute_moments,
    gen_er_layer,
    giant_component,
    graphs_equal,
    kappa,
)
from oracles import (
    brute_force_component_labels,
    chain_plus_layer2,
    single_layer_graph,
    two_layer_graph,
)


class TestBuildGraph:
    def test_minimal_two_layer(self):
        g = build_graph(
            [3, 3],
            [((0, 0), (0, 1), 0), ((1, 0), (1, 1), 1), ((0, 0), (1, 0), 2)],
        )
        assert g.num_colors == 3
        assert g.num_edges == 3
        assert g.layer_sizes == (3, 3)

    def test_color_count_three_layers(self):
        g = build_graph([2, 2, 2], [((0, 0), (1, 0), 3)])
        assert g.num_colors == 3 + 3  # L + L(L-1)/2

    def test_intra_edge_with_inter_color_rejected(self):
        with pytest.raises(CrossLayerColorMismatch):
            build_graph([3, 3], [((0, 0), (0, 1), 2)])

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoop):
            build_graph([3], [((0, 0), (0, 0), 0)])

    def test_duplicate_rejected_regardless_of_orientation(self):
        with pytest.raises(DuplicateEdge):
            build_graph([3], [((0, 0), (0, 1), 0), ((0, 1), (0, 0), 0)])

    def test_unknown_node(self):
        with pytest.raises(UnknownNode):
            build_graph([3], [((0, 0), (0, 3), 0)])
        with pytest.raises(UnknownNode):
            build_graph([3], [((0, 0), (1, 0), 0)])

    def test_adjacency_grouped_by_color(self):
        g = two_layer_graph(3, 3, [(0, 1), (0, 2)], [], [(0, 0), (0, 1)])
        indptr, adj, adj_color = g.adjacency()
        cols = adj_color[indptr[0]:indptr[1]]
        assert list(cols) == sorted(cols)


class TestBuildGraphErrorOrder:
    """The first bad edge in input order decides the error; within one edge
    the checks run UnknownNode, SelfLoop, CrossLayerColorMismatch,
    DuplicateEdge; the message names that edge."""

    def test_earlier_duplicate_beats_later_unknown_node(self):
        edges = [
            ((0, 0), (0, 1), 0),
            ((0, 1), (0, 0), 0),  # duplicate of the first, reversed
            ((1, 0), (1, 1), 1),
            ((0, 2), (1, 2), 2),
            ((0, 9), (0, 1), 0),  # unknown node
        ]
        with pytest.raises(DuplicateEdge) as exc:
            build_graph([3, 3], edges)
        assert str(exc.value) == "duplicate edge (0,1)-(0,0)"

    def test_earlier_unknown_node_beats_later_duplicate(self):
        edges = [
            ((0, 0), (0, 1), 0),
            ((0, 9), (0, 1), 0),
            ((0, 1), (0, 0), 0),
        ]
        with pytest.raises(UnknownNode) as exc:
            build_graph([3, 3], edges)
        assert str(exc.value) == "node (0, 9) outside layer of size 3"

    def test_earlier_self_loop_beats_later_color_mismatch(self):
        edges = [((1, 2), (1, 2), 1), ((0, 0), (0, 1), 2)]
        with pytest.raises(SelfLoop) as exc:
            build_graph([3, 3], edges)
        assert str(exc.value) == "self-loop at (1, 2)"

    @pytest.mark.parametrize(
        "edge,error,message",
        [
            # unknown node beats self-loop, color and duplicate
            (((0, 0), (5, 0), 0), UnknownNode, "layer 5 not declared"),
            (((0, 7), (0, 7), 2), UnknownNode, "node (0, 7) outside layer of size 3"),
            # u is checked before v, a layer before its index
            (((4, 0), (0, 9), 0), UnknownNode, "layer 4 not declared"),
            (((0, 9), (4, 0), 0), UnknownNode, "node (0, 9) outside layer of size 3"),
            (((0, 1), (1, -1), 2), UnknownNode, "node (1, -1) outside layer of size 3"),
            # self-loop beats color and duplicate
            (((0, 1), (0, 1), 2), SelfLoop, "self-loop at (0, 1)"),
            # color beats duplicate
            (((0, 1), (0, 0), 2), CrossLayerColorMismatch,
             "edge (0,1)-(0,0) carries color 2, layer pair requires 0"),
            (((0, 1), (0, 0), 0), DuplicateEdge, "duplicate edge (0,1)-(0,0)"),
        ],
    )
    def test_check_order_within_one_edge(self, edge, error, message):
        with pytest.raises(error) as exc:
            build_graph([3, 3], [((0, 0), (0, 1), 0), ((1, 0), (1, 1), 1), edge])
        assert str(exc.value) == message

    def test_inter_layer_color_message(self):
        with pytest.raises(CrossLayerColorMismatch) as exc:
            build_graph([2, 2, 2], [((0, 0), (1, 0), 3), ((2, 1), (0, 1), 3)])
        assert str(exc.value) == "edge (2,1)-(0,1) carries color 3, layer pair requires 4"

    def test_canonical_order_and_types(self):
        g = build_graph(
            [3, 2], [((1, 1), (0, 2), 2), ((0, 2), (0, 0), 0), ((1, 0), (1, 1), 1)]
        )
        assert g.edges_u.tolist() == [0, 2, 3]
        assert g.edges_v.tolist() == [2, 4, 4]
        assert g.edge_colors.tolist() == [0, 2, 1]
        assert g.edge_list() == [((0, 0), (0, 2), 0), ((0, 2), (1, 1), 2), ((1, 0), (1, 1), 1)]
        assert all(type(x) is int for (a, b), (c, d), e in g.edge_list() for x in (a, b, c, d, e))


class TestMoments:
    def test_degree_sequence_example(self):
        # layer-1 intra degrees {1,3,2,3,2,1}: restricted mean 2.0, and the
        # global view appends six zeros for the other layer's nodes
        g = chain_plus_layer2()
        deg0 = g.color_degrees()[0]
        assert sorted(deg0[:6].tolist()) == [1, 1, 2, 2, 3, 3]
        assert deg0[6:].tolist() == [0] * 6
        m = compute_moments(g)
        assert m.per_color[0].mean_restricted == pytest.approx(2.0)
        assert m.per_color[0].mean_global == pytest.approx(1.0)

    def test_single_edge_layer_of_two(self):
        g = single_layer_graph(2, [(0, 1)])
        cm = compute_moments(g).per_color[0]
        assert cm.mean_restricted == pytest.approx(1.0)
        assert cm.second_restricted == pytest.approx(1.0)

    def test_er_layer_sample_mean(self):
        pairs = gen_er_layer(2000, 6.0, child_rng(0, 1))
        g = single_layer_graph(2000, pairs.tolist())
        cm = compute_moments(g).per_color[0]
        assert cm.mean_restricted == pytest.approx(6.0, rel=0.05)

    def test_global_restricted_relation(self):
        g = chain_plus_layer2()
        m = compute_moments(g)
        for cm in m.per_color:
            expected = cm.population_restricted / m.population_global * cm.mean_restricted
            assert cm.mean_global == pytest.approx(expected, abs=1e-12)

    def test_inter_color_population(self):
        g = chain_plus_layer2()
        m = compute_moments(g)
        assert m.per_color[2].population_restricted == 12

    def test_empty_color_zero_moments(self):
        g = two_layer_graph(2, 2, [(0, 1)], [], [])
        m = compute_moments(g)
        assert m.per_color[1].mean_restricted == 0.0
        assert m.per_color[2].second_restricted == 0.0


class TestKappa:
    def test_regular_graph(self):
        # K5 is 4-regular: every edge endpoint has degree 4
        pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        g = single_layer_graph(5, pairs)
        assert kappa(g) == pytest.approx(4.0)

    def test_star(self):
        # oracle: enumerate the 6 edge endpoints of a 3-leaf star, degrees
        # (3,3,3,1,1,1): mean endpoint degree = 12/6 = 2
        g = single_layer_graph(4, [(0, 1), (0, 2), (0, 3)])
        assert kappa(g) == pytest.approx(2.0)

    def test_er_poisson_identity(self):
        # Poisson degrees: kappa = mean + 1
        pairs = gen_er_layer(4000, 6.0, child_rng(3, 0))
        g = single_layer_graph(4000, pairs.tolist())
        assert kappa(g) == pytest.approx(7.0, rel=0.05)

    def test_layer_scope(self):
        g = two_layer_graph(4, 4, [(0, 1), (0, 2), (0, 3)], [(0, 1)], [(0, 0)])
        assert kappa(g, 0) == pytest.approx(2.0)
        assert kappa(g, 1) == pytest.approx(1.0)

    def test_no_edges_in_scope(self):
        g = two_layer_graph(2, 2, [(0, 1)], [], [])
        with pytest.raises(NoEdgesInScope):
            kappa(g, 1)

    def test_kappa_at_least_mean_degree(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            from oracles import random_layered_graph

            g = random_layered_graph(rng)
            if g.num_edges == 0:
                continue
            mean_deg = 2 * g.num_edges / g.n
            assert kappa(g) >= mean_deg - 1e-12


class TestGiantComponent:
    def test_path(self):
        g = single_layer_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        res = giant_component(g)
        assert res.largest_size == 5
        assert len(res.sizes) == 1

    def test_empty_mask(self):
        g = single_layer_graph(5, [(0, 1), (1, 2)])
        res = giant_component(g, np.zeros(2, dtype=bool))
        assert res.largest_size == 1
        assert len(res.sizes) == 5

    def test_against_brute_force(self):
        rng = np.random.default_rng(11)
        n = 50
        pairs = set()
        while len(pairs) < 60:
            a, b = rng.integers(0, n, size=2)
            if a != b:
                pairs.add((min(a, b), max(a, b)))
        pairs = sorted(pairs)
        g = single_layer_graph(n, pairs)
        res = giant_component(g)
        oracle = brute_force_component_labels(n, pairs)
        # same partition: component ids must biject
        mapping = {}
        for mine, theirs in zip(res.component_id.tolist(), oracle.tolist()):
            assert mapping.setdefault(mine, theirs) == theirs
        assert len(set(mapping.values())) == len(mapping)
        sizes = np.bincount(oracle)
        assert res.largest_size == sizes.max()

    def test_layer_counts_sum_to_component_size(self):
        g = chain_plus_layer2()
        res = giant_component(g)
        for comp in range(len(res.sizes)):
            total = sum(
                int((res.component_id[g.layer_slice(l)] == comp).sum())
                for l in range(g.num_layers)
            )
            assert total == res.sizes[comp]


class TestCoupling:
    def _er_pair(self, inter_mean, seed=42):
        layers = [ErLayerSpec(2000, 1.5), ErLayerSpec(2000, 6.0)]
        return build_interdependent(layers, {(0, 1): inter_mean}, seed)

    def test_strongly_coupled(self):
        assert classify_coupling(self._er_pair(1.5)) is Coupling.STRONG

    def test_weakly_coupled(self):
        assert classify_coupling(self._er_pair(0.1)) is Coupling.WEAK

    def test_no_inter_edges_is_other(self):
        g = two_layer_graph(3, 3, [(0, 1)], [(0, 1)], [])
        assert classify_coupling(g) is Coupling.OTHER

    def test_requires_two_layers(self):
        g = single_layer_graph(3, [(0, 1)])
        with pytest.raises(NotTwoLayers):
            classify_coupling(g)


def test_graphs_equal():
    g1 = chain_plus_layer2()
    g2 = chain_plus_layer2()
    assert graphs_equal(g1, g2)
    g3 = two_layer_graph(6, 6, [(0, 1)], [], [])
    assert not graphs_equal(g1, g3)
