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
    colored_cross_moments,
    gen_er_layer,
    giant_component,
    graphs_equal,
    kappa,
    load_graph,
    write_graph,
)
from interepi.graph import canonical_ends, first_occurrences
from oracles import (
    brute_force_component_labels,
    chain_plus_layer2,
    random_layered_graph,
    sequential_adjacency,
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


class TestAdjacencyOrder:
    """Each node's entries come in (color, position in [u -> v..., v -> u...])
    order, exactly as the entry-by-entry oracle lists them."""

    @staticmethod
    def _check(g):
        got = g.adjacency()
        want = sequential_adjacency(g)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    def test_random_graphs(self):
        rng = np.random.default_rng(11)
        layer_counts = set()
        for _ in range(150):
            g = random_layered_graph(rng, max_nodes=30)
            layer_counts.add(g.num_layers)
            self._check(g)
        assert layer_counts == {1, 2, 3}

    @pytest.mark.parametrize("sizes", [[1], [4], [3, 2], [2, 1, 3]])
    def test_zero_edges(self, sizes):
        g = build_graph(sizes, [])
        self._check(g)
        assert g.adjacency()[0].tolist() == [0] * (sum(sizes) + 1)

    def test_isolated_nodes_and_ties(self):
        # node 3's color-0 entries come in list position order, 3 -> 5 from
        # the u -> v half before 3 -> 0 from the v -> u half; 1, 4 and 8 are isolated
        g = two_layer_graph(6, 4, [(0, 5), (0, 2), (3, 0), (3, 5)], [(1, 3)], [(3, 1), (0, 0)])
        self._check(g)
        indptr, adj, adj_color = g.adjacency()
        assert adj[indptr[3]:indptr[4]].tolist() == [5, 0, 7]
        assert adj_color[indptr[3]:indptr[4]].tolist() == [0, 0, 2]
        assert (g.degrees()[[1, 4, 8]] == 0).all()


@pytest.mark.parametrize("size,high", [(0, 1), (1, 1), (50, 3), (200, 50), (200, 10**12)])
def test_first_occurrences_match_unique(size, high):
    keys = np.random.default_rng(size + high).integers(-high, high, size=size)
    assert np.array_equal(first_occurrences(keys), np.unique(keys, return_index=True)[1])


class TestAdjacencyKeyBound:
    """The adjacency sort key (source * C + color) << (b + 1) | half << b |
    position must fit in uint64, that is n * C * 2**b <= 2**63; rows
    broadcast from one row hold no memory for their length."""

    @staticmethod
    def _rows(m):
        return np.broadcast_to(np.zeros(4, dtype=np.int32), (m, 4))

    def test_two_huge_layers(self):
        n = 2**30 - 1
        with pytest.raises(ValueError, match="overflow the sort key"):
            canonical_ends([n, n], self._rows(2**30 - 1))

    def test_many_layers(self):
        # 2**16 one-node layers have 2**15 * (2**16 + 1) colors, so n * C is
        # just above 2**47 and b = 16 bits, from 16 385 edges, overflows
        with pytest.raises(ValueError, match="overflow the sort key"):
            canonical_ends([1] * 2**16, self._rows(16_385))

    def test_index_range_checked_first(self):
        with pytest.raises(ValueError, match="int32 index range"):
            canonical_ends([2**31], self._rows(1))


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
        # layer-1 intra degrees {1,3,2,3,2,1}: mean 2.0 over the layer's six
        # nodes; the other layer's six zeros do not enter it
        g = chain_plus_layer2()
        deg0 = g.color_degrees()[0]
        assert sorted(deg0[:6].tolist()) == [1, 1, 2, 2, 3, 3]
        assert deg0[6:].tolist() == [0] * 6
        table = colored_cross_moments(g)
        assert table.mean[0, 0] == pytest.approx(2.0)
        # E[x^2] = 14/3, so the factorial moment E[x (x - 1)] is 14/3 - 2
        assert table.second[0, 0, 0] == pytest.approx(14 / 3 - 2.0)

    def test_single_edge_layer_of_two(self):
        g = single_layer_graph(2, [(0, 1)])
        table = colored_cross_moments(g)
        assert table.mean[0, 0] == pytest.approx(1.0)
        assert table.second[0, 0, 0] == 0.0  # E[x^2] = 1 = E[x]

    def test_er_layer_sample_mean(self):
        pairs = gen_er_layer(2000, 6.0, child_rng(0, 1))
        g = single_layer_graph(2000, pairs.tolist())
        assert colored_cross_moments(g).mean[0, 0] == pytest.approx(6.0, rel=0.05)

    def test_restricted_mean_counts_edge_ends(self):
        # each color-c edge puts two ends among the color's own layer(s)
        g = chain_plus_layer2()
        ends = colored_cross_moments(g).mean.T @ np.array(g.layer_sizes)
        assert ends == pytest.approx(2 * g.edge_count_by_color())

    def test_inter_color_population(self):
        # an inter edge puts one end in each of its layers of six nodes
        g = chain_plus_layer2()
        edges = g.edge_count_by_color()[2]
        assert colored_cross_moments(g).mean[:, 2] * 6 == pytest.approx([edges, edges])

    def test_empty_color_zero_moments(self):
        g = two_layer_graph(2, 2, [(0, 1)], [], [])
        table = colored_cross_moments(g)
        assert table.mean[1, 1] == 0.0
        assert np.all(table.second[:, 2, 2] == 0.0)


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


class TestInt32Indices:
    """Graph arrays are int32; keys built from two ids are int64. On two
    35 000-node layers lo * n + hi passes 2**31, so a key formed in 32 bits
    would wrap, and two edges whose keys differ by 2**32 would collide."""

    N = 35_000

    def _edges(self):
        n = 2 * self.N
        lo, hi = divmod(20_000 + 2**32, n)  # flat ids of an edge keyed 2**32 above (0, 20000)
        return [
            ((1, self.N - 2), (1, self.N - 1), 1),
            ((0, self.N - 1), (1, self.N - 1), 2),
            ((0, 0), (0, 20_000), 0),
            ((1, lo - self.N), (1, hi - self.N), 1),
            ((0, self.N - 2), (0, self.N - 1), 0),
        ]

    def test_arrays_are_int32(self):
        g = build_graph([self.N, self.N], self._edges())
        for arr in (g.edges_u, g.edges_v, g.edge_colors, g.offsets, g.node_layer,
                    g.local_edges(), *g.adjacency()):
            assert arr.dtype == np.int32

    def test_wide_keys_are_distinct_and_canonical(self):
        g = build_graph([self.N, self.N], self._edges())
        assert g.edges_u.tolist() == [0, 34_998, 34_999, 61_356, 69_998]
        assert g.edges_v.tolist() == [20_000, 34_999, 69_999, 67_296, 69_999]
        assert g.edge_colors.tolist() == [0, 0, 2, 1, 1]

    def test_duplicate_on_highest_ids(self):
        edges = self._edges() + [((1, self.N - 1), (1, self.N - 2), 1)]
        with pytest.raises(DuplicateEdge) as exc:
            build_graph([self.N, self.N], edges)
        assert str(exc.value) == "duplicate edge (1,34999)-(1,34998)"

    def test_color_degrees(self):
        g = build_graph([self.N, self.N], self._edges())
        want = np.zeros((3, 2 * self.N), dtype=np.int64)
        for (lu, iu), (lv, iv), c in self._edges():
            want[c, lu * self.N + iu] += 1
            want[c, lv * self.N + iv] += 1
        assert np.array_equal(g.color_degrees(), want)

    def test_giant_component(self):
        g = build_graph([self.N, self.N], self._edges())
        res = giant_component(g)
        assert res.largest_size == 4  # (0,34998) (0,34999) (1,34998) (1,34999)
        assert res.largest_size_by_layer == (2, 2)
        assert len(res.sizes) == 2 * self.N - 5  # a forest of five edges

    def test_file_round_trip(self, tmp_path):
        g = build_graph([self.N, self.N], self._edges())
        path = tmp_path / "g.edges"
        write_graph(g, path)
        assert path.read_text() == (
            "#layers 35000 35000\n0 0 0 20000\n0 34998 0 34999\n0 34999 1 34999\n"
            "1 26356 1 32296\n1 34998 1 34999\n"
        )
        assert graphs_equal(load_graph(path), g)

    @pytest.mark.parametrize("index", [2**31, 2**40])
    def test_file_index_beyond_int32_is_an_unknown_node(self, tmp_path, index):
        path = tmp_path / "g.edges"
        path.write_text(f"#layers 35000 35000\n0 0 0 1\n1 {index} 0 5\n")
        with pytest.raises(UnknownNode) as exc:
            load_graph(path)
        assert str(exc.value) == f"line 3: node (1, {index}) outside layer of size 35000"

    def test_node_count_beyond_int32_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="int32"):
            build_graph([2**31 - 1, 1], [])
        path = tmp_path / "g.edges"
        path.write_text("#layers 2147483648\n")
        with pytest.raises(ValueError, match="int32"):
            load_graph(path)
