"""Randomized invariant checks (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from interepi import (
    ColorTable,
    Transmissibilities,
    build_graph,
    compute_moments,
    dominates,
    epidemic_indicator,
    er_color_moments,
    giant_component,
    graphs_equal,
    kappa,
    load_graph,
    thin_moments,
    two_layer_moments,
    write_graph,
)
from interepi.errors import GraphValidationError, NoEdgesInScope, ParseError
from oracles import brute_force_component_labels, sequential_parse_graph, sequential_validate


@st.composite
def layered_graphs(draw, max_nodes=16):
    num_layers = draw(st.integers(1, 3))
    sizes = draw(
        st.lists(st.integers(1, max_nodes // num_layers), min_size=num_layers, max_size=num_layers)
    )
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    n = int(offsets[-1])
    table = ColorTable(num_layers)
    all_pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    chosen = draw(st.lists(st.sampled_from(all_pairs), unique=True, max_size=min(40, len(all_pairs)))) if all_pairs else []
    triples = []
    for a, b in chosen:
        lu = int(np.searchsorted(offsets, a, side="right") - 1)
        lv = int(np.searchsorted(offsets, b, side="right") - 1)
        triples.append(
            ((lu, a - int(offsets[lu])), (lv, b - int(offsets[lv])), table.color_of(lu, lv))
        )
    return build_graph(sizes, triples), chosen


@settings(max_examples=60, deadline=None)
@given(layered_graphs())
def test_components_match_brute_force(data):
    g, pairs = data
    res = giant_component(g)
    labels = brute_force_component_labels(g.n, pairs)
    mapping = {}
    for mine, theirs in zip(res.component_id.tolist(), labels.tolist()):
        assert mapping.setdefault(mine, theirs) == theirs
    assert len(set(mapping.values())) == len(mapping)
    assert res.largest_size == np.bincount(labels).max()


@settings(max_examples=60, deadline=None)
@given(layered_graphs())
def test_graph_file_round_trip(tmp_path_factory, data):
    g, pairs = data
    path = tmp_path_factory.mktemp("roundtrip") / "g.edges"
    write_graph(g, path)
    # reference text: one line per edge, written edge by edge
    offsets = [0] + np.cumsum(g.layer_sizes).tolist()
    lines = ["#layers " + " ".join(str(s) for s in g.layer_sizes)]
    for u, v in sorted(pairs):
        lu = max(l for l in range(g.num_layers) if offsets[l] <= u)
        lv = max(l for l in range(g.num_layers) if offsets[l] <= v)
        lines.append(f"{lu} {u - offsets[lu]} {lv} {v - offsets[lv]}")
    assert path.read_text() == "\n".join(lines) + "\n"
    assert graphs_equal(load_graph(path), g)


@st.composite
def faulty_edge_lists(draw):
    """Edge triples that are mostly valid, with unknown nodes, self-loops,
    wrong colors and duplicates mixed in."""
    num_layers = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(1, 4), min_size=num_layers, max_size=num_layers))
    table = ColorTable(num_layers)
    layer = st.integers(0, num_layers - 1) | st.integers(-1, num_layers)
    edges = []
    for _ in range(draw(st.integers(0, 8))):
        lu, lv = draw(layer), draw(layer)
        iu, iv = draw(st.integers(-1, 4)), draw(st.integers(-1, 4))
        clip = lambda l: min(max(l, 0), num_layers - 1)
        color = table.color_of(clip(lu), clip(lv))
        if draw(st.booleans()) and draw(st.booleans()):
            color = draw(st.integers(0, table.num_colors))
        edges.append(((lu, iu), (lv, iv), color))
    return sizes, edges


def _same_outcome(got, reference):
    """got() and reference() return the same (u, v, color) lists or raise the
    same error with the same message and line number."""
    try:
        want = reference()
    except (GraphValidationError, ParseError, ValueError) as exc:
        with pytest.raises(type(exc)) as caught:
            got()
        assert type(caught.value) is type(exc)
        assert str(caught.value) == str(exc)
        assert getattr(caught.value, "line_no", None) == getattr(exc, "line_no", None)
    else:
        g = got()
        assert (g.edges_u.tolist(), g.edges_v.tolist(), g.edge_colors.tolist()) == want


@settings(max_examples=300, deadline=None)
@given(faulty_edge_lists())
def test_build_graph_matches_edge_by_edge_validation(data):
    sizes, edges = data
    _same_outcome(lambda: build_graph(sizes, edges), lambda: sequential_validate(sizes, edges))


_FIELD = st.integers(-1, 4).map(str) | st.sampled_from(["+1", "01", "1_0", "-0", "x", "-", "2.0"])
_LINE = (
    st.lists(st.integers(0, 3).map(str), min_size=4, max_size=4).map(" ".join)
    | st.lists(st.integers(0, 3).map(str), min_size=4, max_size=4).map("\t".join)
    | st.lists(_FIELD, min_size=1, max_size=5).map(" ".join)
    | st.lists(st.sampled_from(["1", "2", "3", "0", "x"]), max_size=3).map(
        lambda sizes: " ".join(["#layers", *sizes]))
    | st.sampled_from(["", "   ", "# note", "  # x y", "#layers3", "#"])
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(1, 4).map(str), min_size=1, max_size=3),
    st.lists(_LINE, max_size=10),
    st.integers(0, 10),
    st.sampled_from(["\n", "\r\n"]),
)
def test_load_graph_matches_line_by_line_parse(tmp_path_factory, sizes, lines, at, newline):
    lines.insert(min(at, len(lines)), " ".join(["#layers", *sizes]))
    path = tmp_path_factory.mktemp("parse") / "g.edges"
    path.write_bytes(newline.join(lines).encode("ascii"))
    text = path.read_text(encoding="ascii")  # with the newline translation load_graph sees

    def reference():
        layer_sizes, triples = sequential_parse_graph(text)
        return sequential_validate(layer_sizes, triples)

    _same_outcome(lambda: load_graph(path), reference)


@settings(max_examples=60, deadline=None)
@given(layered_graphs())
def test_color_degrees_count_edge_ends(data):
    g, pairs = data
    deg = np.zeros((g.num_colors, g.n), dtype=np.int64)
    for u, v in pairs:
        c = g.colors.color_of(int(g.node_layer[u]), int(g.node_layer[v]))
        deg[c, u] += 1
        deg[c, v] += 1
    assert np.array_equal(g.color_degrees(), deg)


@settings(max_examples=60, deadline=None)
@given(layered_graphs())
def test_moment_relation_and_kappa_bound(data):
    g, _ = data
    m = compute_moments(g)
    for cm in m.per_color:
        expected = cm.population_restricted / m.population_global * cm.mean_restricted
        assert abs(cm.mean_global - expected) < 1e-12
        assert cm.second_restricted >= cm.mean_restricted**2 - 1e-12  # Jensen
    try:
        k = kappa(g)
    except NoEdgesInScope:
        return
    assert k >= 2 * g.num_edges / g.n - 1e-12


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(0, 1), min_size=1, max_size=5),
    st.lists(st.floats(0, 1), min_size=1, max_size=5),
)
def test_dominance_is_a_strict_partial_order(a, b):
    assert not dominates(a, a)  # irreflexive
    if len(a) == len(b):
        assert not (dominates(a, b) and dominates(b, a))  # asymmetric


@st.composite
def moment_pairs(draw):
    # physical moments from a random discrete degree distribution on 0..8
    def color(pop, total):
        weights = np.array(draw(st.lists(st.floats(0.01, 1), min_size=9, max_size=9)))
        ks = np.arange(9, dtype=float)
        p = weights / weights.sum()
        mean = float((ks * p).sum())
        second = float((ks**2 * p).sum())
        frac = pop / total
        from interepi.graph import ColorMoments

        return ColorMoments(mean, second, frac * mean, frac * second, pop)

    n1 = draw(st.integers(50, 500))
    n2 = draw(st.integers(50, 500))
    n = n1 + n2
    m = two_layer_moments(color(n1, n), color(n2, n), color(n, n))
    lo = tuple(draw(st.lists(st.floats(0, 1), min_size=3, max_size=3)))
    bump = tuple(draw(st.lists(st.floats(0, 1), min_size=3, max_size=3)))
    hi = tuple(min(1.0, a + d) for a, d in zip(lo, bump))
    return m, (n1, n2), lo, hi


@settings(max_examples=80, deadline=None)
@given(moment_pairs())
def test_theta_monotone_in_rates(data):
    m, sizes, lo, hi = data
    theta_lo, _ = epidemic_indicator(m, sizes, lo, 5)
    theta_hi, _ = epidemic_indicator(m, sizes, hi, 5)
    assert theta_lo <= theta_hi + 1e-9


@settings(max_examples=60, deadline=None)
@given(
    st.floats(0.1, 8.0),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.integers(1, 10),
)
def test_thinning_identities(mean, r1, r2, tau):
    m = two_layer_moments(
        er_color_moments(mean, 100, 200),
        er_color_moments(mean, 100, 200),
        er_color_moments(mean, 200, 200),
    )
    one = thin_moments(m, Transmissibilities((1.0,) * 3, tau))
    for before, after in zip(m.per_color, one.per_color):
        assert abs(after.mean_restricted - before.mean_restricted) < 1e-12
        assert abs(after.second_restricted - before.second_restricted) < 1e-12
    zero = thin_moments(m, Transmissibilities((0.0,) * 3, tau))
    assert all(cm.mean_restricted == 0 and cm.second_restricted == 0 for cm in zero.per_color)
    # composed thinning multiplies on the mean
    once = thin_moments(m, Transmissibilities((r1,) * 3, tau))
    twice = thin_moments(once, Transmissibilities((r2,) * 3, tau))
    direct = thin_moments(m, Transmissibilities((r1 * r2,) * 3, tau))
    for a, b in zip(twice.per_color, direct.per_color):
        assert abs(a.mean_restricted - b.mean_restricted) < 1e-9
