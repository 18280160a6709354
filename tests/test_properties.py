"""Randomized invariant checks (hypothesis)."""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from interepi import (
    ColorTable,
    ErLayerSpec,
    ExperimentConfig,
    PowerLawSpec,
    SeedPolicy,
    SirConfig,
    Transmissibilities,
    build_graph,
    colored_cross_moments,
    giant_component,
    graphs_equal,
    jacobian_closed_form,
    kappa,
    load_graph,
    model_moments,
    perron_roots,
    run_sir,
    spectral_radius,
    structural_gcc_sizes,
    transmissibility,
    write_graph,
)
from interepi.errors import GraphValidationError, NoEdgesInScope, ParseError
from interepi.graph import LayeredGraph, canonical_ends
import interepi.io as io_module
from interepi.io import _format_columns
from interepi.sir import _final_counts, _Realizations
from interepi.threshold import (
    ENTRY_BOUND,
    _epidemic,
    _frontier_search,
    _grid_values,
    _tie_groups,
    independent_colors,
)
from oracles import (
    brute_force_component_labels,
    color_table,
    dominates,
    entry_colors,
    epidemic_indicator,
    er_color,
    exhaustive_frontier,
    first_passage_steps,
    per_color_table,
    powerlaw_color,
    random_layered_graph,
    refined_frontier,
    sequential_parse_graph,
    sequential_validate,
    stacked_epidemic,
)


@st.composite
def layered_graphs(draw, max_nodes=16):
    num_layers = draw(st.integers(1, 3))
    sizes = draw(
        st.lists(st.integers(1, max_nodes // num_layers), min_size=num_layers, max_size=num_layers)
    )
    n = sum(sizes)
    all_pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    chosen = draw(st.lists(st.sampled_from(all_pairs), unique=True, max_size=min(40, len(all_pairs)))) if all_pairs else []
    return _graph_of_pairs(sizes, chosen), chosen


def _graph_of_pairs(sizes, pairs):
    """The graph whose edges join the global node ids of each pair."""
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    table = ColorTable(len(sizes))
    triples = []
    for a, b in pairs:
        lu = int(np.searchsorted(offsets, a, side="right") - 1)
        lv = int(np.searchsorted(offsets, b, side="right") - 1)
        triples.append(
            ((lu, a - int(offsets[lu])), (lv, b - int(offsets[lv])), table.color_of(lu, lv))
        )
    return build_graph(sizes, triples)


@st.composite
def wide_layered_graphs(draw):
    """A graph of 1-12 layers of up to 1200 nodes each, so a layer field of
    one or two digits, whose edges favor the node indices at which a field
    gains a digit, and its global node pairs; no edges at all is one draw."""
    sizes = draw(st.lists(st.integers(1, 1200), min_size=1, max_size=12))
    offsets = np.cumsum([0] + sizes).tolist()
    node = st.tuples(st.integers(0, len(sizes) - 1),
                     st.one_of(st.sampled_from([0, 9, 10, 99, 100, 999, 1000]),
                               st.integers(0, 1199)))
    ends = {tuple(sorted(offsets[layer] + index % sizes[layer] for layer, index in pair))
            for pair in draw(st.lists(st.tuples(node, node), max_size=60))}
    pairs = sorted(e for e in ends if e[0] != e[1])
    return _graph_of_pairs(sizes, pairs), pairs


@settings(max_examples=100, deadline=None)
@given(st.one_of(layered_graphs(), wide_layered_graphs()))
def test_edge_views_are_the_drawn_edges(data):
    g, pairs = data
    indptr, adj, adj_color = g.adjacency()
    views = {"edges_u": g.edges_u, "edges_v": g.edges_v, "edge_colors": g.edge_colors,
             "adj_color": adj_color}
    for name, view in views.items():
        assert view.dtype == np.int32, name
        assert not view.flags.writeable, name
    want = sorted(pairs)
    assert list(zip(g.edges_u.tolist(), g.edges_v.tolist())) == want
    layer = g.node_layer.tolist()
    assert g.edge_colors.tolist() == [g.colors.color_of(layer[a], layer[b]) for a, b in want]
    assert adj_color.tolist() == entry_colors(g)
    assert g.num_edges == len(pairs)


@settings(max_examples=100, deadline=None)
@given(st.one_of(layered_graphs(), wide_layered_graphs()), st.data())
def test_graphs_equal_is_edge_set_equality(data, draws):
    g, pairs = data
    if draws.draw(st.booleans()):
        other = draws.draw(st.permutations(pairs))
    else:
        other = draws.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    grow = draws.draw(st.booleans())  # one more node in the last layer
    sizes = [*g.layer_sizes[:-1], g.layer_sizes[-1] + grow]
    h = _graph_of_pairs(sizes, other)
    assert graphs_equal(g, h) == (not grow and set(pairs) == set(other))
    assert graphs_equal(h, g) == graphs_equal(g, h)


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
@given(layered_graphs(), st.booleans())
def test_structural_gcc_sizes_match_brute_force(data, strip_layer_0):
    g, pairs = data
    if strip_layer_0:
        # leave layer 0 without an intra-layer edge
        rows = g.local_edges()[g.edge_colors != 0]
        g = LayeredGraph(g.layer_sizes, canonical_ends(g.layer_sizes, rows))
        pairs = [(a, b) for a, b in pairs if not g.node_layer[a] == g.node_layer[b] == 0]
    whole, per_layer = structural_gcc_sizes(g)
    assert whole == np.bincount(brute_force_component_labels(g.n, pairs)).max()
    for layer in range(g.num_layers):
        intra = [(a, b) for a, b in pairs if g.node_layer[a] == g.node_layer[b] == layer]
        labels = brute_force_component_labels(g.n, intra)[g.layer_slice(layer)]
        assert per_layer[layer] == (np.bincount(labels).max() if intra else 0)


@settings(max_examples=100, deadline=None)
@given(st.one_of(layered_graphs(), wide_layered_graphs()), st.sampled_from([1, 3, 4096]))
@example((_graph_of_pairs([5], []), []), 4096)
@example((_graph_of_pairs([3] * 11, [(0, 32), (28, 32)]), [(0, 32), (28, 32)]), 1)
def test_graph_file_round_trip(tmp_path_factory, data, chunk):
    g, pairs = data
    path = tmp_path_factory.mktemp("roundtrip") / "g.edges"
    # formatted a chunk at a time, each chunk with its own field widths
    with mock.patch.object(io_module, "_WRITE_ROWS", chunk):
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


# the values at which a decimal field gains a digit, up to int64
_DIGIT_STEPS = sorted({10**k + d for k in range(19) for d in (-1, 0)} - {10**18})


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.one_of(st.sampled_from(_DIGIT_STEPS), st.integers(0, 2**63 - 1)),
                         min_size=4, max_size=4), max_size=40))
@example([])
@example([[0, 0, 0, 0]])
@example([[9, 10, 99, 100], [12345, 999999, 0, 1]])
def test_format_columns_is_percent_d(rows):
    rows = np.array(rows, dtype=np.int64).reshape(-1, 4)
    assert _format_columns(rows.T) == "%d %d %d %d\n" * len(rows) % tuple(rows.ravel().tolist())


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


_FIELD = st.integers(-1, 4).map(str) | st.sampled_from(
    ["+1", "01", "1_0", "-0", "x", "-", "2.0", "1.0",
     "9223372036854775808", "-99999999999999999999"]  # past int64
)
_EDGE = st.lists(st.integers(0, 3).map(str), min_size=4, max_size=4)
_LINE = (
    _EDGE.map(" ".join)
    | _EDGE.map("\t".join)
    | _EDGE.map("\x0b".join)
    | _EDGE.map("\x1c".join)
    | _EDGE.map(lambda fields: " ".join(fields) + " # c")
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
# a comment line between edges, and one before the header
@example(["2", "2"], ["0 0 1 1", "# note", "1 0 1 1"], 0, "\n")
@example(["2", "2"], ["# note", "0 0 1 1"], 1, "\n")
def test_load_graph_matches_line_by_line_parse(tmp_path_factory, sizes, lines, at, newline):
    lines.insert(min(at, len(lines)), " ".join(["#layers", *sizes]))
    path = tmp_path_factory.mktemp("parse") / "g.edges"
    path.write_bytes(newline.join(lines).encode("ascii"))
    text = path.read_text(encoding="ascii")  # with the newline translation load_graph sees

    def reference():
        layer_sizes, triples = sequential_parse_graph(text)
        # load_graph clamps values past int64, which only error messages show
        clamp = lambda v: min(max(v, -(2**63)), 2**63 - 1)
        triples = [((a, clamp(i)), (b, clamp(j)), c) for (a, i), (b, j), c in triples]
        try:
            return sequential_validate(layer_sizes, triples)
        except GraphValidationError as exc:
            # load_graph names the line of the first edge that fails
            edge_lines = [no for no, raw in enumerate(text.split("\n"), start=1)
                          if raw.strip() and not raw.strip().startswith("#")]
            for row in range(len(triples)):
                try:
                    sequential_validate(layer_sizes, triples[: row + 1])
                except GraphValidationError:
                    raise type(exc)(f"line {edge_lines[row]}: {exc}") from None

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
    table = colored_cross_moments(g)
    ends = table.mean.T @ np.array(g.layer_sizes)
    assert np.all(np.abs(ends - 2 * g.edge_count_by_color()) < 1e-9)
    # Jensen: E[x^2] = E[x (x - 1)] + E[x] >= E[x]^2 on every layer
    for h in range(g.num_layers):
        squares = np.diagonal(table.second[h]) + table.mean[h]
        assert np.all(squares >= table.mean[h] ** 2 - 1e-12)
    try:
        k = kappa(g)
    except NoEdgesInScope:
        return
    assert k >= 2 * g.num_edges / g.n - 1e-12


@settings(max_examples=100, deadline=None)
@given(layered_graphs(max_nodes=45))
@example((_graph_of_pairs([3, 7, 5], [(0, 1), (0, 3), (4, 9)]), None))
@example((_graph_of_pairs([4, 9], []), None))
def test_independent_colors_match_the_per_color_route(data):
    # the table measured by layer and projected agrees with the one built
    # from each color's moments over its own nodes; the examples leave
    # layer 2 with colors 2, 4 and 5 edgeless, and every color
    g, _ = data
    table = independent_colors(colored_cross_moments(g), g.layer_sizes)
    want = per_color_table(g)
    np.testing.assert_allclose(table.mean, want.mean, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(table.second, want.second, rtol=1e-14, atol=0.0)


@st.composite
def model_configs(draw):
    # 1-3 ER or power-law layers of unequal sizes; each layer pair keyed in
    # either order with a mean, keyed with mean 0, or missing
    sizes = draw(st.lists(st.integers(1, 10**6), min_size=1, max_size=3, unique=True))
    layers = [
        ErLayerSpec(n, draw(st.floats(0.0, 20.0))) if draw(st.booleans())
        else PowerLawSpec(gamma=draw(st.sampled_from([2.0, 3.0]) | st.floats(1.1, 4.0)),
                          y_min=draw(st.integers(1, 3)), n=n)
        for n in sizes
    ]
    colors, inter = ColorTable(len(sizes)), {}
    for i, j in map(colors.members, range(len(sizes), colors.num_colors)):
        mean = draw(st.none() | st.just(0.0) | st.floats(0.0, 20.0))
        if mean is not None:
            inter[(j, i) if draw(st.booleans()) else (i, j)] = mean
    return ExperimentConfig(source="generate", layers=layers, inter_means=inter)


@settings(max_examples=200, deadline=None)
@given(model_configs())
def test_model_table_is_the_per_color_oracle_bit_for_bit(cfg):
    # each color's (mean, second, pop) over its own layers, spread by the
    # oracle: the table and every bit of it
    sizes = tuple(spec.n for spec in cfg.layers)
    colors = ColorTable(len(sizes))
    means = {(min(key), max(key)): mean for key, mean in cfg.inter_means.items()}
    want = color_table(
        [er_color(spec.mean_degree, spec.n) if isinstance(spec, ErLayerSpec)
         else powerlaw_color(spec, spec.n) for spec in cfg.layers]
        + [er_color(means.get(pair, 0.0), sizes[pair[0]] + sizes[pair[1]])
           for pair in map(colors.members, range(len(sizes), colors.num_colors))],
        sizes)
    table, got_sizes = model_moments(cfg)
    assert got_sizes == sizes
    assert np.array_equal(table.mean, want.mean)
    assert np.array_equal(table.second, want.second)


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
    def color(pop):
        weights = np.array(draw(st.lists(st.floats(0.01, 1), min_size=9, max_size=9)))
        ks = np.arange(9, dtype=float)
        p = weights / weights.sum()
        mean = float((ks * p).sum())
        second = float((ks**2 * p).sum())
        return mean, second, pop

    n1 = draw(st.integers(50, 500))
    n2 = draw(st.integers(50, 500))
    m = color_table([color(n1), color(n2), color(n1 + n2)], (n1, n2))
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
@given(st.floats(0.1, 8.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_thinning_identities(mean, r1, r2):
    sizes = (100, 100)
    m = color_table([er_color(mean, 100), er_color(mean, 100), er_color(mean, 200)], sizes)
    base = jacobian_closed_form(m, sizes, Transmissibilities((1.0,) * 3))
    # Poisson: a layer-0 node's excess degree of either of its colors is the mean
    assert np.allclose(base[0], [mean, 0.0, 0.0, mean], rtol=1e-12)
    zero = jacobian_closed_form(m, sizes, Transmissibilities((0.0,) * 3))
    assert np.all(zero == 0.0)
    # composed thinning multiplies: J(r1 r2) = J(r1) r2 = B r1 r2
    once = jacobian_closed_form(m, sizes, Transmissibilities((r1,) * 3))
    direct = jacobian_closed_form(m, sizes, Transmissibilities((r1 * r2,) * 3))
    assert np.allclose(once * r2, direct, rtol=1e-12, atol=1e-12)
    assert np.allclose(base * r1 * r2, direct, rtol=1e-12, atol=1e-12)


# uneven grid steps (1 / step is no integer, so the grid ends on a shorter step)
_UNEVEN_STEPS = (0.07, 0.09, 0.11, 0.13, 0.17, 0.23, 0.3, 0.45)


@st.composite
def frontier_searches(draw):
    """A non-negative base B over the types of C = 2-4 colors, the last color
    on one or two type columns (an inter color's two arrival layers), tau,
    tie groups over 1 to C-1 layers, tied or not, an uneven grid step whose
    full grid has at most 3000 points, and refine_tol None or 1e-3."""
    c = draw(st.integers(2, 4))
    type_color = list(range(c)) + [c - 1] * draw(st.integers(0, 1))
    t = len(type_color)
    entries = st.lists(st.one_of(st.just(0.0), st.floats(0.0, 8.0)), min_size=t * t,
                       max_size=t * t)
    base = np.array(draw(entries)).reshape(t, t)
    groups = _tie_groups(c, draw(st.integers(1, c - 1)), draw(st.booleans()))
    steps = [s for s in _UNEVEN_STEPS if len(_grid_values(s)) ** len(groups) <= 3000]
    return (base, type_color, draw(st.integers(1, 9)), groups, draw(st.sampled_from(steps)),
            draw(st.sampled_from([None, 1e-3])))


@settings(max_examples=100, deadline=None)
@given(frontier_searches())
def test_frontier_search_matches_exhaustive_scan(search):
    base, type_color, tau, groups, step, refine_tol = search
    c = type_color[-1] + 1

    def full(reduced):
        rates = [0.0] * c
        for colors, rate in zip(groups, reduced):
            for color in colors:
                rates[color] = rate
        return tuple(rates)

    def jacobian(rates):
        return base * np.array([transmissibility(b, tau) for b in rates])[type_color]

    def epidemic(reduced):
        return bool(_epidemic(jacobian(full(reduced))[None])[0])

    vals = _grid_values(step)
    front = _frontier_search(base, type_color, tau, step, groups, refine_tol)
    grid = {full(r) for r in exhaustive_frontier(epidemic, len(groups), step)}
    assert front.thetas == tuple(spectral_radius(jacobian(p)) for p in front.points)
    if refine_tol is None:
        assert set(front.points) == grid
        return
    # refinement moves each crossing down inside its grid step and may merge
    # crossings within refine_tol; rounded up to the grid, each is a grid point
    assert bool(front) == bool(grid)
    searched = list(groups[-1])
    for point in front.points:
        last = point[searched[0]]
        up = int(np.searchsorted(vals, last))
        assert up == 0 or vals[up - 1] < last
        assert full([*[point[g[0]] for g in groups[:-1]], vals[up]]) in grid
        assert all(point[k] == last for k in searched)


@settings(max_examples=100, deadline=None)
@given(frontier_searches(), st.sampled_from([1e-3, 1e-12]))
@example((np.array([[2.0, 7.5], [5.2, 0.1]]), [0, 1], 7, ((0,), (1,)), 0.09, None), 1e-3)
def test_refinement_matches_the_bisection_oracle(search, refine_tol):
    # bisected on each line's eliminated pivots, the refined rates and thetas
    # keep the bits of a bisection on full Jacobians; in the example the two
    # grid points' refined crossings lie within refine_tol and merge
    base, type_color, tau, groups, step, _ = search
    front = _frontier_search(base, type_color, tau, step, groups, refine_tol)
    rates, thetas = refined_frontier(base, type_color, tau, step, groups, refine_tol)
    assert front.rates.shape == rates.shape and front.rates.tobytes() == rates.tobytes()
    assert front.theta.shape == thetas.shape and front.theta.tobytes() == thetas.tobytes()


@st.composite
def nonnegative_matrices(draw):
    """A C x C matrix, C = 1-9, with entries in [0, 1e3], many of them zero."""
    c = draw(st.integers(1, 9))
    entries = st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e3)), min_size=c * c,
                       max_size=c * c)
    return np.array(draw(entries)).reshape(c, c)


@settings(max_examples=200, deadline=None)
@given(nonnegative_matrices(), st.floats(0.5, 2.0), st.integers(1, 4), st.data())
def test_pivot_test_is_the_perron_root_test(jac, scale, ulps, data):
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        epidemic = bool(_epidemic(jac[None])[0])
    theta = spectral_radius(jac)
    if abs(theta - 1.0) > 1e-9:
        assert epidemic == (theta >= 1.0)
    if theta < 1e-3:  # scaling to theta = 1 would leave the entries' range
        return
    # scaled near theta = 1 the test still agrees with the root off the tie
    stack = np.stack([jac / theta, jac / theta * scale])
    roots = perron_roots(stack)
    decided = _epidemic(stack)
    away = np.abs(roots - 1.0) > 1e-9
    assert (decided[away] == (roots[away] >= 1.0)).all()
    # and at the tie raising entries by a few ulps never ends an epidemic
    raised = stack[0].copy()
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=raised.size,
                                       max_size=raised.size))).reshape(raised.shape)
    for _ in range(ulps):
        raised[mask] = np.nextafter(raised[mask], np.inf)
    assert _epidemic(raised[None])[0] or not decided[0]


@st.composite
def pivot_stacks(draw):
    """An (N, C, C) stack, C = 1-6, of non-negative matrices: raw, scaled to
    theta = 1 with relative noise of a few 1e-16, or with a diagonal entry of
    J at or above 1 (a zero or negative pivot), with zero entries mixed in."""
    c, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entry = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 10.0))
    jacs = np.array(draw(st.lists(entry, min_size=n * c * c, max_size=n * c * c)))
    jacs = jacs.reshape(n, c, c)
    kind = draw(st.sampled_from(["raw", "tie", "dead"]))
    if kind == "tie":
        roots = perron_roots(jacs)
        noise = np.array(draw(st.lists(st.integers(-4, 4), min_size=n * c * c,
                                       max_size=n * c * c))).reshape(jacs.shape)
        with np.errstate(over="ignore"):
            jacs = jacs / np.where(roots > 0, roots, 1.0)[:, None, None] * (1.0 + 2.5e-16 * noise)
        # a root far below the largest entry (a subnormal diagonal under a large
        # off-diagonal entry) scales entries past what the pivot test accepts
        assume(jacs.max() <= ENTRY_BOUND)
    elif kind == "dead":
        k = draw(st.integers(0, c - 1))
        jacs[:, k, k] = draw(st.sampled_from([1.0, 1.5]))
    return jacs


# a tie stack whose two entries of 7.3e298 overflowed in their product, found
# before the pivot test bounded its entries
_OVERFLOWING_TIE = np.concatenate([
    [[[0.0, 7.26364165e298, 0.0], [0.0, 1.0, 0.0], [7.26364165e298, 0.0, 0.0]]],
    np.zeros((5, 3, 3)),
])


@settings(max_examples=300, deadline=None)
@given(pivot_stacks())
@example(_OVERFLOWING_TIE)
def test_epidemic_matches_the_stacked_reference(jacs):
    # the entry-by-entry elimination decides every matrix as the broadcast one
    # did, bit for bit, and a dead pivot never divides; a stack beyond the
    # bound is refused before any arithmetic
    if jacs.max() > ENTRY_BOUND:
        with pytest.raises(ValueError, match="at most"):
            _epidemic(jacs)
        return
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        decided = _epidemic(jacs)
    assert np.array_equal(decided, stacked_epidemic(jacs))


@st.composite
def sir_realizations(draw):
    """A random layered graph and a SirConfig on it: every color's rate 0, 1
    or in between, tau 1-6, an optional step cap, and each seed policy."""
    g = random_layered_graph(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    rate = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
    rates = tuple(draw(st.lists(rate, min_size=g.num_colors, max_size=g.num_colors)))
    kind = draw(st.sampled_from(["uniform", "per_layer", "explicit"]))
    if kind == "uniform":
        seeds = SeedPolicy.uniform(draw(st.integers(1, g.n)))
    elif kind == "per_layer":
        counts = [draw(st.integers(0, size)) for size in g.layer_sizes]
        assume(any(counts))
        seeds = SeedPolicy.in_layers(counts)
    else:
        nodes = draw(st.lists(st.integers(0, g.n - 1), min_size=1, unique=True))
        layers = g.node_layer[nodes]
        seeds = SeedPolicy.explicit(zip(layers, np.asarray(nodes) - g.offsets[layers]))
    cfg = SirConfig(rates=rates, tau=draw(st.integers(1, 6)), seeds=seeds,
                    max_steps=draw(st.one_of(st.none(), st.integers(0, 8))),
                    master_seed=draw(st.integers(0, 2**31)))
    return g, cfg, draw(st.integers(0, 50)), draw(st.integers(0, 50))


@settings(max_examples=300, deadline=None)
@given(sir_realizations())
def test_sampler_follows_the_stream_contract(case):
    # seeds, then one uniform per CSR entry, then first passage over the
    # transmitting entries: however the sampler assembles its graph, it must
    # infect the oracle's nodes at the oracle's steps
    g, cfg, realization, cell = case
    steps = first_passage_steps(g, cfg, realization, cell)
    nodes = np.array(sorted(steps), dtype=np.int64)
    times = np.array([steps[v] for v in nodes], dtype=np.int64)
    summary = run_sir(g, cfg, realization, cell)
    for layer, ever in enumerate(summary.ever_infected):
        in_layer = nodes[g.node_layer[nodes] == layer]
        assert ever.tolist() == (in_layer - g.offsets[layer]).tolist()
    last = min(int(times.max()) + cfg.tau, math.inf if cfg.max_steps is None else cfg.max_steps)
    assert summary.steps_run == last
    new = np.zeros((last + 1, g.num_layers), dtype=np.int64)
    np.add.at(new, (times, g.node_layer[nodes]), 1)
    assert np.array_equal(summary.per_step_ever, np.cumsum(new, axis=0))
    reached, t = _Realizations(g, cfg, timed=True).steps(realization, cell)
    assert reached.tolist() == nodes.tolist() and t.tolist() == times.tolist()
    counts = np.bincount(g.node_layer[nodes], minlength=g.num_layers)
    cell_realizations = _Realizations(g, cfg, timed=cfg.max_steps is not None)
    assert _final_counts(cell_realizations, realization, cell) == tuple(counts.tolist())
    uncapped = replace(cfg, max_steps=None)
    counts = np.bincount(g.node_layer[list(first_passage_steps(g, uncapped, realization, cell))],
                         minlength=g.num_layers)
    assert (_final_counts(_Realizations(g, uncapped, timed=False), realization, cell)
            == tuple(counts.tolist()))
