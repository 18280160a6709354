import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from interepi import (
    ColorTable,
    DomainError,
    EmptyColor,
    ErLayerSpec,
    KappaAtMostOne,
    LayeredGraph,
    LengthMismatch,
    NetworkState,
    NonConvergence,
    PowerLawSpec,
    Transmissibilities,
    build_interdependent,
    classify_state,
    colored_cross_moments,
    er_color_moments,
    jacobian_closed_form,
    kappa,
    multi_threshold,
    multi_threshold_empirical,
    perron_roots,
    powerlaw_color_moments,
    powerlaw_moments,
    single_layer_threshold,
    spectral_radius,
    transmissibility,
)
from interepi.graph import ColorMoments, MomentSet
import interepi.threshold as threshold_module
from interepi.threshold import (
    _epidemic,
    _frontier_search,
    _grid_values,
    _type_base,
    jacobian_from_cross_moments,
    moment_table,
)
from oracles import (
    cardano_radius_3x3,
    chain_plus_layer2,
    dominates,
    epidemic_indicator,
    exhaustive_frontier,
    two_layer_graph,
)


def er_set(m1, m2, m3, n1=5000, n2=5000):
    moments = (er_color_moments(m1, n1), er_color_moments(m2, n2), er_color_moments(m3, n1 + n2))
    return MomentSet(moments), (n1, n2)


class TestTransmissibility:
    def test_endpoints(self):
        assert transmissibility(0.0, 5) == 0.0
        assert transmissibility(1.0, 5) == 1.0

    def test_exact_value(self):
        # 1 - 0.8^5 = 1 - 0.32768 = 0.67232 exactly in decimal
        assert transmissibility(0.2, 5) == pytest.approx(0.67232, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            transmissibility(-0.1, 5)
        with pytest.raises(DomainError):
            transmissibility(1.1, 5)
        with pytest.raises(DomainError):
            transmissibility(0.5, 0)

    def test_monotone_in_beta(self):
        vals = [transmissibility(b, 5) for b in np.linspace(0, 1, 21)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


class TestSingleLayerThreshold:
    def test_kappa_two_saturates(self):
        for tau in (1, 5, 20):
            res = single_layer_threshold(2.0, tau)
            assert res.beta == 1.0
            assert res.saturated

    def test_kappa_seven(self):
        # 1 - (5/6)^(1/5) = 0.035807495997372799... (50-digit evaluation)
        res = single_layer_threshold(7.0, 5)
        assert not res.saturated
        assert res.beta == pytest.approx(0.0358074959973728, abs=1e-12)

    def test_limit_large_kappa(self):
        values = [single_layer_threshold(k, 5).beta for k in (10, 100, 1000, 10000)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-4

    def test_kappa_at_most_one(self):
        with pytest.raises(KappaAtMostOne):
            single_layer_threshold(1.0, 5)
        with pytest.raises(KappaAtMostOne):
            single_layer_threshold(0.5, 5)


class TestModelMoments:
    def test_er_ratio(self):
        # a Poisson degree has <y^2> - <y> = <y>^2, so its excess ratio is its mean
        for mean in (6.0, 0.0, 1.5):
            assert er_color_moments(mean, 100).ratio_restricted() == mean

    def test_degenerate_point_mass(self):
        # y_max == y_min: single-point distribution
        spec = PowerLawSpec(gamma=2.5, y_min=1, n=2)
        assert spec.y_max == 1
        mean, ratio = powerlaw_moments(spec)
        assert mean == 1.0
        assert ratio == 0.0

    @pytest.mark.parametrize("gamma", [2.9, 2.1])
    def test_against_quadrature(self, gamma):
        # oracle: adaptive quadrature of y^m c y^-gamma over [y_min, y_max]
        spec = PowerLawSpec(gamma=gamma, y_min=1, n=1500)
        c = spec.normalization
        mean_q, _ = quad(
            lambda y: y * c * y**-gamma, spec.y_min, spec.y_max,
            epsabs=1e-13, epsrel=1e-13,
        )
        second_q, _ = quad(
            lambda y: y * y * c * y**-gamma, spec.y_min, spec.y_max,
            epsabs=1e-13, epsrel=1e-13,
        )
        mean, ratio = powerlaw_moments(spec)
        assert mean == pytest.approx(mean_q, abs=1e-9)
        assert ratio == pytest.approx((second_q - mean_q) / mean_q, abs=1e-9)

    def test_singularity_gamma_three(self):
        # the second moment's exponent vanishes: its logarithmic limit
        spec = PowerLawSpec(gamma=3.0, y_min=1, n=100)
        mean, ratio = powerlaw_moments(spec)
        c = spec.normalization
        second_q, _ = quad(
            lambda y: y * y * c * y**-3.0, spec.y_min, spec.y_max,
            epsabs=1e-13, epsrel=1e-13,
        )
        mean_q, _ = quad(
            lambda y: y * c * y**-3.0, spec.y_min, spec.y_max,
            epsabs=1e-13, epsrel=1e-13,
        )
        assert mean == pytest.approx(mean_q, abs=1e-9)
        assert ratio == pytest.approx((second_q - mean_q) / mean_q, abs=1e-9)

    def test_singularity_gamma_two(self):
        spec = PowerLawSpec(gamma=2.0, y_min=1, n=100)
        mean, _ = powerlaw_moments(spec)
        assert mean == pytest.approx(math.log(spec.y_max), abs=1e-12)


def arrival_types(num_layers):
    """The builder's types (color, arrival layer), ordered by color, then layer."""
    colors = ColorTable(num_layers)
    return [(c, h) for c in range(colors.num_colors) for h in colors.members(c)]


def empirical_jacobian(g, t):
    return jacobian_from_cross_moments(colored_cross_moments(g), t)


class TestThinning:
    """J(R) = B diag(R), each type's column carrying its color's R. Keeping
    each color-c edge with probability R_c gives, over any layer's nodes,
    <x'_i> = R_i <x_i>, <x'_i x'_j> = R_i R_j <x_i x_j> (i != j) and
    <x'_i (x'_i - 1)> = R_i^2 <x_i (x_i - 1)>, so entry (i, h) -> (j, h'), a
    second moment over <x'_i>, keeps the R of its column's color only."""

    def test_identity_at_one(self):
        # at R = 1 entry (c, h) -> (c', h') is the unthinned ratio over layer
        # h's nodes when c' is the color from h to h', and 0 otherwise
        g = chain_plus_layer2()
        x = g.color_degrees().astype(float)
        jac = empirical_jacobian(g, Transmissibilities((1.0,) * 3))
        types = arrival_types(2)
        for row, (c, h) in enumerate(types):
            xh = x[:, g.layer_slice(h)]
            for col, (out, far) in enumerate(types):
                if g.colors.color_of(h, far) != out:
                    assert jac[row, col] == 0.0
                    continue
                second = (xh[c] * (xh[out] - (c == out))).sum()
                assert jac[row, col] == pytest.approx(second / xh[c].sum(), abs=1e-12)

    def test_annihilator_at_zero(self):
        m, sizes = er_set(1.5, 6.0, 1.5)
        t = Transmissibilities((0.0, 0.0, 0.0))
        assert np.all(jacobian_closed_form(m, sizes, t) == 0.0)
        assert np.all(empirical_jacobian(chain_plus_layer2(), t) == 0.0)

    def test_worked_example(self):
        # <y>=6, <y^2>=48 (ratio 7), R=0.5: <y'>=3, <y'^2>=0.25*42+3=13.5, so
        # the thinned ratio is (13.5-3)/3 = 3.5, and a cross moment 36 of
        # independent colors gives 0.5 * 36 / 6 = 3.0. Equal layers put 6 inter
        # ends on every node (f = 20 / (2 * 10) = 1). Types: (0, 0), (1, 1),
        # (2, 0), (2, 1); a layer-0 node sends color 0 to layer 0 and color 2 to
        # layer 1, a layer-1 node color 1 to layer 1 and color 2 to layer 0.
        m = MomentSet((ColorMoments(6.0, 48.0, 10), ColorMoments(6.0, 48.0, 10),
                       ColorMoments(6.0, 48.0, 20)))
        jac = jacobian_closed_form(m, (10, 10), Transmissibilities((0.5, 0.5, 0.5)))
        expected = [[3.5, 0.0, 0.0, 3.0], [0.0, 3.5, 3.0, 0.0],
                    [3.0, 0.0, 0.0, 3.5], [0.0, 3.0, 3.5, 0.0]]
        assert jac == pytest.approx(np.array(expected), abs=1e-12)

    def test_binomial_thinning_monte_carlo(self):
        # independent oracle: thin a generated graph edge by edge and measure.
        # Entry (c, h) -> (c', h') of J(R) is E_h[x'_c x'_c'] / E_h[x'_c]
        # (E_h[x'_c (x'_c - 1)] when c' = c) over layer h's nodes, c' the color
        # from h to h', estimated by the ratio of the sample means over 200
        # thinnings. Its standard error comes from the delta method, and the
        # ratio's bias, O(1 / (samples * edges)), is far below it. Budget: 4
        # standard errors, which a correct Jacobian exceeds on one of the
        # eight nonzero entries with probability about 5e-4 (normal approximation).
        layers = [ErLayerSpec(2000, 1.5), ErLayerSpec(2000, 6.0)]
        g = build_interdependent(layers, {(0, 1): 1.5}, master_seed=5)
        types = arrival_types(2)
        rows, cols, layer, color, out = np.array([
            (row, types.index((g.colors.color_of(h, far), far)), h, c, g.colors.color_of(h, far))
            for row, (c, h) in enumerate(types) for far in range(2)
        ]).T
        r = np.array([0.3, 0.6, 0.8])
        rng = np.random.default_rng(23)
        num, den = [], []
        for _ in range(200):
            keep = rng.random(g.num_edges) < r[g.edge_colors]
            thinned = LayeredGraph(
                g.layer_sizes, g.edges_u[keep], g.edges_v[keep]
            )
            table = colored_cross_moments(thinned)
            num.append(table.second[layer, color, out])
            den.append(table.mean[layer, color])
        num, den = np.array(num), np.array(den)
        sampled = num.mean(axis=0) / den.mean(axis=0)
        se = (num - sampled * den).std(axis=0, ddof=1) / np.sqrt(len(num)) / den.mean(axis=0)
        jac = empirical_jacobian(g, Transmissibilities(tuple(r)))
        assert np.count_nonzero(jac) == len(rows) == 8
        want = jac[rows, cols]
        assert np.all(np.abs(sampled - want) <= 4 * se)
        # and tight: under 1% of each entry, enough to tell R_c' from R_c
        assert np.all(se <= 0.01 * want)
        assert np.any(np.abs(sampled - want / r[out] * r[color]) > 10 * se)

    def test_mean_composes_multiplicatively(self):
        # thinning by R1 and then by R2 is thinning by R1 R2; the inter color's
        # R scales the columns of both of its types
        m, sizes = er_set(1.5, 6.0, 1.5)
        g = chain_plus_layer2()
        r1, r2 = np.array([0.6, 0.3, 0.9]), np.array([0.5, 0.8, 0.2])
        for jac in (lambda r: jacobian_closed_form(m, sizes, Transmissibilities(tuple(r))),
                    lambda r: empirical_jacobian(g, Transmissibilities(tuple(r)))):
            assert jac(r1 * r2) == pytest.approx(jac(r1) * r2[[0, 1, 2, 2]], abs=1e-12)


class TestJacobianClosedForm:
    def test_zero_rates(self):
        m, sizes = er_set(1.5, 6.0, 1.5)
        jac = jacobian_closed_form(m, sizes, Transmissibilities((0.0,) * 3))
        assert np.all(jac == 0.0)

    def test_er_root_is_the_2x2_closed_form(self):
        # equal ER layers: a layer-h node's excess degree of every color is that
        # color's mean (Poisson), so the rows of a layer's two types are equal,
        # and theta is the root of [[a, c], [c, b]], a = R0 <y0>, b = R1 <y1>,
        # c = R2 <y2>: (a+b)/2 + sqrt(((a-b)/2)^2 + c^2), which at R = 1 is
        # 3.75 + sqrt(2.25^2 + 1.5^2) = 3.75 + sqrt(7.3125) = 6.4541634566
        m, sizes = er_set(1.5, 6.0, 1.5)
        jac = jacobian_closed_form(m, sizes, Transmissibilities((1.0,) * 3))
        layer0, layer1 = [1.5, 0.0, 0.0, 1.5], [0.0, 6.0, 1.5, 0.0]
        assert jac.tolist() == [layer0, layer1, layer0, layer1]
        assert spectral_radius(jac) == pytest.approx(6.4541634566, abs=1e-10)
        for r in np.random.default_rng(8).random((20, 3)):
            a, b, c = r * (1.5, 6.0, 1.5)
            root = (a + b) / 2 + math.sqrt(((a - b) / 2) ** 2 + c * c)
            jac = jacobian_closed_form(m, sizes, Transmissibilities(tuple(r)))
            assert spectral_radius(jac) == pytest.approx(root, abs=1e-10)

    def test_inter_moments_split_over_unequal_layers(self):
        # inter mean 1.5 over 10 + 30 nodes is 30 edges: 3 ends per layer-0
        # node and 1 per layer-1 node (f = 40 / 20 = 2 and 40 / 60 = 2/3), and
        # Poisson factorial moments f^2 (<y^2> - <y>) = f^2 1.5^2 = 9 and 1
        m = MomentSet((er_color_moments(2.0, 10), er_color_moments(4.0, 30),
                       er_color_moments(1.5, 40)))
        table = moment_table(m, (10, 30))
        assert table.mean == pytest.approx(np.array([[2.0, 0.0, 3.0], [0.0, 4.0, 1.0]]))
        assert table.second == pytest.approx(np.array([
            [[4.0, 0.0, 6.0], [0.0, 0.0, 0.0], [6.0, 0.0, 9.0]],
            [[0.0, 0.0, 0.0], [0.0, 16.0, 4.0], [0.0, 4.0, 1.0]],
        ]))

    def test_inter_only_spreading(self):
        # only the interconnection color active: its two types feed each
        # other, theta = R3 * ratio3
        m, sizes = er_set(1.5, 6.0, 1.5)
        t = Transmissibilities((0.0, 0.0, 0.5))
        jac = jacobian_closed_form(m, sizes, t)
        theta = spectral_radius(jac)
        assert theta == pytest.approx(0.5 * 1.5, abs=1e-10)

    def test_zero_mean_color_dropped(self):
        m, sizes = er_set(1.5, 6.0, 0.0)
        jac = jacobian_closed_form(m, sizes, Transmissibilities((1.0,) * 3))
        # the inter color's two types, rows and columns 2 and 3
        assert np.all(jac[2:, :] == 0.0)
        assert np.all(jac[:, 2:] == 0.0)
        # the layers' own block still intact: a Poisson excess degree is the mean
        assert jac[0, 0] == pytest.approx(1.5)

    def test_colors_must_fit_the_layers(self):
        m, _ = er_set(1.5, 6.0, 1.5)
        with pytest.raises(LengthMismatch):
            jacobian_closed_form(m, (5000,), Transmissibilities((1.0,) * 3))
        with pytest.raises(LengthMismatch):
            jacobian_closed_form(m, (5000, 5000), Transmissibilities((1.0,) * 2))


class TestJacobianEmpirical:
    def test_edgeless_inter_color_dropped(self):
        g = two_layer_graph(4, 4, [(0, 1), (1, 2)], [(0, 1)], [])
        jac = empirical_jacobian(g, Transmissibilities((1.0, 1.0, 1.0)))
        # no intra edge joins the layers
        assert jac[0, 1] == 0.0
        assert jac[1, 0] == 0.0
        # the edgeless inter color's two types dropped entirely
        assert np.all(jac[2:, :] == 0.0)
        assert np.all(jac[:, 2:] == 0.0)

    def test_zero_rates(self):
        g = chain_plus_layer2()
        jac = empirical_jacobian(g, Transmissibilities((0.0,) * 3))
        assert np.all(jac == 0.0)

    def test_gap_to_closed_form_reported(self, capsys):
        # the closed form assumes independent colored degrees; on a concrete
        # graph the measured cross-moments differ -- report, don't assert
        from interepi import compute_moments

        g = chain_plus_layer2()
        t = Transmissibilities((1.0,) * 3)
        emp = empirical_jacobian(g, t)
        closed = jacobian_closed_form(compute_moments(g), g.layer_sizes, t)
        gap = np.abs(emp - closed).max()
        print(f"independence-assumption gap (12-node example): {gap:.4f}")
        assert np.isfinite(gap)

    def test_empty_graph_rejected(self):
        from interepi import build_graph

        g = build_graph([2, 2], [])
        with pytest.raises(EmptyColor):
            multi_threshold_empirical(g, tau=5)


class TestSpectralRadius:
    def test_identity(self):
        assert spectral_radius(np.eye(3)) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal(self):
        assert spectral_radius(np.diag([2.0, 3.0, 5.0])) == pytest.approx(5.0, abs=1e-10)

    def test_zero(self):
        assert spectral_radius(np.zeros((3, 3))) == 0.0

    def test_one_by_one(self):
        assert spectral_radius(np.array([[2.5]])) == 2.5

    def test_against_cardano(self):
        rng = np.random.default_rng(101)
        worst = 0.0
        for _ in range(300):
            a = rng.random((3, 3))
            worst = max(worst, abs(spectral_radius(a) - cardano_radius_3x3(a)))
        assert worst < 1e-8

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            spectral_radius(np.array([[1.0, -0.5], [0.0, 1.0]]))

    def test_reducible_matrix(self):
        a = np.array([[0.5, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
        assert spectral_radius(a) == pytest.approx(2.0, abs=1e-9)


class TestPerronRoots:
    def test_stack_against_cardano(self):
        a = np.random.default_rng(202).random((1000, 3, 3))
        theta = perron_roots(a)
        assert theta.shape == (1000,)
        worst = max(abs(t - cardano_radius_3x3(m)) for t, m in zip(theta, a))
        assert worst < 1e-8

    def test_rows_equal_single_calls(self):
        a = np.random.default_rng(7).random((50, 3, 3))
        a[::5, 2, :2] = 0.0  # some triangular rows
        assert perron_roots(a).tolist() == [spectral_radius(m) for m in a]

    def test_triangular_is_exact_diagonal_max(self):
        # unit diagonal entry with off-diagonal mass on one side only
        upper = np.array([[0.3, 5.0, 2.0], [0.0, 1.0, 7.0], [0.0, 0.0, 0.2]])
        stack = np.stack([upper, upper.T, np.zeros((3, 3))])
        assert perron_roots(stack).tolist() == [1.0, 1.0, 0.0]

    def test_empty_stack(self):
        assert perron_roots(np.zeros((0, 3, 3))).shape == (0,)

    def test_validation(self):
        with pytest.raises(ValueError):
            perron_roots(np.ones((3, 3)))
        with pytest.raises(ValueError):
            perron_roots(np.ones((2, 3, 4)))
        with pytest.raises(ValueError):
            perron_roots(np.full((1, 2, 2), np.nan))
        with pytest.raises(ValueError):
            perron_roots(-np.ones((1, 2, 2)))

    def test_eigvals_failure_is_nonconvergence(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", fail)
        with pytest.raises(NonConvergence):
            perron_roots(np.ones((2, 3, 3)))


class TestEpidemicIndicator:
    def test_zero_rates(self):
        m, sizes = er_set(1.5, 6.0, 1.5)
        theta, epidemic = epidemic_indicator(m, sizes, (0.0, 0.0, 0.0), 5)
        assert theta == 0.0
        assert not epidemic

    def test_all_ones(self):
        m, sizes = er_set(1.5, 6.0, 1.5)
        theta, epidemic = epidemic_indicator(m, sizes, (1.0, 1.0, 1.0), 5)
        # the root of [[1.5, 1.5], [1.5, 6.0]] (test_er_root_is_the_2x2_closed_form)
        assert theta == pytest.approx(6.4541634566, abs=1e-10)
        assert epidemic

    def test_boundary_inclusive(self):
        # inter-only spreading with ratio 2: R * 2 crosses 1 at R = 0.5,
        # i.e. beta = 0.5 at tau = 1; the >= convention makes that epidemic
        m = MomentSet((
            ColorMoments(1.0, 2.0, 500),
            ColorMoments(1.0, 2.0, 500),
            ColorMoments(1.0, 3.0, 1000),
        ))
        theta, epidemic = epidemic_indicator(m, (500, 500), (0.0, 0.0, 0.5), 1)
        assert theta == pytest.approx(1.0, abs=1e-10)
        assert epidemic
        _, below = epidemic_indicator(m, (500, 500), (0.0, 0.0, 0.499), 1)
        assert not below


class TestDominates:
    def test_examples(self):
        assert dominates((0, 0, 0.15), (0, 0, 0.22))
        assert not dominates((0.01, 0.01, 0.16), (0.02, 0.02, 0.15))
        assert not dominates((0.1, 0.2), (0.1, 0.2))

    def test_strictness(self):
        assert dominates((0.1, 0.1), (0.1, 0.2))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            dominates((0.1,), (0.1, 0.2))


class TestMultiThreshold:
    def test_empty_frontier(self):
        # so sparse that even all-ones rates stay subcritical
        m, sizes = er_set(0.2, 0.2, 0.1, 100, 100)
        front = multi_threshold(m, sizes, tau=1, grid_step=0.25)
        assert len(front) == 0

    def test_origin_frontier_degenerate_search(self):
        # every line with r0 > 0 is epidemic in its prefix alone, so it
        # crosses at index 0 of the searched axis; r0 = 1 is dominated
        base = np.diag([4.0, 0.0, 0.0])  # tau = 1: R = rate, theta = 4 r0
        front = _frontier_search(base, range(3), 1, 0.5, ((0,), (1,), (2,)), None)
        assert front.points == ((0.5, 0.0, 0.0),)
        assert front.thetas == (2.0,)

    def test_refinement_merges_crossings_within_tol(self):
        # tau = 1 and J = [[0, x], [s r0, b x]] cross at x = 1 / (b + s r0): the
        # r0 = 0 line at 0.50001 and the r0 = 0.5 line at 0.49999, different
        # grid cells, one refined point once refine_tol = 1e-4
        b = 1.0 / 0.50001
        base = np.array([[0.0, 1.0], [2.0 * (1.0 / 0.49999 - b), b]])
        groups = ((0,), (1,))
        grid = _frontier_search(base, range(2), 1, 0.5, groups, None)
        assert grid.points == ((0.0, 1.0), (0.5, 0.5))
        front = _frontier_search(base, range(2), 1, 0.5, groups, 1e-4)
        assert len(front) == 1
        assert front.points[0][0] == 0.0
        assert front.points[0][1] == pytest.approx(0.50001, abs=1e-4)
        assert front.thetas[0] >= 1.0

    def test_tie_on_a_triangular_neighbour_keeps_an_antichain(self):
        # (0, 1, 0) gives a triangular Jacobian with theta exactly 1 while full
        # ones next to it got eigvals roots just below 1, so a search deciding
        # by those roots also kept the dominated (0.9, 1, 0)
        base = np.array([[0.0, 0.0, 1.0], [5.66e-161, 1.0, 0.0], [3.0, 1.0, 0.0]])
        groups = ((0,), (1,), (2,))
        front = _frontier_search(base, range(3), 2, 0.09, groups, None)

        def epidemic(rates):
            jac = base * np.array([transmissibility(b, 2) for b in rates])
            return _epidemic(jac[None])[0]

        assert (0.0, 1.0, 0.0) in front.points
        assert set(front.points) == exhaustive_frontier(epidemic, 3, 0.09)
        assert not any(dominates(p, q) for p in front.points for q in front.points)

    def test_entries_beyond_the_bound_are_refused(self):
        # the search checks its base once; a stack is checked where it enters
        m, sizes = er_set(1.5, 2.0**34, 1.5)  # the dense layer's entry is its mean
        with pytest.raises(ValueError, match="at most 4294967296"):
            multi_threshold(m, sizes, tau=5, grid_step=0.1)
        at_bound = np.full((1, 2, 2), threshold_module.ENTRY_BOUND)
        assert _epidemic(at_bound).tolist() == [True]
        for bad in (np.nextafter(at_bound, np.inf), np.full((1, 2, 2), np.nan)):
            with pytest.raises(ValueError, match="finite and at most"):
                _epidemic(bad)

    def test_invalid_grid_step(self):
        m, sizes = er_set(1.5, 6.0, 1.5)
        with pytest.raises(DomainError):
            multi_threshold(m, sizes, tau=5, grid_step=0.6)

    @pytest.mark.parametrize("tol", [-0.01, math.nan, math.inf])
    def test_invalid_refine_tol_raises_before_the_search(self, tol, monkeypatch):
        # a negative tolerance never ended the refinement; nan or inf dropped points
        monkeypatch.setattr(threshold_module, "_frontier_search",
                            lambda *args: pytest.fail("the search started"))
        m, sizes = er_set(1.5, 6.0, 1.5)
        with pytest.raises(DomainError):
            multi_threshold(m, sizes, tau=5, grid_step=0.05, refine_tol=tol)
        with pytest.raises(DomainError):
            multi_threshold_empirical(chain_plus_layer2(), tau=5, grid_step=0.1, refine_tol=tol)

    def test_er_frontier_tied(self):
        m, sizes = er_set(1.5, 6.0, 1.5)
        front = multi_threshold(m, sizes, tau=5, grid_step=0.01, tie_intra=True)
        assert len(front) > 0
        for (b1, b2, a3), theta in zip(front.points, front.thetas):
            assert b1 == b2  # tied intra rates
            assert theta >= 1.0
        # frontier endpoints: pure-inter crossing at 1.5 R = 1, R = 2/3 ->
        # alpha = 1 - 3^(-1/5) = 0.197 -> 0.2; at alpha = 0 the layers decouple
        # and the dense one crosses at 6 R = 1, beta = 1 - (5/6)^(1/5) = 0.0358
        # -> 0.04 on the 0.01 grid
        assert (0.0, 0.0, 0.2) in front.points
        assert (0.04, 0.04, 0.0) in front.points

    def test_antichain_and_one_step_down(self):
        m, sizes = er_set(1.5, 6.0, 1.5)
        front = multi_threshold(m, sizes, tau=5, grid_step=0.05)
        pts = front.points
        for i, p in enumerate(pts):
            for j, q in enumerate(pts):
                if i != j:
                    assert not dominates(p, q)
        for p in pts:
            for axis in range(3):
                if p[axis] == 0.0:
                    continue
                down = list(p)
                down[axis] = round(down[axis] - 0.05, 12)
                theta, epidemic = epidemic_indicator(m, sizes, tuple(down), 5)
                assert not epidemic

    def test_fast_matches_exhaustive(self):
        m, sizes = er_set(1.5, 6.0, 1.5)

        def theta_fn(rates):
            return epidemic_indicator(m, sizes, rates, 5)[0]

        fast = set(multi_threshold(m, sizes, tau=5, grid_step=0.05).points)
        slow = exhaustive_frontier(theta_fn, 3, 0.05)
        assert fast == slow

    def test_refinement(self):
        m, sizes = er_set(1.5, 6.0, 1.5)
        tol = 1e-4
        front = multi_threshold(
            m, sizes, tau=5, grid_step=0.05, tie_intra=True, refine_tol=tol
        )
        for point, theta in zip(front.points, front.thetas):
            assert theta >= 1.0
            alpha = point[2]
            if alpha > 2 * tol:
                down = (point[0], point[1], alpha - 2 * tol)
                _, epidemic = epidemic_indicator(m, sizes, down, 5)
                assert not epidemic

    def test_refinement_untied_one_step_down(self):
        m, sizes = er_set(1.5, 6.0, 1.5)
        step, tol = 0.05, 1e-4
        front = multi_threshold(m, sizes, tau=5, grid_step=step, refine_tol=tol)
        # the five grid points of test_evaluations_counted_and_bounded, three
        # of them refined
        assert len(front) == 5
        for point, theta in zip(front.points, front.thetas):
            assert theta >= 1.0
            assert epidemic_indicator(m, sizes, point, 5)[0] == theta
            downs = [(point[0], point[1], point[2] - tol)]
            downs += [
                tuple(round(x - step, 12) if k == axis else x for k, x in enumerate(point))
                for axis in (0, 1)
            ]
            for down in downs:
                if min(down) >= 0.0:
                    assert not epidemic_indicator(m, sizes, down, 5)[1], (point, down)

    def test_evaluations_counted_and_bounded(self):
        m, sizes = er_set(1.5, 6.0, 1.5)
        step, tol = 0.05, 1e-4
        vals = _grid_values(step)
        # a line is live when its prefix alone is not epidemic: at alpha = 0
        # the layers decouple, so 1.5 R(b1) < 1 (b1 < 0.197: 0 to 0.15) and
        # 6 R(b2) < 1 (b2 < 0.0358: 0 alone), 4 lines
        live = sum(not epidemic_indicator(m, sizes, (b1, b2, 0.0), 5)[1]
                   for b1 in vals for b2 in vals)
        assert (len(vals), live) == (21, 4)
        front = multi_threshold(m, sizes, tau=5, grid_step=step)
        # the live lines cross where 2.25 R(alpha)^2 = 1 - 1.5 R(b1) (the 2x2
        # root of test_er_root_is_the_2x2_closed_form at b2 = 0): alpha 0.197,
        # 0.145, 0.101, 0.061 -> 0.2, 0.15, 0.15, 0.1, so b1 = 0.1 is dominated;
        # (0.2, 0, 0) and (0, 0.05, 0) cross at index 0. Each live line: rho(K),
        # then its candidate and the index below it, and no line steps; then
        # one theta per point
        assert len(front) == 5
        assert front.evaluations == 3 * live + len(front) == 17
        refined = multi_threshold(m, sizes, tau=5, grid_step=step, refine_tol=tol)
        rounds = math.ceil(math.log2(step / tol))  # bisection rounds per point
        assert len(refined) == 5
        # 12 pivots, 9 rounds for each of the three points off index 0, 5 thetas
        assert rounds == 9
        assert refined.evaluations == 12 + 3 * rounds + 5 == 44
        assert refined.evaluations - front.evaluations <= len(front) * rounds
        # a diagnostic only: equality ignores it
        assert dataclasses.replace(front, evaluations=0) == front

    def test_benchmark_model_takes_few_roots(self):
        # 10 201 lines; the bisection tested 3 157 Jacobians here, and
        # bisecting every line 22 447. 80 lines are live (b1 < 0.197: 20 grid
        # values, b2 < 0.0358: 4): rho(K) and two confirming pivots each, then
        # 50 thetas, the points of an exhaustive scan of the 2x2 root of
        # test_er_root_is_the_2x2_closed_form on the 0.01 grid
        m, sizes = er_set(1.5, 6.0, 1.5, 10_000, 10_000)
        front = multi_threshold(m, sizes, tau=5, grid_step=0.01)
        assert len(front) == 50
        assert front.evaluations == 3 * 80 + 50

    def test_frontier_holds_arrays(self):
        m, sizes = er_set(1.5, 6.0, 1.5)
        front = multi_threshold(m, sizes, tau=5, grid_step=0.05)
        assert front.rates.shape == (len(front), 3) and front.theta.shape == (len(front),)
        assert front.points == tuple(map(tuple, front.rates.tolist()))
        assert front.thetas == tuple(front.theta.tolist())
        with pytest.raises(ValueError):
            front.rates[0, 0] = 1.0
        other = multi_threshold(m, sizes, tau=5, grid_step=0.05, tie_intra=True)
        assert front != other and front != front.points

    def test_empirical_untied_matches_exhaustive(self):
        layers = [ErLayerSpec(60, 0.8), ErLayerSpec(60, 1.6)]
        g = build_interdependent(layers, {(0, 1): 1.0}, master_seed=31)
        step = 0.05

        def theta_fn(rates):
            return spectral_radius(empirical_jacobian(g, Transmissibilities.from_rates(rates, 5)))

        front = multi_threshold_empirical(g, tau=5, grid_step=step)
        assert len(front) >= 20
        assert set(front.points) == exhaustive_frontier(theta_fn, 3, step)
        assert front.thetas == tuple(theta_fn(p) for p in front.points)

    def test_empirical_route_on_graph(self):
        g = chain_plus_layer2()
        front = multi_threshold_empirical(g, tau=5, grid_step=0.1, tie_intra=True)
        assert len(front) > 0
        for theta in front.thetas:
            assert theta >= 1.0


class TestLineSearch:
    """Each line's crossing from its last pivot, confirmed on the grid."""

    # tau = 1, so R = rate. Color 0 alone is epidemic from r0 = 1/3 on; the
    # last color with color 1 from x = 1 / (0.8 + r1) on, never when r1 = 0.
    BASE = np.array([[3.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.8]])
    GROUPS = ((0,), (1,), (2,))

    @staticmethod
    def scan(base, type_color, tau, step):
        type_color = np.asarray(type_color)

        def epidemic(rates):
            r = np.array([transmissibility(b, tau) for b in rates])
            return bool(_epidemic((base * r[type_color])[None])[0])

        return exhaustive_frontier(epidemic, int(type_color[-1]) + 1, step)

    def test_prefix_epidemic_and_never_crossing_lines(self):
        front = _frontier_search(self.BASE, range(3), 1, 0.25, self.GROUPS, None)
        # r0 >= 0.5: the prefix is epidemic, index 0; r1 = 0 never crosses;
        # r1 = 0.25 crosses at 1 (x* = 0.95), r1 = 0.75 at 0.75 (x* = 0.65)
        assert front.points == ((0.0, 0.25, 1.0), (0.0, 0.75, 0.75), (0.5, 0.0, 0.0))
        assert set(front.points) == self.scan(self.BASE, range(3), 1, 0.25)
        # 10 live lines (r0 <= 0.25), 3 pivots each, no step, 3 thetas
        assert front.evaluations == 3 * 10 + 3

    def test_confirming_loop_corrects_candidates(self, monkeypatch):
        m, sizes = er_set(1.5, 6.0, 1.5)
        base, type_color = _type_base(moment_table(m, sizes))  # the last color on two columns
        cases = [(self.BASE, range(3), 1, 0.25, self.GROUPS),
                 (base, type_color, 5, 0.05, self.GROUPS)]
        expected = [_frontier_search(*case, None) for case in cases]
        for case, want in zip(cases, expected):
            assert set(want.points) == self.scan(*case[:4])
        exact = threshold_module._candidates
        for offset in ([-3], [-1], [1], [3], [-3, -1, 0, 1, 3]):
            # every candidate off by the offset (cycled over the lines), kept in [0, size]
            monkeypatch.setattr(threshold_module, "_candidates", lambda r, c: np.clip(
                exact(r, c) + np.resize(offset, len(c)), 0, len(r)))
            for case, want in zip(cases, expected):
                front = _frontier_search(*case, None)
                assert front == want
                assert front.evaluations > want.evaluations

    @pytest.mark.parametrize("tie_intra", [False, True])
    def test_one_layer_graph_runs_one_line(self, tie_intra):
        g = build_interdependent([ErLayerSpec(300, 3.0)], {}, master_seed=3)
        step = 0.01
        front = multi_threshold_empirical(g, tau=5, grid_step=step, tie_intra=tie_intra)
        base, type_color = _type_base(colored_cross_moments(g))
        assert set(front.points) == self.scan(base, type_color, 5, step) == {(0.08,)}
        # one line: p(1), its candidate and the index below it, one theta
        assert front.evaluations == 4
        refined = multi_threshold_empirical(g, tau=5, grid_step=step, refine_tol=1e-4)
        assert len(refined) == 1 and 0.07 < refined.points[0][0] <= 0.08


class TestArrivalLayers:
    """What the (color, arrival layer) types change: the alpha = 0 line, a
    searched color on two type columns, and more than two layers."""

    TAU, STEP = 5, 0.01

    def grid_threshold(self, kappa):
        # the least grid rate at or above a single layer's own threshold
        vals = np.asarray(_grid_values(self.STEP))
        return vals[np.searchsorted(vals, single_layer_threshold(kappa, self.TAU).beta)]

    @staticmethod
    def beta_at_alpha0(front):
        return min(p[0] for p in front.points if p[-1] == 0.0)

    @pytest.mark.parametrize("means,sizes", [((1.5, 6.0), (2000, 2000)),
                                             ((4.0, 2.5), (1500, 3000))])
    def test_alpha_zero_gives_the_dense_layers_threshold(self, means, sizes):
        # at alpha = 0 no inter edge transmits and the layers decouple: the
        # tied line crosses at the dense layer's own grid threshold, for the
        # model moments (ER: kappa = <y> + 1) and for the measured graph
        # (its layer's kappa), whatever the coupling
        layers = [ErLayerSpec(n, mean) for n, mean in zip(sizes, means)]
        g = build_interdependent(layers, {(0, 1): 1.5}, master_seed=4)
        m = MomentSet((er_color_moments(means[0], sizes[0]), er_color_moments(means[1], sizes[1]),
                       er_color_moments(1.5, sum(sizes))))
        closed = multi_threshold(m, sizes, self.TAU, self.STEP, tie_intra=True)
        assert self.beta_at_alpha0(closed) == self.grid_threshold(max(means) + 1.0)
        empirical = multi_threshold_empirical(g, self.TAU, self.STEP, tie_intra=True)
        dense = max(kappa(g, 0), kappa(g, 1))
        assert self.beta_at_alpha0(empirical) == self.grid_threshold(dense)

    def test_alpha_zero_of_power_law_model_moments(self):
        # the sf-desk model: kappa - 1 is each layer's moment ratio
        specs = [PowerLawSpec(gamma=2.9, y_min=1, n=1500), PowerLawSpec(gamma=2.1, y_min=1, n=1500)]
        m = MomentSet((powerlaw_color_moments(specs[0], 1500),
                       powerlaw_color_moments(specs[1], 1500), er_color_moments(6.0, 3000)))
        front = multi_threshold(m, (1500, 1500), self.TAU, self.STEP, tie_intra=True)
        dense = max(powerlaw_moments(spec)[1] for spec in specs) + 1.0
        assert self.beta_at_alpha0(front) == self.grid_threshold(dense)

    THREE_LAYERS = (60, 90, 120)
    THREE_MEANS = (1.0, 1.5, 0.8)
    THREE_INTER = {(0, 1): 0.6, (0, 2): 0.7, (1, 2): 0.8}

    def test_three_layer_frontiers_match_the_exhaustive_scan(self):
        # 6 colors on 9 types; the searched color (layers 1-2) has two columns.
        # The grid 0, 0.4, 0.8, 1 ends on a shorter step
        sizes, step = self.THREE_LAYERS, 0.4
        layers = [ErLayerSpec(n, mean) for n, mean in zip(sizes, self.THREE_MEANS)]
        g = build_interdependent(layers, self.THREE_INTER, master_seed=9)
        m = MomentSet(tuple(er_color_moments(mean, n) for n, mean in zip(sizes, self.THREE_MEANS))
                      + tuple(er_color_moments(mean, sizes[i] + sizes[j])
                              for (i, j), mean in self.THREE_INTER.items()))
        vals = _grid_values(step)
        grid = list(map(tuple, np.array(np.meshgrid(*[vals] * 6)).reshape(6, -1).T.tolist()))
        routes = [(multi_threshold(m, sizes, 5, step),
                   lambda t: jacobian_closed_form(m, sizes, t)),
                  (multi_threshold_empirical(g, 5, step),
                   lambda t: empirical_jacobian(g, t))]
        for front, jacobian in routes:
            jacs = np.stack([jacobian(Transmissibilities.from_rates(rates, 5)) for rates in grid])
            assert jacs.shape[1:] == (9, 9)
            decided = dict(zip(grid, _epidemic(jacs)))
            assert len(front) >= 8
            assert set(front.points) == exhaustive_frontier(decided.__getitem__, 6, step)
            assert front.thetas == tuple(
                spectral_radius(jacobian(Transmissibilities.from_rates(p, 5))) for p in front.points)

    def test_three_layer_states(self):
        # equal ER layers with equal inter means: every type's row sums to
        # R (<y_intra> + 2 <y_inter>) with all R equal, so theta is that sum
        sizes = (100, 100, 100)
        m = MomentSet((er_color_moments(1.0, 100),) * 3 + (er_color_moments(0.5, 200),) * 3)
        tau = 1  # R = rate
        at = {rate: classify_state(m, sizes, (rate,) * 6, tau) for rate in (0.4, 0.6, 1.0)}
        # a layer alone needs R <y_intra> = R >= 1; the network R 2 >= 1
        assert at == {0.4: NetworkState.INFECTION_FREE, 0.6: NetworkState.MIXED,
                      1.0: NetworkState.EPIDEMIC}
        assert spectral_radius(jacobian_closed_form(m, sizes, Transmissibilities((0.5,) * 6))) \
            == pytest.approx(0.5 * (1.0 + 2 * 0.5), abs=1e-12)


class TestGrid:
    def test_grid_includes_endpoints(self):
        vals = _grid_values(0.01)
        assert vals[0] == 0.0
        assert vals[-1] == 1.0
        assert len(vals) == 101

    def test_grid_appends_one_for_uneven_step(self):
        vals = _grid_values(0.3)
        assert vals == [0.0, 0.3, 0.6, 0.9, 1.0]


class TestClassifyState:
    def test_zero_rates_infection_free(self):
        m, sizes = er_set(1.5, 6.0, 0.1)
        assert classify_state(m, sizes, (0.0, 0.0, 0.0), 5) is NetworkState.INFECTION_FREE

    def test_weakly_coupled_mixed(self):
        # beta between the layer thresholds: dense layer epidemic
        # (R(0.128)*6 = 2.97 >= 1), sparse layer not (R(0.128)*1.5 = 0.74)
        m, sizes = er_set(1.5, 6.0, 0.1)
        assert classify_state(m, sizes, (0.128, 0.128, 0.01), 5) is NetworkState.MIXED

    def test_strongly_coupled_epidemic_at_ones(self):
        m, sizes = er_set(1.5, 6.0, 1.5)
        assert classify_state(m, sizes, (1.0, 1.0, 1.0), 5) is NetworkState.EPIDEMIC

    def test_layer_boundary_consistent_with_single_layer_threshold(self):
        # the per-layer criterion R(beta) * ratio >= 1 must cross within one
        # grid step of the closed-form single-layer threshold at kappa=7
        m, sizes = er_set(1.5, 6.0, 0.1)
        step = 0.005
        crossing = None
        for k in range(201):
            beta = k * step
            if transmissibility(beta, 5) * 6.0 >= 1.0:
                crossing = beta
                break
        expected = single_layer_threshold(7.0, 5).beta
        assert crossing is not None
        assert abs(crossing - expected) <= step

    def test_colors_must_fit_the_layers(self):
        m, _ = er_set(1.5, 6.0, 1.5)
        with pytest.raises(LengthMismatch):
            classify_state(m, (10000,), (0.1, 0.1, 0.1), 5)
