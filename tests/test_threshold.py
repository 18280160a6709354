import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from interepi import (
    DomainError,
    EmptyColor,
    ErLayerSpec,
    ExponentSingularity,
    KappaAtMostOne,
    LengthMismatch,
    NetworkState,
    NonConvergence,
    NotTwoLayers,
    PowerLawSpec,
    Transmissibilities,
    build_interdependent,
    classify_state,
    dominates,
    epidemic_indicator,
    er_color_moments,
    er_moment_ratio,
    jacobian_closed_form,
    jacobian_empirical,
    multi_threshold,
    multi_threshold_empirical,
    perron_roots,
    powerlaw_moments,
    single_layer_threshold,
    spectral_radius,
    thin_moments,
    transmissibility,
    two_layer_moments,
)
from interepi.graph import ColorMoments, MomentSet
from interepi.threshold import _frontier_search, _grid_values
from oracles import (
    cardano_radius_3x3,
    chain_plus_layer2,
    exhaustive_frontier,
    two_layer_graph,
)


def er_set(m1, m2, m3, n1=5000, n2=5000):
    n = n1 + n2
    return (
        two_layer_moments(
            er_color_moments(m1, n1, n),
            er_color_moments(m2, n2, n),
            er_color_moments(m3, n, n),
        ),
        (n1, n2),
    )


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
        assert er_moment_ratio(6.0) == 6.0
        assert er_moment_ratio(0.0) == 0.0
        assert er_moment_ratio(1.5) == 1.5

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
        spec = PowerLawSpec(gamma=3.0, y_min=1, n=100)
        with pytest.raises(ExponentSingularity):
            powerlaw_moments(spec)
        mean, ratio = powerlaw_moments(spec, allow_limits=True)
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
        with pytest.raises(ExponentSingularity):
            powerlaw_moments(spec)
        mean, _ = powerlaw_moments(spec, allow_limits=True)
        assert mean == pytest.approx(math.log(spec.y_max), abs=1e-12)


class TestThinning:
    def sample(self):
        return er_set(1.5, 6.0, 1.5)[0]

    def test_identity_at_one(self):
        m = self.sample()
        t = Transmissibilities.from_rates((1.0, 1.0, 1.0), 5)
        thinned = thin_moments(m, t)
        for before, after in zip(m.per_color, thinned.per_color):
            assert after.mean_restricted == pytest.approx(before.mean_restricted)
            assert after.second_restricted == pytest.approx(before.second_restricted)

    def test_annihilator_at_zero(self):
        m = self.sample()
        t = Transmissibilities((0.0, 0.0, 0.0), 5)
        thinned = thin_moments(m, t)
        for cm in thinned.per_color:
            assert cm.mean_restricted == 0.0
            assert cm.second_restricted == 0.0

    def test_worked_example(self):
        # <y>=6, <y^2>=42, R=0.5: <y'>=3, <y'^2>=0.25*36+3=12
        m = MomentSet(
            per_color=(ColorMoments(6.0, 42.0, 6.0, 42.0, 10),) * 3,
            population_global=10,
        )
        t = Transmissibilities((0.5, 0.5, 0.5), 5)
        out = thin_moments(m, t).per_color[0]
        assert out.mean_restricted == pytest.approx(3.0)
        assert out.second_restricted == pytest.approx(12.0)

    def test_binomial_thinning_monte_carlo(self):
        # independent oracle: thin a Poisson(6) sample edge-by-edge
        rng = np.random.default_rng(17)
        y = rng.poisson(6.0, size=200_000)
        kept = rng.binomial(y, 0.5)
        m = MomentSet(
            per_color=(
                ColorMoments(y.mean(), (y.astype(float) ** 2).mean(), 0.0, 0.0, len(y)),
            ) * 3,
            population_global=len(y),
        )
        t = Transmissibilities((0.5, 0.5, 0.5), 5)
        out = thin_moments(m, t).per_color[0]
        assert out.mean_restricted == pytest.approx(kept.mean(), rel=0.01)
        assert out.second_restricted == pytest.approx(
            (kept.astype(float) ** 2).mean(), rel=0.01
        )

    def test_mean_composes_multiplicatively(self):
        m = self.sample()
        a = thin_moments(m, Transmissibilities((0.6, 0.6, 0.6), 5))
        b = thin_moments(a, Transmissibilities((0.5, 0.5, 0.5), 5))
        c = thin_moments(m, Transmissibilities((0.3, 0.3, 0.3), 5))
        for x, y in zip(b.per_color, c.per_color):
            assert x.mean_restricted == pytest.approx(y.mean_restricted)


class TestJacobianClosedForm:
    def test_zero_rates(self):
        m, sizes = er_set(1.5, 6.0, 1.5)
        jac = jacobian_closed_form(m, sizes, Transmissibilities((0.0,) * 3, 5))
        assert np.all(jac == 0.0)

    def test_equal_rows_er_case(self):
        # Poisson moment ratio equals the mean, so every row becomes
        # ((n1/n) R <y1>, (n2/n) R <y2>, R <y3>) = (0.75, 3, 1.5) at R=1
        m, sizes = er_set(1.5, 6.0, 1.5)
        jac = jacobian_closed_form(m, sizes, Transmissibilities((1.0,) * 3, 5))
        expected_row = np.array([0.75, 3.0, 1.5])
        for row in jac:
            assert row == pytest.approx(expected_row)
        assert spectral_radius(jac) == pytest.approx(5.25, abs=1e-10)

    def test_inter_only_spreading(self):
        # only the interconnection color active: theta = R3 * ratio3
        m, sizes = er_set(1.5, 6.0, 1.5)
        t = Transmissibilities((0.0, 0.0, 0.5), 5)
        jac = jacobian_closed_form(m, sizes, t)
        theta = spectral_radius(jac)
        assert theta == pytest.approx(0.5 * 1.5, abs=1e-10)

    def test_zero_mean_color_dropped(self):
        m, sizes = er_set(1.5, 6.0, 0.0)
        jac = jacobian_closed_form(m, sizes, Transmissibilities((1.0,) * 3, 5))
        assert np.all(jac[2, :] == 0.0)
        assert np.all(jac[:, 2] == 0.0)
        # remaining block still intact
        assert jac[0, 0] == pytest.approx(0.75)

    def test_requires_two_layers(self):
        m, _ = er_set(1.5, 6.0, 1.5)
        with pytest.raises(NotTwoLayers):
            jacobian_closed_form(m, (5000,), Transmissibilities((1.0,) * 3, 5))


class TestJacobianEmpirical:
    def test_disjoint_intra_cross_moments_vanish(self):
        # no node carries both intra colors, so those off-diagonals are 0
        g = two_layer_graph(4, 4, [(0, 1), (1, 2)], [(0, 1)], [])
        jac = jacobian_empirical(g, Transmissibilities((1.0, 1.0, 1.0), 5))
        assert jac[0, 1] == 0.0
        assert jac[1, 0] == 0.0
        # edgeless inter color dropped entirely
        assert np.all(jac[2, :] == 0.0)
        assert np.all(jac[:, 2] == 0.0)

    def test_zero_rates(self):
        g = chain_plus_layer2()
        jac = jacobian_empirical(g, Transmissibilities((0.0,) * 3, 5))
        assert np.all(jac == 0.0)

    def test_gap_to_closed_form_reported(self, capsys):
        # the closed form assumes independent colored degrees; on a concrete
        # graph the measured cross-moments differ -- report, don't assert
        from interepi import compute_moments

        g = chain_plus_layer2()
        t = Transmissibilities((1.0,) * 3, 5)
        emp = jacobian_empirical(g, t)
        closed = jacobian_closed_form(compute_moments(g), g.layer_sizes, t)
        gap = np.abs(emp - closed).max()
        print(f"independence-assumption gap (12-node example): {gap:.4f}")
        assert np.isfinite(gap)

    def test_empty_graph_rejected(self):
        from interepi import build_graph

        g = build_graph([2, 2], [])
        with pytest.raises(EmptyColor):
            jacobian_empirical(g, Transmissibilities((1.0,) * 3, 5))


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
        assert theta == pytest.approx(5.25, abs=1e-10)
        assert epidemic

    def test_boundary_inclusive(self):
        # inter-only spreading with ratio 2: R * 2 crosses 1 at R = 0.5,
        # i.e. beta = 0.5 at tau = 1; the >= convention makes that epidemic
        m = MomentSet(
            per_color=(
                ColorMoments(1.0, 2.0, 0.5, 1.0, 500),
                ColorMoments(1.0, 2.0, 0.5, 1.0, 500),
                ColorMoments(1.0, 3.0, 1.0, 3.0, 1000),
            ),
            population_global=1000,
        )
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
        # unreachable through rates (R(0)=0) but the search must handle a
        # theta function that is already supercritical at the origin
        front = _frontier_search(
            lambda rates: np.full(len(rates), 2.0), 3, 0.5, ((0,), (1,), (2,)), None
        )
        assert front.points == ((0.0, 0.0, 0.0),)
        assert front.thetas == (2.0,)

    def test_refinement_merges_crossings_within_tol(self):
        # the r0 = 0 line crosses at 0.50001 and the r0 = 0.5 line at 0.49999:
        # different grid cells, one refined point once refine_tol = 1e-4
        def theta_fn(rates):
            return 1.0 + rates[:, 1] - (0.50001 - 4e-5 * rates[:, 0])

        groups = ((0,), (1,))
        grid = _frontier_search(theta_fn, 2, 0.5, groups, None)
        assert grid.points == ((0.0, 1.0), (0.5, 0.5))
        front = _frontier_search(theta_fn, 2, 0.5, groups, 1e-4)
        assert len(front) == 1
        assert front.points[0][0] == 0.0
        assert front.points[0][1] == pytest.approx(0.50001, abs=1e-4)
        assert front.thetas[0] >= 1.0

    def test_invalid_grid_step(self):
        m, sizes = er_set(1.5, 6.0, 1.5)
        with pytest.raises(DomainError):
            multi_threshold(m, sizes, tau=5, grid_step=0.6)

    def test_er_frontier_tied(self):
        m, sizes = er_set(1.5, 6.0, 1.5)
        front = multi_threshold(m, sizes, tau=5, grid_step=0.01, tie_intra=True)
        assert len(front) > 0
        for (b1, b2, a3), theta in zip(front.points, front.thetas):
            assert b1 == b2  # tied intra rates
            assert theta >= 1.0
        # frontier endpoints: pure-inter crossing at R=2/3 -> alpha=0.2,
        # pure-intra crossing at 3.75 R = 1 -> beta=0.07 on the 0.01 grid
        assert (0.0, 0.0, 0.2) in front.points
        assert (0.07, 0.07, 0.0) in front.points

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
        assert len(front) > 5
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
        k = len(_grid_values(step))
        lines = k * k  # untied: one line per grid point of the two leading axes
        front = multi_threshold(m, sizes, tau=5, grid_step=step)
        assert lines <= front.evaluations <= lines * (math.ceil(math.log2(k)) + 2)
        refined = multi_threshold(m, sizes, tau=5, grid_step=step, refine_tol=tol)
        rounds = math.ceil(math.log2(step / tol)) + 1  # bisection, then theta at the end
        assert front.evaluations < refined.evaluations
        assert refined.evaluations <= front.evaluations + len(front) * rounds
        # a diagnostic only: equality ignores it
        assert dataclasses.replace(front, evaluations=0) == front

    def test_empirical_untied_matches_exhaustive(self):
        layers = [ErLayerSpec(60, 0.8), ErLayerSpec(60, 1.6)]
        g = build_interdependent(layers, {(0, 1): 1.0}, master_seed=31)
        step = 0.05

        def theta_fn(rates):
            return spectral_radius(jacobian_empirical(g, Transmissibilities.from_rates(rates, 5)))

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

    def test_requires_two_layers(self):
        m, _ = er_set(1.5, 6.0, 1.5)
        with pytest.raises(NotTwoLayers):
            classify_state(m, (10000,), (0.1, 0.1, 0.1), 5)
