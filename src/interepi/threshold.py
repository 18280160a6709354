"""Analytic epidemic machinery for interdependent networks.

The chain is: per-color diffusion rates -> per-color transmissibilities
R = 1 - (1-beta)^tau -> percolation-thinned degree moments -> a non-negative
Jacobian whose Perron root theta decides whether the diffusion network grows
a giant component (theta >= 1). On top of that sits the multidimensional
threshold: the Pareto-minimal set of rate tuples on the epidemic boundary,
found by a monotone grid search.

Two Jacobian routes are provided. ``jacobian_closed_form`` is the two-layer
matrix built from per-layer degree moments under the assumption that colored
degrees are independent; ``jacobian_empirical`` instead measures the colored
degree cross-moments on a concrete graph (any layer count) and so quantifies
the gap that the independence assumption opens.

Both routes are linear in the transmissibilities, column by column:
J(R) = B diag(R), where B is the Jacobian at R = 1. This holds exactly.
Thinning keeps each color-c edge independently with probability R_c, so a
thinned moment gains one factor R per degree it involves:
<x'_i> = R_i <x_i>, <x'_i x'_j> = R_i R_j <x_i x_j> for i != j, and
<x'_i (x'_i - 1)> = R_i^2 <x_i (x_i - 1)>. Entry (i, j) divides such a
second moment by <x'_i>, which cancels R_i and leaves R_j times the
unthinned entry. The closed form puts R_c in column c by construction. An
edgeless color is known from the unthinned moments, so its zero row and
column belong to B. The frontier search therefore builds B once and takes
the Perron roots of whole stacks B * R with one batched eigenvalue call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    DomainError,
    EmptyColor,
    ExponentSingularity,
    KappaAtMostOne,
    LengthMismatch,
    NonConvergence,
    NotTwoLayers,
)
from .generate import PowerLawSpec
from .graph import ColorMoments, LayeredGraph, MomentSet

RateTuple = tuple[float, ...]


class NetworkState(Enum):
    INFECTION_FREE = "infection-free"
    MIXED = "mixed"
    EPIDEMIC = "epidemic"


# ---------------------------------------------------------------------------
# Transmissibility and the single-layer threshold
# ---------------------------------------------------------------------------

def transmissibility(beta: float, tau: int) -> float:
    """Probability an infected node transmits across an edge before recovery:
    1 - (1 - beta)^tau."""
    if not 0.0 <= beta <= 1.0:
        raise DomainError(f"rate {beta} outside [0, 1]")
    if tau < 1:
        raise DomainError("tau must be at least 1")
    return 1.0 - (1.0 - beta) ** tau


@dataclass(frozen=True)
class Transmissibilities:
    """Per-color transmissibilities for a fixed recovery time."""

    values: tuple[float, ...]
    tau: int

    @classmethod
    def from_rates(cls, rates: Sequence[float], tau: int) -> "Transmissibilities":
        return cls(tuple(transmissibility(b, tau) for b in rates), tau)


class ThresholdResult(NamedTuple):
    beta: float
    saturated: bool  # True when every rate up to 1 is needed (kappa <= 2)


def single_layer_threshold(kappa: float, tau: int) -> ThresholdResult:
    """Critical rate 1 - [1 - (kappa-1)^-1]^(1/tau) of a single network.

    Undefined for kappa <= 1. For 1 < kappa <= 2 the bracket is non-positive,
    so the threshold saturates at 1.0 and the flag is set.
    """
    if tau < 1:
        raise DomainError("tau must be at least 1")
    if kappa <= 1.0:
        raise KappaAtMostOne(f"threshold undefined for kappa={kappa}")
    if kappa <= 2.0:
        return ThresholdResult(1.0, True)
    bracket = 1.0 - 1.0 / (kappa - 1.0)
    return ThresholdResult(1.0 - bracket ** (1.0 / tau), False)


# ---------------------------------------------------------------------------
# Model moments
# ---------------------------------------------------------------------------

def er_moment_ratio(mean: float) -> float:
    """(<y^2> - <y>) / <y> for a Poisson degree distribution equals its mean."""
    if mean < 0:
        raise DomainError("mean degree must be non-negative")
    return mean


def powerlaw_moments(spec: PowerLawSpec, allow_limits: bool = False) -> tuple[float, float]:
    """Continuous power-law mean and moment ratio (<y^2>-<y>)/<y>.

    Moments are integrals of y^m * c * y^-gamma over [y_min, y_max]. The
    exponents vanish at gamma = 2 (mean) and gamma = 3 (second moment);
    those points raise ExponentSingularity unless ``allow_limits`` enables
    the logarithmic antiderivative.
    """
    if spec.y_max == spec.y_min:
        # zero-width support: point mass at y_min
        return float(spec.y_min), float(spec.y_min - 1)

    c = spec.normalization
    a, b = float(spec.y_min), float(spec.y_max)

    def raw_moment(order: int) -> float:
        e = order - spec.gamma + 1.0
        if abs(e) < 1e-12:
            if not allow_limits:
                raise ExponentSingularity(
                    f"moment of order {order} singular at gamma={spec.gamma}"
                )
            return c * math.log(b / a)
        return c * (b**e - a**e) / e

    mean = raw_moment(1)
    second = raw_moment(2)
    return mean, (second - mean) / mean


def er_color_moments(mean: float, population: int, total: int) -> ColorMoments:
    """ColorMoments of a Poisson-degree color restricted to ``population`` nodes."""
    second = mean * (mean + 1.0)
    frac = population / total
    return ColorMoments(
        mean_restricted=mean,
        second_restricted=second,
        mean_global=frac * mean,
        second_global=frac * second,
        population_restricted=population,
    )


def powerlaw_color_moments(spec: PowerLawSpec, population: int, total: int) -> ColorMoments:
    mean, ratio = powerlaw_moments(spec)
    second = (ratio + 1.0) * mean
    frac = population / total
    return ColorMoments(
        mean_restricted=mean,
        second_restricted=second,
        mean_global=frac * mean,
        second_global=frac * second,
        population_restricted=population,
    )


def two_layer_moments(
    intra0: ColorMoments, intra1: ColorMoments, inter: ColorMoments
) -> MomentSet:
    n = intra0.population_restricted + intra1.population_restricted
    return MomentSet(per_color=(intra0, intra1, inter), population_global=n)


# ---------------------------------------------------------------------------
# Percolation thinning
# ---------------------------------------------------------------------------

def thin_moments(m: MomentSet, t: Transmissibilities) -> MomentSet:
    """Moments of the degree distributions after keeping each color-c edge
    with probability R_c: <y'> = R<y>, <y'^2> = R^2(<y^2> - <y>) + R<y>."""
    if len(t.values) != m.num_colors:
        raise LengthMismatch("one transmissibility per color required")
    thinned = []
    for cm, r in zip(m.per_color, t.values):
        thinned.append(
            ColorMoments(
                mean_restricted=r * cm.mean_restricted,
                second_restricted=r * r * (cm.second_restricted - cm.mean_restricted)
                + r * cm.mean_restricted,
                mean_global=r * cm.mean_global,
                second_global=r * r * (cm.second_global - cm.mean_global)
                + r * cm.mean_global,
                population_restricted=cm.population_restricted,
            )
        )
    return MomentSet(per_color=tuple(thinned), population_global=m.population_global)


# ---------------------------------------------------------------------------
# Jacobians
# ---------------------------------------------------------------------------

def _closed_form_base(m: MomentSet, layer_sizes: Sequence[int]) -> np.ndarray:
    """The closed-form Jacobian at R = 1; see ``jacobian_closed_form``.

    An edgeless color's column is zero already (its mean and ratio are 0);
    its row is zeroed here.
    """
    if len(layer_sizes) != 2 or m.num_colors != 3:
        raise NotTwoLayers("closed-form Jacobian requires two layers / three colors")
    n = sum(layer_sizes)
    return np.array([
        [
            (cj.population_restricted / n)
            * (cj.ratio_restricted() if i == j else cj.mean_restricted)
            if ci.mean_restricted != 0 else 0.0
            for j, cj in enumerate(m.per_color)
        ]
        for i, ci in enumerate(m.per_color)
    ])


def jacobian_closed_form(
    m: MomentSet, layer_sizes: Sequence[int], t: Transmissibilities
) -> np.ndarray:
    """Two-layer thinned Jacobian from per-layer moments.

    Column c carries the factor (pop_c / n) * R_c (the interconnection color
    has pop = n, so its factor is R alone); the diagonal entry uses the moment
    ratio (<y^2>-<y>)/<y> of the column's color, off-diagonal entries its
    mean. Colors with zero mean degree cannot propagate, so their row and
    column are dropped (zeroed).
    """
    base = _closed_form_base(m, layer_sizes)
    if len(t.values) != 3:
        raise LengthMismatch("need three transmissibilities")
    return base * np.asarray(t.values)


@dataclass(frozen=True)
class ColorCrossMoments:
    """Empirical colored-degree moments over all n nodes of a graph."""

    mean: np.ndarray  # <x_i>, shape (C,)
    cross: np.ndarray  # <x_i x_j>, shape (C, C)
    factorial: np.ndarray  # <x_i^2 - x_i>, shape (C,)


def colored_cross_moments(g: LayeredGraph) -> ColorCrossMoments:
    x = g.color_degrees().astype(float)
    n = g.n
    return ColorCrossMoments(
        mean=x.sum(axis=1) / n,
        cross=(x @ x.T) / n,
        factorial=((x * x - x).sum(axis=1)) / n,
    )


def _cross_moment_base(stats: ColorCrossMoments) -> np.ndarray:
    """The cross-moment Jacobian at R = 1; see ``jacobian_from_cross_moments``.

    An edgeless color has zero cross moments with every color, so dividing
    its row by 1 instead of its zero mean leaves its row and column zero.
    """
    mean = np.where(stats.mean != 0, stats.mean, 1.0)
    base = stats.cross / mean[:, None]
    np.fill_diagonal(base, stats.factorial / mean)
    return base


def jacobian_from_cross_moments(
    stats: ColorCrossMoments, t: Transmissibilities
) -> np.ndarray:
    """J = T E(1) with E measured rather than assumed independent: the entry
    (i, j) is R_j <x_i x_j> / <x_i> off the diagonal and R_i <x_i^2 - x_i> / <x_i>
    on it (the 1/R_i of T cancels one thinning factor). Edgeless colors are
    dropped (zero row and column)."""
    if len(t.values) != len(stats.mean):
        raise LengthMismatch("one transmissibility per color required")
    return _cross_moment_base(stats) * np.asarray(t.values)


def jacobian_empirical(g: LayeredGraph, t: Transmissibilities) -> np.ndarray:
    """Measured-cross-moment Jacobian of a concrete graph (any layer count).

    Raises EmptyColor when no color carries an edge at all.
    """
    stats = colored_cross_moments(g)
    if not stats.mean.any():
        raise EmptyColor("graph has no edges on any color")
    return jacobian_from_cross_moments(stats, t)


# ---------------------------------------------------------------------------
# Perron root
# ---------------------------------------------------------------------------

def perron_roots(jacs: np.ndarray) -> np.ndarray:
    """Perron roots of a stack of non-negative matrices, shape (N, C, C) -> (N,).

    Each root is the largest eigenvalue modulus from ``np.linalg.eigvals``. A
    triangular matrix (every 1x1 and zero matrix among them) gets the maximum
    of its diagonal instead, which is its spectrum exactly, so a rate tuple
    lying exactly on theta = 1 there stays epidemic. Raises NonConvergence
    when the eigenvalue iteration fails.
    """
    a = np.asarray(jacs, dtype=float)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError("matrix must be square; a stack has shape (N, C, C)")
    if not np.isfinite(a).all():
        raise ValueError("matrix must be finite")
    if (a < 0).any():
        raise ValueError("matrix must be non-negative")
    try:
        roots = np.abs(np.linalg.eigvals(a)).max(axis=-1, initial=0.0)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"eigenvalues did not converge: {exc}") from exc
    below = np.arange(a.shape[1])[:, None] > np.arange(a.shape[1])
    triangular = ~a[:, below].any(axis=1) | ~a[:, below.T].any(axis=1)
    diag = np.diagonal(a, axis1=1, axis2=2).max(axis=-1, initial=0.0)
    return np.where(triangular, diag, roots)


def spectral_radius(jac: np.ndarray) -> float:
    """Perron root of one non-negative square matrix (see ``perron_roots``)."""
    return float(perron_roots(np.asarray(jac, dtype=float)[None])[0])


def epidemic_indicator(
    m: MomentSet,
    layer_sizes: Sequence[int],
    rates: Sequence[float],
    tau: int,
) -> tuple[float, bool]:
    """theta of the closed-form Jacobian at these rates, and theta >= 1."""
    t = Transmissibilities.from_rates(rates, tau)
    theta = spectral_radius(jacobian_closed_form(m, layer_sizes, t))
    return theta, theta >= 1.0


# ---------------------------------------------------------------------------
# Dominance and the multidimensional threshold
# ---------------------------------------------------------------------------

def dominates(t1: Sequence[float], t2: Sequence[float]) -> bool:
    """t1 dominates t2 when it is componentwise <= with at least one strict."""
    if len(t1) != len(t2):
        raise LengthMismatch(f"tuple lengths {len(t1)} != {len(t2)}")
    return all(a <= b for a, b in zip(t1, t2)) and any(a < b for a, b in zip(t1, t2))


@dataclass(frozen=True)
class FrontierSet:
    """Approximate multidimensional epidemic threshold on a rate grid.

    ``points`` is a Pareto antichain of full-length rate tuples with
    theta >= 1; reducing any searched component of a member by one grid step
    drops theta below 1 or leaves [0, 1]^C. Empty when no grid tuple is
    epidemic. ``evaluations`` counts the Perron roots the search computed; it
    is a diagnostic and takes no part in equality.
    """

    points: tuple[RateTuple, ...]
    thetas: tuple[float, ...]
    grid_step: float
    num_colors: int
    evaluations: int = field(compare=False)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


def _grid_values(step: float) -> list[float]:
    k = int(math.floor(1.0 / step + 1e-9))
    vals = [round(i * step, 12) for i in range(k + 1)]
    if vals[-1] < 1.0 - 1e-12:
        vals.append(1.0)
    return vals


def _tie_groups(num_colors: int, num_layers: int, tie_intra: bool) -> tuple[tuple[int, ...], ...]:
    if not tie_intra:
        return tuple((c,) for c in range(num_colors))
    intra = tuple(range(num_layers))
    inter = tuple((c,) for c in range(num_layers, num_colors))
    return (intra,) + inter


def _rates_at(
    prefixes: np.ndarray,
    last: np.ndarray,
    groups: tuple[tuple[int, ...], ...],
    vals: np.ndarray,
    num_colors: int,
) -> np.ndarray:
    """Rate rows: the leading group axes at their grid values, the last group at ``last``."""
    rates = np.zeros((len(last), num_colors))
    for axis, colors in enumerate(groups[:-1]):
        rates[:, colors] = vals[prefixes[:, axis], None]
    rates[:, groups[-1]] = last[:, None]
    return rates


def _undominated(prefixes: np.ndarray, last: np.ndarray, tol: float, size: int) -> np.ndarray:
    """Mask of the crossings that no immediate predecessor prefix dominates.

    The prefix one step down on a leading axis dominates when it is a
    crossing too, at ``last`` <= this one's + ``tol``. Theta is monotone, so a
    predecessor never crosses lower; the local test is therefore equivalent
    to full pairwise non-domination.
    """
    strides = size ** np.arange(prefixes.shape[1])[::-1]
    flat = prefixes @ strides
    crossing = np.full(size ** prefixes.shape[1], np.inf)
    crossing[flat] = last
    keep = np.ones(len(last), dtype=bool)
    for axis, stride in enumerate(strides):
        has_pred = prefixes[:, axis] > 0
        keep[has_pred] &= crossing[flat[has_pred] - stride] > last[has_pred] + tol
    return keep


def _frontier_search(
    theta_fn: Callable[[np.ndarray], np.ndarray],
    num_colors: int,
    grid_step: float,
    groups: tuple[tuple[int, ...], ...],
    refine_tol: Optional[float],
) -> FrontierSet:
    """Monotone grid search for the Pareto-minimal epidemic tuples.

    ``theta_fn`` maps rate rows, shape (N, C), to their thetas. Every grid
    point of the leading group axes (a prefix) spans a line along the last
    axis; theta is non-decreasing in every rate, so each line crosses 1 at
    most once. All lines are bisected together, one ``theta_fn`` call per
    round, and ``refine_tol`` bisects the kept crossings the same way. Only
    the lines are held, never the full rate grid.
    """
    vals = np.asarray(_grid_values(grid_step))
    size = len(vals)
    dims = len(groups)
    evaluations = 0

    def theta_at(prefixes: np.ndarray, last: np.ndarray) -> np.ndarray:
        nonlocal evaluations
        evaluations += len(last)
        return theta_fn(_rates_at(prefixes, last, groups, vals, num_colors))

    prefixes = np.indices((size,) * (dims - 1)).reshape(dims - 1, size ** (dims - 1)).T
    theta = theta_at(prefixes, np.full(len(prefixes), vals[-1]))
    prefixes, theta = prefixes[theta >= 1.0], theta[theta >= 1.0]
    theta_origin = theta_at(prefixes, np.full(len(prefixes), vals[0]))
    at_origin = theta_origin >= 1.0
    theta = np.where(at_origin, theta_origin, theta)
    # on open lines theta(vals[lo]) < 1 <= theta(vals[hi])
    lo = np.zeros(len(prefixes), dtype=int)
    hi = np.where(at_origin, 0, size - 1)
    while (live := np.flatnonzero(hi - lo > 1)).size:
        mid = (lo[live] + hi[live]) // 2
        theta_mid = theta_at(prefixes[live], vals[mid])
        up = theta_mid >= 1.0
        hi[live[up]], theta[live[up]] = mid[up], theta_mid[up]
        lo[live[~up]] = mid[~up]

    keep = _undominated(prefixes, hi.astype(float), 0.0, size)
    prefixes, hi, theta = prefixes[keep], hi[keep], theta[keep]
    last = vals[hi]
    if refine_tol:
        below = vals[np.maximum(hi - 1, 0)]
        while (live := np.flatnonzero(last - below > refine_tol)).size:
            mid = 0.5 * (below[live] + last[live])
            up = theta_at(prefixes[live], mid) >= 1.0
            last[live[up]] = mid[up]
            below[live[~up]] = mid[~up]
        refined = hi > 0
        theta[refined] = theta_at(prefixes[refined], last[refined])
        keep = _undominated(prefixes, last, refine_tol, size)
        prefixes, last, theta = prefixes[keep], last[keep], theta[keep]

    rates = _rates_at(prefixes, last, groups, vals, num_colors)
    order = np.lexsort(rates.T[::-1])
    return FrontierSet(
        points=tuple(map(tuple, rates[order].tolist())),
        thetas=tuple(theta[order].tolist()),
        grid_step=grid_step,
        num_colors=num_colors,
        evaluations=evaluations,
    )


def _thetas_of_rates(base: np.ndarray, tau: int) -> Callable[[np.ndarray], np.ndarray]:
    """theta over rate rows: the Perron roots of J(R) = base * diag(R(rates)).

    Each distinct rate is mapped once by ``transmissibility``, so the rows get
    the scalar route's values bit for bit (numpy's vectorized power may
    differ from it in the last place).
    """

    def thetas(rates: np.ndarray) -> np.ndarray:
        distinct, where = np.unique(rates, return_inverse=True)
        r = np.array([transmissibility(b, tau) for b in distinct.tolist()])
        return perron_roots(base * r[where].reshape(rates.shape)[:, None, :])

    return thetas


def multi_threshold(
    m: MomentSet,
    layer_sizes: Sequence[int],
    tau: int,
    grid_step: float = 0.01,
    *,
    tie_intra: bool = False,
    refine_tol: Optional[float] = None,
) -> FrontierSet:
    """Multidimensional epidemic threshold of the closed-form model.

    ``tie_intra`` searches with all intra-layer rates equal (the usual
    beta / alpha convention), which reduces the grid dimension by one;
    the returned tuples are always full length. ``refine_tol`` bisects each
    frontier point along the searched axis down to the given resolution.
    """
    if not 0.0 < grid_step <= 0.5:
        raise DomainError("grid step must be in (0, 0.5]")
    groups = _tie_groups(m.num_colors, len(layer_sizes), tie_intra)
    thetas = _thetas_of_rates(_closed_form_base(m, layer_sizes), tau)
    return _frontier_search(thetas, m.num_colors, grid_step, groups, refine_tol)


def multi_threshold_empirical(
    g: LayeredGraph,
    tau: int,
    grid_step: float = 0.01,
    *,
    tie_intra: bool = False,
    refine_tol: Optional[float] = None,
) -> FrontierSet:
    """Frontier of the measured-cross-moment Jacobian (any layer count)."""
    if not 0.0 < grid_step <= 0.5:
        raise DomainError("grid step must be in (0, 0.5]")
    stats = colored_cross_moments(g)
    if not stats.mean.any():
        raise EmptyColor("graph has no edges on any color")
    groups = _tie_groups(g.num_colors, g.num_layers, tie_intra)
    thetas = _thetas_of_rates(_cross_moment_base(stats), tau)
    return _frontier_search(thetas, g.num_colors, grid_step, groups, refine_tol)


# ---------------------------------------------------------------------------
# Three-state classification
# ---------------------------------------------------------------------------

def classify_state(
    m: MomentSet,
    layer_sizes: Sequence[int],
    rates: Sequence[float],
    tau: int,
) -> NetworkState:
    """Infection-free / mixed / epidemic at the given rates.

    A layer is epidemic when its own percolated branching factor
    R_c (<y^2>-<y>)/<y> reaches 1; the whole network when theta does.
    Epidemic requires both; infection-free requires neither; everything
    in between is mixed.
    """
    if len(layer_sizes) != 2 or m.num_colors != 3:
        raise NotTwoLayers("state classification requires two layers")
    t = Transmissibilities.from_rates(rates, tau)
    layer_epi = [
        t.values[c] * m.per_color[c].ratio_restricted() >= 1.0 for c in (0, 1)
    ]
    _, whole = epidemic_indicator(m, layer_sizes, rates, tau)
    if whole and all(layer_epi):
        return NetworkState.EPIDEMIC
    if not whole and not any(layer_epi):
        return NetworkState.INFECTION_FREE
    return NetworkState.MIXED
