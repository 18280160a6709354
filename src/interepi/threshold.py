"""Analytic epidemic machinery for interdependent networks.

The chain is: per-color diffusion rates -> per-color transmissibilities
R = 1 - (1-beta)^tau -> percolation-thinned degree moments -> a non-negative
Jacobian whose Perron root theta decides whether the diffusion network grows
a giant component (theta >= 1). On top of that sits the multidimensional
threshold: the Pareto-minimal set of rate tuples on the epidemic boundary,
found on a rate grid line by line: each line's crossing comes from the last
pivot of I - J, the only one that moves along the line, and is confirmed on
the grid with the arithmetic of the epidemic test.

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
column belong to B. The frontier search therefore builds B once; along a
line only the searched color's column of B diag(R) moves, so the pivots of
the other columns are eliminated once per line and theta is never computed
to decide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    DomainError,
    EmptyColor,
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

    @classmethod
    def from_rates(cls, rates: Sequence[float], tau: int) -> "Transmissibilities":
        return cls(tuple(transmissibility(b, tau) for b in rates))


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

def powerlaw_moments(spec: PowerLawSpec) -> tuple[float, float]:
    """Continuous power-law mean and moment ratio (<y^2>-<y>)/<y>.

    Moments are integrals of y^m * c * y^-gamma over [y_min, y_max]. The
    exponents vanish at gamma = 2 (mean) and gamma = 3 (second moment),
    where the integral is the logarithmic limit.
    """
    if spec.y_max == spec.y_min:
        # zero-width support: point mass at y_min
        return float(spec.y_min), float(spec.y_min - 1)

    c = spec.normalization
    a, b = float(spec.y_min), float(spec.y_max)

    def raw_moment(order: int) -> float:
        e = order - spec.gamma + 1.0
        if abs(e) < 1e-12:
            return c * math.log(b / a)
        return c * (b**e - a**e) / e

    mean = raw_moment(1)
    second = raw_moment(2)
    return mean, (second - mean) / mean


def er_color_moments(mean: float, population: int) -> ColorMoments:
    """ColorMoments of a Poisson-degree color restricted to ``population`` nodes."""
    second = mean * (mean + 1.0)
    return ColorMoments(
        mean_restricted=mean,
        second_restricted=second,
        population_restricted=population,
    )


def powerlaw_color_moments(spec: PowerLawSpec, population: int) -> ColorMoments:
    mean, ratio = powerlaw_moments(spec)
    second = (ratio + 1.0) * mean
    return ColorMoments(
        mean_restricted=mean,
        second_restricted=second,
        population_restricted=population,
    )


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

    Each root is the largest eigenvalue modulus from ``np.linalg.eigvals``;
    LAPACK's balancing leaves a triangular matrix's diagonal exact. Raises
    NonConvergence when the eigenvalue iteration fails.
    """
    a = np.asarray(jacs, dtype=float)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError("matrix must be square; a stack has shape (N, C, C)")
    if not np.isfinite(a).all():
        raise ValueError("matrix must be finite")
    if (a < 0).any():
        raise ValueError("matrix must be non-negative")
    try:
        return np.abs(np.linalg.eigvals(a)).max(axis=-1, initial=0.0)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"eigenvalues did not converge: {exc}") from exc


# The largest Jacobian entry the pivot test accepts. An entry is a ratio of
# degree moments, below 2^31 on any graph with int32 node indices, while two
# entries of 7.3e298 overflowed float64 in the elimination's products.
ENTRY_BOUND = 2.0**32


def _check_entries(jacs: np.ndarray) -> None:
    """Raise ValueError unless every entry is at most ``ENTRY_BOUND`` (NaN and inf are not)."""
    if not jacs.max(initial=0.0) <= ENTRY_BOUND:
        raise ValueError(f"Jacobian entries must be finite and at most {ENTRY_BOUND:.0f}")


def _eliminate(
    a: list[list[np.ndarray]], pivots: range, cols: Sequence[int], live: np.ndarray
) -> tuple[list[list[np.ndarray]], np.ndarray]:
    """Gaussian elimination without pivoting on a stack held entry by entry.

    ``a[i][j]`` is entry (i, j) of every matrix of the stack, one vector each.
    Each pivot k drops the matrices whose a_kk <= 0 (from ``a`` and from
    their indices ``live``), then sets a_ij -= (a_ik * a_kj) / a_kk for
    every row i > k and every column j > k in ``cols``. Entries of other
    columns keep their values, so a column can be eliminated later, alone.
    """
    for k in pivots:
        keep = a[k][k] > 0.0
        if not keep.all():
            a, live = [[v[keep] for v in row] for row in a], live[keep]
        for i in range(k + 1, len(a)):
            for j in cols:
                if j > k:
                    a[i][j] = a[i][j] - a[i][k] * a[k][j] / a[k][k]
    return a, live


def _epidemic(jacs: np.ndarray) -> np.ndarray:
    """theta >= 1 for a stack of non-negative matrices, shape (N, C, C) -> (N,).

    theta < 1 exactly when I - J is a nonsingular M-matrix: when Gaussian
    elimination without pivoting keeps every pivot > 0 (Berman & Plemmons,
    ch. 6). Updates subtract non-negative products, so the test is monotone
    in every entry of J, rounding included; a matrix stops at a pivot <= 0.
    Raises ValueError for an entry above ``ENTRY_BOUND``.
    """
    _check_entries(jacs)
    c = jacs.shape[-1]
    a = [[float(i == j) - jacs[:, i, j] for j in range(c)] for i in range(c)]
    _, live = _eliminate(a, range(c), range(c), np.arange(len(jacs)))
    epidemic = np.ones(len(jacs), dtype=bool)
    epidemic[live] = False
    return epidemic


def spectral_radius(jac: np.ndarray) -> float:
    """Perron root of one non-negative square matrix (see ``perron_roots``)."""
    return float(perron_roots(np.asarray(jac, dtype=float)[None])[0])


def epidemic_indicator(
    m: MomentSet,
    layer_sizes: Sequence[int],
    rates: Sequence[float],
    tau: int,
) -> tuple[float, bool]:
    """theta of the closed-form Jacobian at these rates, and ``_epidemic`` of it."""
    jac = jacobian_closed_form(m, layer_sizes, Transmissibilities.from_rates(rates, tau))
    return spectral_radius(jac), bool(_epidemic(jac[None])[0])


# ---------------------------------------------------------------------------
# Dominance and the multidimensional threshold
# ---------------------------------------------------------------------------

def dominates(t1: Sequence[float], t2: Sequence[float]) -> bool:
    """t1 dominates t2 when it is componentwise <= with at least one strict."""
    if len(t1) != len(t2):
        raise LengthMismatch(f"tuple lengths {len(t1)} != {len(t2)}")
    return all(a <= b for a, b in zip(t1, t2)) and any(a < b for a, b in zip(t1, t2))


@dataclass(frozen=True, eq=False)
class FrontierSet:
    """Approximate multidimensional epidemic threshold on a rate grid.

    ``points`` is a Pareto antichain of full-length epidemic rate tuples;
    reducing any searched component of a member by one grid step makes it
    not epidemic or leaves [0, 1]^C. Empty when no grid tuple is epidemic.
    They are held as one read-only (N, C) array ``rates`` and their thetas
    as ``theta``; ``points`` and ``thetas`` give them as tuples.
    ``evaluations`` counts the last pivots the line search evaluated, the
    Jacobians the refinement tested and the thetas reported; it is a
    diagnostic and takes no part in equality.
    """

    rates: np.ndarray
    theta: np.ndarray
    grid_step: float
    num_colors: int
    evaluations: int

    def __post_init__(self):
        self.rates.flags.writeable = self.theta.flags.writeable = False

    @property
    def points(self) -> tuple[RateTuple, ...]:
        return tuple(map(tuple, self.rates.tolist()))

    @property
    def thetas(self) -> tuple[float, ...]:
        return tuple(self.theta.tolist())

    def __eq__(self, other):
        return (isinstance(other, FrontierSet) and self.grid_step == other.grid_step
                and np.array_equal(self.rates, other.rates)
                and np.array_equal(self.theta, other.theta))

    def __len__(self) -> int:
        return len(self.theta)

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


def _undominated(crossing: np.ndarray, tol: float) -> np.ndarray:
    """Mask of the lines whose crossing no immediate predecessor dominates.

    ``crossing`` holds each line's crossing over the grid of prefixes, inf
    where it never crosses. The line one step down on a leading axis
    dominates when it crosses at most ``tol`` higher. ``_epidemic`` is
    monotone, so a predecessor never crosses lower; the local test is
    therefore equivalent to full pairwise non-domination.
    """
    keep = np.isfinite(crossing)
    for axis in range(crossing.ndim):
        c = np.moveaxis(crossing, axis, 0)
        np.moveaxis(keep, axis, 0)[1:] &= c[:-1] > c[1:] + tol
    return keep


def _candidates(r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Index of the least grid transmissibility in ``r`` at or above x* = 1/c,
    one per slope c; ``len(r)`` where c <= 0 or x* > r[-1]."""
    return np.searchsorted(r, np.divide(1.0, c, out=np.full(len(c), np.inf), where=c > 0.0))


def _frontier_search(
    base: np.ndarray,
    tau: int,
    num_colors: int,
    grid_step: float,
    groups: tuple[tuple[int, ...], ...],
    refine_tol: Optional[float],
) -> FrontierSet:
    """Monotone grid search for the Pareto-minimal epidemic tuples of J(R) = base diag(R).

    Every grid point of the leading group axes (a prefix) spans a line along
    the last group, which must be the last color g alone. ``_epidemic`` is
    monotone in every rate, so a line crosses at most once, at the least
    epidemic grid index (``size`` if none). Only column g of I - J moves
    along a line, so its first g pivots are eliminated once; one <= 0 makes
    it cross at index 0. Otherwise its last pivot is p(x) = 1 - c x in
    x = R_g: p(1) gives c, and the least grid R >= 1/c the candidate. Each
    candidate is confirmed with ``_epidemic``'s arithmetic (epidemic at its
    index, not one below) and stepped where rounding disagrees, until none
    steps. ``evaluations`` counts these last pivots, each ``refine_tol``
    round's Jacobians and the thetas. The rate grid is never held whole.
    Raises ValueError for an entry of ``base`` above ``ENTRY_BOUND``; every
    Jacobian of the search is at most ``base``.
    """
    _check_entries(base)
    g = num_colors - 1
    vals = np.asarray(_grid_values(grid_step))
    size = len(vals)
    shape = (size,) * (len(groups) - 1)
    lines = np.indices(shape).reshape(len(shape), math.prod(shape)).T
    r = np.array([transmissibility(b, tau) for b in vals.tolist()])
    t = np.ones((num_colors, len(lines)))  # each line's R, with R_g = 1
    for axis, colors in enumerate(groups[:-1]):
        t[list(colors)] = r[lines[:, axis]]
    a = [[float(i == j) - base[i, j] * t[j] for j in range(num_colors)]
         for i in range(num_colors)]
    a, live = _eliminate(a, range(g), range(num_colors), np.arange(len(lines)))
    at = _candidates(r, 1.0 - a[g][g])
    evaluations = len(live)

    def epidemic_at(pos: np.ndarray, idx: np.ndarray) -> np.ndarray:
        # the live lines at positions pos, with column g at x = r[idx]
        m = [[v[pos] for v in row[:g]] + [float(i == g) - base[i, g] * r[idx]]
             for i, row in enumerate(a)]
        return ~(_eliminate(m, range(g), (g,), pos)[0][g][g] > 0.0)

    pending = np.arange(len(live))
    while pending.size:
        i = at[pending]
        epidemic = epidemic_at(np.r_[pending, pending],
                               np.r_[np.minimum(i, size - 1), np.maximum(i - 1, 0)])
        evaluations += 2 * len(pending)
        up, down = epidemic[:len(i)] | (i == size), epidemic[len(i):] & (i > 0)
        step = (~up).astype(int) - (up & down)
        at[pending] += step
        pending = pending[step != 0]
    hi = np.zeros(len(lines), dtype=int)
    hi[live] = at

    jacobians = _jacobians_of_rates(base, tau)

    def jacobians_at(rows: np.ndarray, last: np.ndarray) -> np.ndarray:
        nonlocal evaluations
        evaluations += len(last)
        return jacobians(_rates_at(lines[rows], last, groups, vals, num_colors))

    crossing = np.append(vals, np.inf)[hi]
    rows = np.flatnonzero(_undominated(crossing.reshape(shape), 0.0))
    last = crossing[rows]
    if refine_tol:
        below = vals[np.maximum(hi[rows] - 1, 0)]
        while (live := np.flatnonzero(last - below > refine_tol)).size:
            mid = 0.5 * (below[live] + last[live])
            up = _epidemic(jacobians_at(rows[live], mid))
            last[live[up]] = mid[up]
            below[live[~up]] = mid[~up]
        crossing = np.full(len(lines), np.inf)
        crossing[rows] = last
        keep = _undominated(crossing.reshape(shape), refine_tol).ravel()[rows]
        rows, last = rows[keep], last[keep]

    theta = perron_roots(jacobians_at(rows, last))
    rates = _rates_at(lines[rows], last, groups, vals, num_colors)
    order = np.lexsort(rates.T[::-1])
    return FrontierSet(
        rates=rates[order],
        theta=theta[order],
        grid_step=grid_step,
        num_colors=num_colors,
        evaluations=evaluations,
    )


def _jacobians_of_rates(base: np.ndarray, tau: int) -> Callable[[np.ndarray], np.ndarray]:
    """The Jacobians J(R) = base * diag(R(rates)) of rate rows, (N, C) -> (N, C, C).

    Each distinct rate is mapped once by ``transmissibility``, so the rows get
    the scalar route's values bit for bit (numpy's vectorized power may
    differ from it in the last place).
    """

    def jacobians(rates: np.ndarray) -> np.ndarray:
        distinct, where = np.unique(rates, return_inverse=True)
        r = np.array([transmissibility(b, tau) for b in distinct.tolist()])
        return base * r[where].reshape(rates.shape)[:, None, :]

    return jacobians


def _check_search(grid_step: float, refine_tol: Optional[float]) -> None:
    if not 0.0 < grid_step <= 0.5:
        raise DomainError("grid step must be in (0, 0.5]")
    if refine_tol is not None and not 0.0 <= refine_tol < math.inf:
        raise DomainError(f"refine_tol must be None or finite and >= 0, got {refine_tol}")


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
    the returned tuples are always full length. A positive ``refine_tol``
    bisects each frontier point along the searched axis down to that
    resolution; None or 0 leaves the grid points.
    """
    _check_search(grid_step, refine_tol)
    groups = _tie_groups(m.num_colors, len(layer_sizes), tie_intra)
    base = _closed_form_base(m, layer_sizes)
    return _frontier_search(base, tau, m.num_colors, grid_step, groups, refine_tol)


def multi_threshold_empirical(
    g: LayeredGraph,
    tau: int,
    grid_step: float = 0.01,
    *,
    tie_intra: bool = False,
    refine_tol: Optional[float] = None,
) -> FrontierSet:
    """Frontier of the measured-cross-moment Jacobian (any layer count)."""
    _check_search(grid_step, refine_tol)
    stats = colored_cross_moments(g)
    if not stats.mean.any():
        raise EmptyColor("graph has no edges on any color")
    groups = _tie_groups(g.num_colors, g.num_layers, tie_intra)
    base = _cross_moment_base(stats)
    return _frontier_search(base, tau, g.num_colors, grid_step, groups, refine_tol)


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
    whole = _epidemic(jacobian_closed_form(m, layer_sizes, t)[None])[0]
    if whole and all(layer_epi):
        return NetworkState.EPIDEMIC
    if not whole and not any(layer_epi):
        return NetworkState.INFECTION_FREE
    return NetworkState.MIXED
