"""Analytic epidemic machinery for interdependent networks.

The chain is: per-color diffusion rates -> per-color transmissibilities
R = 1 - (1-beta)^tau -> percolation-thinned degree moments -> a non-negative
Jacobian whose Perron root theta decides whether the diffusion network grows
a giant component (theta >= 1). On top of that sits the multidimensional
threshold: the Pareto-minimal set of rate tuples on the epidemic boundary,
found on a rate grid line by line: each line's crossing comes from the
pivots of I - J that move along the line, and is confirmed on the grid, and
bisected off it, with the arithmetic of the epidemic test on the line's
pivots eliminated once.

One builder makes every Jacobian, for any layer count, over types (color c,
arrival layer h): an edge's far end lies in the layer it arrives at, whose
nodes have their own moments (multitype branching, as in Allard et al.
2009, PRE 79, and Leicht & D'Souza 2009). It reads one per-layer table of
colored degree moments (``DegreeTable``), which ``frontier`` searches: filled
from generator specs with colors independent (``io.model_moments``), measured
on a graph (``colored_cross_moments``), or measured with its colors made
independent (``independent_colors``).

The Jacobian is linear in the transmissibilities, column by column:
J(R) = B diag(R), where B is the Jacobian at R = 1 and each type's column
carries its color's R. This holds exactly. Thinning keeps each color-c edge
independently with probability R_c, so over any layer's nodes
<x'_i> = R_i <x_i>, <x'_i x'_j> = R_i R_j <x_i x_j> for i != j, and
<x'_i (x'_i - 1)> = R_i^2 <x_i (x_i - 1)>. Entry (i, j) divides such a
second moment by <x'_i>, which cancels R_i and leaves R_j times the
unthinned entry. An edgeless color's zero rows and columns belong to B.
The frontier search therefore builds B once; along a line only the
searched color's columns of B diag(R) move, so the pivots of the other
columns are eliminated once per line and theta is never computed to decide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import DomainError, EmptyColor, KappaAtMostOne, LengthMismatch, NonConvergence
from .generate import PowerLawSpec
from .graph import ColorTable, LayeredGraph

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


def _transmissibilities(rates: np.ndarray, tau: int) -> np.ndarray:
    """``transmissibility`` of each rate, scalar by scalar (numpy's vectorized
    power may differ from it in the last place)."""
    return np.array([transmissibility(b, tau) for b in rates.tolist()])


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


# ---------------------------------------------------------------------------
# Jacobians
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DegreeTable:
    """Colored degree moments over each layer's own nodes, colors numbered by
    ``ColorTable``: ``mean[h, c]`` is E_h[x_c], shape (L, C), and
    ``second[h, c, c']`` is E_h[x_c x_c'], shape (L, C, C), with the factorial
    moment E_h[x_c (x_c - 1)] on the diagonal. Tables are equal when both
    arrays are."""

    mean: np.ndarray
    second: np.ndarray

    def __eq__(self, other):
        return (isinstance(other, DegreeTable) and np.array_equal(self.mean, other.mean)
                and np.array_equal(self.second, other.second))


def independent_table(mean: np.ndarray, factorial: np.ndarray) -> DegreeTable:
    """The table of independent colors with these means and factorial
    moments, both (L, C): each cross moment of two colors is the product of
    their means."""
    second = mean[:, :, None] * mean[:, None, :]
    diag = range(mean.shape[1])
    second[:, diag, diag] = factorial
    return DegreeTable(mean, second)


def colored_cross_moments(g: LayeredGraph) -> DegreeTable:
    """The table measured on a graph: its ``color_degrees`` grouped by layer."""
    x = g.color_degrees().astype(float)
    mean = np.empty((g.num_layers, g.num_colors))
    second = np.empty((g.num_layers, g.num_colors, g.num_colors))
    for h, size in enumerate(g.layer_sizes):
        xh = x[:, g.layer_slice(h)]
        total = xh.sum(axis=1)
        mean[h] = total / size
        second[h] = (np.einsum("ci,di->cd", xh, xh) - np.diag(total)) / size
    return DegreeTable(mean, second)


def independent_colors(table: DegreeTable, layer_sizes: Sequence[int]) -> DegreeTable:
    """The ``independent_table`` with ``table``'s means, as ``io.model_moments``
    spreads a color's moments over its own nodes.

    An inter color's factorial moment is pooled over its layers i and j,
    (n_i F_i + n_j F_j) / (n_i + n_j), and scaled on layer h by
    f^2 = (pop / (2 n_h))^2; an intra color keeps its own.
    """
    colors = ColorTable(len(layer_sizes))
    diag = range(colors.num_colors)
    factorial = table.second[:, diag, diag]
    for c in range(len(layer_sizes), colors.num_colors):
        pair = colors.members(c)
        pop = sum(layer_sizes[h] for h in pair)
        pooled = sum(layer_sizes[h] * factorial[h, c] for h in pair) / pop
        for h in pair:
            f = pop / (2 * layer_sizes[h])
            factorial[h, c] = f * f * pooled
    return independent_table(table.mean, factorial)


def _type_base(table: DegreeTable) -> tuple[np.ndarray, np.ndarray]:
    """The Jacobian B at R = 1 over types (color c, arrival layer h), and each
    type's color.

    Types are ordered by color, then layer: L + 2 (layer pairs) of them. A node
    reached on a color-c edge in layer h sends its other edges out of h; a
    color c' that leaves h arrives at h' = h if intra, at its far layer if
    inter. Entry (c, h) -> (c', h') is E_h[x_c (x_c' - delta_cc')] / E_h[x_c];
    every other entry, and the row of a type that no edge reaches
    (E_h[x_c] = 0), is 0.
    """
    num_layers, num_colors = table.mean.shape
    colors = ColorTable(num_layers)
    types = [(c, h) for c in range(num_colors) for h in colors.members(c)]
    index = {t: k for k, t in enumerate(types)}
    mean, second = table.mean.tolist(), table.second.tolist()
    base = np.zeros((len(types), len(types)))
    for k, (c, h) in enumerate(types):
        if mean[h][c]:
            for far in range(num_layers):
                out = colors.color_of(h, far)
                base[k, index[out, far]] = second[h][c][out] / mean[h][c]
    return base, np.array([c for c, _ in types])


def jacobian_from_cross_moments(table: DegreeTable, t: Transmissibilities) -> np.ndarray:
    """J(R) = B diag(R) over the types of ``_type_base``, each type's column
    carrying its color's R."""
    base, type_color = _type_base(table)
    if len(t.values) != table.mean.shape[1]:
        raise LengthMismatch("one transmissibility per color required")
    return base * np.asarray(t.values)[type_color]


def _check_sizes(table: DegreeTable, layer_sizes: Sequence[int]) -> None:
    if len(layer_sizes) != len(table.mean):
        raise LengthMismatch(f"{len(layer_sizes)} layer sizes for {len(table.mean)} layers")


def jacobian_closed_form(table: DegreeTable, layer_sizes: Sequence[int],
                         t: Transmissibilities) -> np.ndarray:
    """``jacobian_from_cross_moments`` once ``layer_sizes`` fits the table: the
    benchmark's call shape on ``io.model_moments``'s result, kept until the
    benchmark calls ``jacobian_from_cross_moments`` (ROADMAP item 3)."""
    _check_sizes(table, layer_sizes)
    return jacobian_from_cross_moments(table, t)


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
# The most grid lines, and the most rates on one line, a frontier search
# takes: two layers untied at grid step 1/2047 search 2048^2 = 2^22 lines and
# peak at 268 MiB (tracemalloc), three tied at 0.01 search 101^3 lines.
MAX_GRID_LINES = 2**22


def _check_entries(jacs: np.ndarray) -> None:
    """Raise ValueError unless every entry is at most ``ENTRY_BOUND`` (NaN and inf are not)."""
    if not jacs.max(initial=0.0) <= ENTRY_BOUND:
        raise ValueError(f"Jacobian entries must be finite and at most {ENTRY_BOUND:.0f}")


def _eliminate(
    a: list[list], pivots: range, cols: Sequence[int], live: np.ndarray
) -> tuple[list[list], np.ndarray]:
    """Gaussian elimination without pivoting on a stack held entry by entry.

    ``a[i][j]`` is entry (i, j) of every matrix of the stack, one vector each,
    or the scalar 0.0 off the diagonal where every matrix has a structural 0.
    Each pivot k drops the matrices whose a_kk <= 0 (from ``a`` and from
    their indices ``live``), then sets a_ij -= (a_ik * a_kj) / a_kk for
    every row i > k and every column j > k in ``cols``, skipping products
    with a scalar factor: subtracting an exact 0 changes no pivot's sign.
    Entries of other columns keep their values, so a column can be
    eliminated later, alone.
    """
    for k in pivots:
        keep = a[k][k] > 0.0
        if not keep.all():
            a = [[v[keep] if isinstance(v, np.ndarray) else v for v in row] for row in a]
            live = live[keep]
        for i in range(k + 1, len(a)):
            if isinstance(a[i][k], np.ndarray):
                for j in cols:
                    if j > k and isinstance(a[k][j], np.ndarray):
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
    return np.bincount(live, minlength=len(jacs)) == 0


def spectral_radius(jac: np.ndarray) -> float:
    """Perron root of one non-negative square matrix (see ``perron_roots``)."""
    return float(perron_roots(np.asarray(jac, dtype=float)[None])[0])


# ---------------------------------------------------------------------------
# The multidimensional threshold
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FrontierSet:
    """Approximate multidimensional epidemic threshold on a rate grid.

    ``points`` is a Pareto antichain of full-length epidemic rate tuples;
    reducing any searched component of a member by one grid step makes it
    not epidemic or leaves [0, 1]^C. Empty when no grid tuple is epidemic.
    They are held as one read-only (N, C) array ``rates`` and their thetas
    as ``theta``; ``points`` and ``thetas`` give them as tuples.
    ``evaluations`` counts the crossing roots and confirming pivots the line
    search evaluated, the pivot tests the refinement ran and the thetas
    reported; it is a diagnostic and takes no part in equality.
    """

    rates: np.ndarray
    theta: np.ndarray
    grid_step: float
    evaluations: int

    def __post_init__(self):
        self.rates.flags.writeable = self.theta.flags.writeable = False

    @property
    def num_colors(self) -> int:
        return self.rates.shape[1]

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
    one per root c; ``len(r)`` where c <= 0 or x* > r[-1]."""
    return np.searchsorted(r, np.divide(1.0, c, out=np.full(len(c), np.inf), where=c > 0.0))


def _entries(base: np.ndarray, cols: Sequence[int], r: Sequence) -> list[list]:
    """Rows of I - base diag(R) on columns ``cols`` for ``_eliminate``, with
    R of column cols[k] in r[k] (one vector over the stack); an off-diagonal
    0 of ``base`` is the scalar 0.0."""
    return [[float(i == j) - base[i, j] * rj if i == j or base[i, j] else 0.0
             for j, rj in zip(cols, r)] for i in range(len(base))]


def _block_root(e: list[list]) -> np.ndarray:
    """rho(K) of K = I - E >= 0 for a k x k block E held entry by entry, k <= 2:
    (a+b)/2 + sqrt(((a-b)/2)^2 + cd) for K = [[a, c], [d, b]]."""
    if len(e) == 1:
        return 1.0 - e[0][0]
    mid, half = 1.0 - 0.5 * (e[0][0] + e[1][1]), 0.5 * (e[1][1] - e[0][0])
    return mid + np.sqrt(half * half + e[0][1] * e[1][0])


def _frontier_search(
    base: np.ndarray,
    type_color: Sequence[int],
    tau: int,
    grid_step: float,
    groups: tuple[tuple[int, ...], ...],
    refine_tol: Optional[float],
) -> FrontierSet:
    """Monotone grid search for the Pareto-minimal epidemic tuples of
    J(R) = base diag(R[type_color]), whose T types are ordered by color.

    Every grid point of the leading group axes (a prefix) spans a line along
    the last group, which must be the last color g alone, on the last k <= 2
    types. ``_epidemic`` is monotone in every rate, so a line crosses at most
    once, at the least epidemic grid index (``size`` if none). Only the k
    columns of I - J move along a line, so its first p = T - k pivots are
    eliminated once (a line whose first pivot is <= 0 is dropped before its
    other entries are built); one <= 0 makes it cross at index 0. Otherwise
    the eliminated k x k block is I - x K in x = R_g, whose pivots stay > 0
    exactly while x rho(K) < 1: the block at x = 1 gives K, and the least
    grid R >= 1/rho(K) the candidate. Each candidate is confirmed with
    ``_epidemic``'s arithmetic (epidemic at its index, not one below) and
    stepped where rounding disagrees, until none steps. A ``refine_tol``
    bisects each kept line with the same test on its eliminated pivots, down
    to that width or to float resolution, and the thetas are the Perron roots
    of J at each line's R. ``evaluations`` counts the roots rho(K), the
    confirming tests, each ``refine_tol`` round's tests and the thetas. The
    rate grid is never held whole. Raises ValueError for an entry of
    ``base`` above ``ENTRY_BOUND``; every Jacobian of the search is at most
    ``base``.
    """
    _check_entries(base)
    type_color = np.asarray(type_color)
    num_types, num_colors = len(type_color), int(type_color[-1]) + 1
    p = int(np.count_nonzero(type_color < num_colors - 1))
    vals = np.asarray(_grid_values(grid_step))
    size = len(vals)
    shape = (size,) * (len(groups) - 1)
    lines = np.indices(shape).reshape(len(shape), math.prod(shape)).T
    r = _transmissibilities(vals, tau)
    t = np.ones((num_colors, len(lines)))  # each line's R, with R_g = 1
    for axis, colors in enumerate(groups[:-1]):
        t[list(colors)] = r[lines[:, axis]]
    live = np.arange(len(lines))
    if p:
        live = live[1.0 - base[0, 0] * t[type_color[0]] > 0.0]
    a = _entries(base, range(num_types), t[:, live][type_color])
    a, live = _eliminate(a, range(p), range(num_types), live)
    at = _candidates(r, _block_root([row[p:] for row in a[p:]]))
    evaluations = len(live)

    def epidemic_at(pos: np.ndarray, x: np.ndarray) -> np.ndarray:
        # the live lines at positions pos, with the last k columns at R_g = x
        nonlocal evaluations
        evaluations += len(pos)
        moving = _entries(base, range(p, num_types), [x] * (num_types - p))
        m = [[v[pos] if isinstance(v, np.ndarray) else v for v in row[:p]] + moving[i]
             for i, row in enumerate(a)]
        _, kept = _eliminate(m, range(num_types), range(p, num_types), np.arange(len(pos)))
        return np.bincount(kept, minlength=len(pos)) == 0

    pending = np.arange(len(live))
    while pending.size:
        i = at[pending]
        idx = np.r_[np.minimum(i, size - 1), np.maximum(i - 1, 0)]
        epidemic = epidemic_at(np.r_[pending, pending], r[idx])
        up, down = epidemic[:len(i)] | (i == size), epidemic[len(i):] & (i > 0)
        step = (~up).astype(int) - (up & down)
        at[pending] += step
        pending = pending[step != 0]
    hi = np.zeros(len(lines), dtype=int)
    hi[live] = at

    crossing = np.append(vals, np.inf)[hi]
    rows = np.flatnonzero(_undominated(crossing.reshape(shape), 0.0))
    last = crossing[rows]
    if refine_tol:
        # a line crossing at index 0 has below == last and is never bisected,
        # so every bisected row is live; one whose midpoint rounds to an end
        # has reached float resolution and ends
        pos, below = np.searchsorted(live, rows), vals[np.maximum(hi[rows] - 1, 0)]
        mid = 0.5 * (below + last)
        while (pending := np.flatnonzero((last - below > refine_tol) & (below < mid)
                                         & (mid < last))).size:
            up = epidemic_at(pos[pending], _transmissibilities(mid[pending], tau))
            last[pending[up]] = mid[pending[up]]
            below[pending[~up]] = mid[pending[~up]]
            mid = 0.5 * (below + last)
        crossing = np.full(len(lines), np.inf)
        crossing[rows] = last
        keep = _undominated(crossing.reshape(shape), refine_tol).ravel()[rows]
        rows, last = rows[keep], last[keep]

    r_rows = t[:, rows].T  # each kept line's R, with R_g at its crossing
    r_rows[:, -1] = _transmissibilities(last, tau)
    theta = perron_roots(base * r_rows[:, None, type_color])
    evaluations += len(rows)
    rates = _rates_at(lines[rows], last, groups, vals, num_colors)
    order = np.lexsort(rates.T[::-1])
    return FrontierSet(
        rates=rates[order],
        theta=theta[order],
        grid_step=grid_step,
        evaluations=evaluations,
    )


def frontier(
    table: DegreeTable,
    tau: int,
    grid_step: float = 0.01,
    *,
    tie_intra: bool = False,
    refine_tol: Optional[float] = None,
) -> FrontierSet:
    """Multidimensional epidemic threshold of a degree table, any layer count.

    ``tie_intra`` searches with all intra-layer rates equal (the usual
    beta / alpha convention), which reduces the grid dimension by one;
    the returned tuples are always full length. A positive ``refine_tol``
    bisects each frontier point along the searched axis down to that
    resolution; None or 0 leaves the grid points. Raises DomainError for a
    search of more than ``MAX_GRID_LINES`` lines, or of lines longer than
    that, and EmptyColor for a table without edges.
    """
    if not 0.0 < grid_step <= 0.5:
        raise DomainError("grid step must be in (0, 0.5]")
    if refine_tol is not None and not 0.0 <= refine_tol < math.inf:
        raise DomainError(f"refine_tol must be None or finite and >= 0, got {refine_tol}")
    num_layers, num_colors = table.mean.shape
    groups = _tie_groups(num_colors, num_layers, tie_intra)
    k = int(math.floor(1.0 / grid_step + 1e-9))
    size = k + 1 + (round(k * grid_step, 12) < 1.0 - 1e-12)  # len(_grid_values(grid_step))
    lines = size ** (len(groups) - 1)
    if max(lines, size) > MAX_GRID_LINES:
        raise DomainError(f"grid step {grid_step} over {len(groups)} searched axes gives "
                          f"{lines} lines of {size} rates, more than {MAX_GRID_LINES}")
    if not table.mean.any():
        raise EmptyColor("no edges on any color")
    return _frontier_search(*_type_base(table), tau, grid_step, groups, refine_tol)


def multi_threshold(table: DegreeTable, layer_sizes: Sequence[int], tau: int,
                    grid_step: float = 0.01, *, tie_intra: bool = False,
                    refine_tol: Optional[float] = None) -> FrontierSet:
    """``frontier`` once ``layer_sizes`` fits the table: the benchmark's call
    shape on ``io.model_moments``'s result, kept until the benchmark calls
    ``frontier`` (ROADMAP item 3)."""
    _check_sizes(table, layer_sizes)
    return frontier(table, tau, grid_step, tie_intra=tie_intra, refine_tol=refine_tol)


def multi_threshold_empirical(g: LayeredGraph, tau: int, grid_step: float = 0.01, *,
                              tie_intra: bool = False,
                              refine_tol: Optional[float] = None) -> FrontierSet:
    """The ``frontier`` of the table measured on a graph (``colored_cross_moments``)."""
    return frontier(colored_cross_moments(g), tau, grid_step, tie_intra=tie_intra,
                    refine_tol=refine_tol)


# ---------------------------------------------------------------------------
# Three-state classification
# ---------------------------------------------------------------------------

def classify_state(table: DegreeTable, rates: Sequence[float], tau: int) -> NetworkState:
    """Infection-free / mixed / epidemic at the given rates.

    Layer h is epidemic when its own percolated branching factor
    R_h E_h[x_h (x_h - 1)] / E_h[x_h] reaches 1, and a layer without edges
    never is; the whole network is when theta does. Epidemic requires both
    for every layer; infection-free requires neither anywhere; everything in
    between is mixed.
    """
    t = Transmissibilities.from_rates(rates, tau)
    whole = _epidemic(jacobian_from_cross_moments(table, t)[None])[0]
    mean, second = table.mean, table.second
    layer_epi = [bool(mean[h, h]) and t.values[h] * (second[h, h, h] / mean[h, h]) >= 1.0
                 for h in range(len(mean))]
    if whole and all(layer_epi):
        return NetworkState.EPIDEMIC
    if not whole and not any(layer_epi):
        return NetworkState.INFECTION_FREE
    return NetworkState.MIXED
