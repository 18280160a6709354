"""Output checks, run outside the timed region.

Each check returns a list of problem strings; an empty list means it passed.
The references here share no code with the package beyond reading a graph's
arrays and building Jacobians: reachability and components come from
``scipy.sparse.csgraph`` and Perron roots from ``np.linalg.eigvals``.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components

# Sweep cell means may differ from the reference by Z_LIMIT standard errors
# plus SLACK_FRAC of the node count before the check fails.
Z_LIMIT = 5.0
SLACK_FRAC = 0.01
# A final size of at least MAJOR_FRAC * n counts as a major outbreak.
MAJOR_FRAC = 0.01
# Reference realizations per sweep cell (more for a cell that fails the first
# test), drawn in blocks to bound memory.
REF_REALIZATIONS = 100
REF_EXTENDED = 500
REF_BLOCK = 25
# Theta comparisons against 1 allow for the package's power-iteration tolerance.
THETA_EPS = 1e-8


def gcc_size(g) -> int:
    """Largest connected component of the whole graph, by scipy."""
    adj = coo_matrix(
        (np.ones(g.num_edges), (g.edges_u, g.edges_v)), shape=(g.n, g.n)
    ).tocsr()
    _, labels = connected_components(adj, directed=False)
    return int(np.bincount(labels).max())


def _seed_nodes(g, per_layer, rng, count: int) -> np.ndarray:
    """(count, seeds) flat ids: per_layer[l] distinct uniform nodes inside layer l."""
    blocks = []
    for layer, k in enumerate(per_layer):
        if k:
            lo, size = int(g.offsets[layer]), g.layer_sizes[layer]
            picks = [rng.choice(size, size=k, replace=False) for _ in range(count)]
            blocks.append(np.array(picks) + lo)
    return np.concatenate(blocks, axis=1)


def percolation_final_sizes(g, rates, tau: int, per_layer, realizations: int, rng) -> np.ndarray:
    """Ever-infected counts of fixed-period SIR sampled as directed bond percolation.

    With an infectious period of exactly tau steps, the directed edge u->v
    transmits with probability 1 - (1 - rate)^tau, independently of every
    other directed edge, and the ever-infected set is what the seeds reach
    through transmitting edges. Realizations are stacked as disjoint copies
    of the graph under one super-source that points at every copy's seeds.
    """
    indptr, adj, adj_color = g.adjacency()
    n = g.n
    src = np.repeat(np.arange(n), np.diff(indptr))
    keep_p = 1.0 - (1.0 - np.asarray(rates, dtype=float)) ** tau
    p_edge = keep_p[adj_color]
    live = p_edge > 0
    src, dst, p_edge = src[live], adj[live], p_edge[live]
    sizes = []
    for start in range(0, realizations, REF_BLOCK):
        k = min(REF_BLOCK, realizations - start)
        fire = rng.random((k, len(p_edge))) < p_edge
        copy, pos = np.nonzero(fire)  # copy-major, so the rows below come sorted
        seeds = _seed_nodes(g, per_layer, rng, k)
        root = k * n
        counts = np.bincount(copy * n + src[pos], minlength=root + 1)
        counts[root] = seeds.size
        indptr = np.concatenate(([0], np.cumsum(counts)))
        indices = np.concatenate([copy * n + dst[pos], (np.arange(k)[:, None] * n + seeds).ravel()])
        graph = csr_matrix((np.ones(len(indices)), indices, indptr), shape=(root + 1, root + 1))
        reached = breadth_first_order(graph, root, directed=True, return_predecessors=False)
        sizes.append(np.bincount(reached[reached != root] // n, minlength=k))
    return np.concatenate(sizes)


def _difference(ref: np.ndarray, sim_mean: float, n_sim: int, n: int) -> tuple[float, float]:
    """Sweep mean minus reference mean, and the standard error of that difference.

    Final sizes are bimodal: minor outbreaks near the seed count and major
    ones near the giant component. A class that is rare in a cell may be
    missing from the reference, which would make its sample variance far
    too small, so the variance used is at least that of a two-class mixture
    whose major-outbreak probability is the add-one (Laplace) estimate
    (k + 1) / (m + 2), with an unobserved class placed at its boundary.
    """
    major = ref >= MAJOR_FRAC * n
    k, m = int(major.sum()), len(ref)
    q = (k + 1) / (m + 2)
    hi = float(ref[major].mean()) if k else MAJOR_FRAC * n
    lo = float(ref[~major].mean()) if k < m else 0.0
    var = max(float(ref.var(ddof=1)), q * (1.0 - q) * (hi - lo) ** 2)
    return sim_mean - float(ref.mean()), float(np.sqrt(var * (1.0 / n_sim + 1.0 / m)))


def check_sweep(g, betas, alphas, tau, per_layer, density_whole, n_sim: int, rng) -> list[str]:
    """Compare each cell's mean final size with the percolation reference.

    The sweep reports mean ever-infected count / gcc size; multiplying back by
    an independently computed gcc size gives the sweep's mean final size.
    Under the null hypothesis both means estimate the same expectation.
    Two tests are made, each at Z_LIMIT standard errors:

    - per cell, on the difference plus a slack of SLACK_FRAC * n; a cell that
      fails against REF_REALIZATIONS reference draws is tested once more
      against REF_EXTENDED draws, which resolves rare outbreak classes the
      first sample missed;
    - over all cells, on the sum of the cells' z-scores divided by the root
      of their number (Stouffer), which catches a shift that is small in
      each cell but shared by all, such as a wrong transmissibility.

    Cells use independent random streams, so under the normal approximation
    each test has a false-alarm rate of at most 2 * Phi(-5) = 5.7e-7, and a
    run of twelve cells at most 8e-6.
    """
    problems = []
    gcc = gcc_size(g)
    z_scores = []
    for i, beta in enumerate(betas):
        for j, alpha in enumerate(alphas):
            rates = (beta, beta, alpha)
            sim_mean = float(density_whole[i, j]) * gcc
            ref = percolation_final_sizes(g, rates, tau, per_layer, REF_REALIZATIONS, rng)
            diff, se = _difference(ref, sim_mean, n_sim, g.n)
            if abs(diff) > Z_LIMIT * se + SLACK_FRAC * g.n:
                more = percolation_final_sizes(
                    g, rates, tau, per_layer, REF_EXTENDED - REF_REALIZATIONS, rng
                )
                ref = np.concatenate([ref, more])
                diff, se = _difference(ref, sim_mean, n_sim, g.n)
                if abs(diff) > Z_LIMIT * se + SLACK_FRAC * g.n:
                    problems.append(
                        f"sweep cell beta={beta} alpha={alpha}: mean final size "
                        f"{sim_mean:.1f} vs percolation {ref.mean():.1f} over {len(ref)} draws"
                    )
            z_scores.append(diff / se)
    combined = sum(z_scores) / np.sqrt(len(z_scores))
    if abs(combined) > Z_LIMIT:
        problems.append(f"sweep cells jointly off the percolation reference: combined z = {combined:.2f}")
    return problems


def perron_roots(jacobians: np.ndarray) -> np.ndarray:
    return np.abs(np.linalg.eigvals(jacobians)).max(axis=-1)


def check_frontier(frontier, jacobian_at, grid_step: float) -> list[str]:
    """Every point epidemic, one grid step below on the searched (last) axis
    not, and no point dominating another.

    ``jacobian_at(rates)`` builds the package's Jacobian at a rate tuple;
    theta is recomputed from it with ``np.linalg.eigvals``.
    """
    if not len(frontier):
        return ["frontier is empty"]
    pts = np.asarray(frontier.points, dtype=float)
    problems = []
    theta = perron_roots(np.stack([jacobian_at(tuple(p)) for p in pts]))
    bad = np.flatnonzero(theta < 1.0 - THETA_EPS)
    if bad.size:
        problems.append(f"{bad.size} frontier points with theta < 1, e.g. {tuple(pts[bad[0]])}")
    below = pts.copy()
    below[:, -1] = np.round(below[:, -1] - grid_step, 12)
    has_below = below[:, -1] >= 0.0
    if has_below.any():
        theta_below = perron_roots(
            np.stack([jacobian_at(tuple(p)) for p in below[has_below]])
        )
        bad = np.flatnonzero(theta_below >= 1.0 + THETA_EPS)
        if bad.size:
            problems.append(f"{bad.size} frontier points still epidemic one step below")
    for start in range(0, len(pts), 512):
        chunk = pts[start:start + 512]
        le = (chunk[:, None, :] <= pts[None, :, :]).all(axis=2)
        lt = (chunk[:, None, :] < pts[None, :, :]).any(axis=2)
        if (le & lt).any():
            problems.append("frontier is not an antichain")
            break
    return problems


def check_dynamics(result, tau: int) -> list[str]:
    """Cumulative curves never decrease, infected counts are never negative,
    and the last cumulative row equals the mean ever-infected count.

    Without a step cap every infected node is counted as currently infected
    in exactly tau rows, so the mean ever-infected count per column is the
    column sum of the infected curve divided by tau.
    """
    problems = []
    for (beta, alpha), infected, cumulative in zip(
        result.settings, result.infected, result.cumulative
    ):
        tag = f"dynamics beta={beta} alpha={alpha}"
        if (np.diff(cumulative, axis=0) < 0).any():
            problems.append(f"{tag}: cumulative curve decreases")
        if (infected < 0).any():
            problems.append(f"{tag}: negative infected count")
        ever = infected.sum(axis=0) / tau
        if not np.allclose(cumulative[-1], ever, rtol=1e-9, atol=1e-9):
            problems.append(f"{tag}: last cumulative row {cumulative[-1]} != {ever}")
    return problems


def digest_dir(path) -> dict[str, str]:
    """sha256 of every file in a directory, by file name."""
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out
