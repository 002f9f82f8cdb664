"""One-dimensional k-means for weight clustering, batched over many rows.

Deep-Compression-style weight clustering only ever clusters scalar weight
values, so a dedicated 1-D Lloyd's algorithm with k-means++ seeding is both
simpler and faster than a general implementation. Cluster counts in printed
MLPs are tiny (2–16), which keeps everything exact and deterministic.

Per-input-position clustering runs k-means on hundreds of short rows per
search generation, so the one implementation here, :func:`kmeans_rows`,
clusters many rows as one padded Lloyd program: a k per row, and rows leave
the program as they converge. :func:`kmeans_1d` is its one-row case. Each
row's result is byte-identical to clustering that row alone, which fixes
how every floating-point reduction is computed:

* numpy reduces a contiguous run of fewer than 8 values with a plain loop
  from 0.0 — what ``np.bincount`` does per bin — and 8 or more values with
  an unrolled pairwise sum. :func:`group_sums` reproduces
  ``np.add.reduce(members)`` per group: one bincount, then an exact-length
  pairwise reduction for the groups of 8 or more;
* ``cumsum``, ``argmin`` and element-wise ops give each padded row exactly
  what they give the row alone;
* ``argsort`` is not stable for ties on every CPU, so the final centroid
  sort runs per bucket of rows with the same k.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

_INITS = ("kmeans++", "linear", "quantile")

#: numpy's ``add.reduce`` switches from a plain loop to a pairwise sum here.
_PAIRWISE_MIN = 8


@dataclass(frozen=True)
class KMeansResult:
    """Result of a 1-D k-means run.

    Attributes:
        centroids: sorted cluster centres, shape ``(k,)``.
        assignments: index of the centroid assigned to each input value.
        inertia: sum of squared distances to the assigned centroids.
        n_iterations: Lloyd iterations executed.
    """

    centroids: np.ndarray
    assignments: np.ndarray
    inertia: float
    n_iterations: int


@dataclass(frozen=True)
class RowsKMeansResult:
    """Result of :func:`kmeans_rows`: one k-means solution per row.

    Attributes:
        centroids: ``(R, k_max)`` sorted centroids; row ``r`` uses the first
            ``n_centroids[r]`` columns, the rest hold ``+inf``.
        n_centroids: clusters per row (the budget clipped to the row's
            distinct-value count).
        assignments: flat centroid index per input value, same layout as
            the input values.
        offsets: ``(R + 1,)`` start of each row in the flat layout.
        inertia: per-row sum of squared distances.
        n_iterations: per-row Lloyd iterations executed.
    """

    centroids: np.ndarray
    n_centroids: np.ndarray
    assignments: np.ndarray
    offsets: np.ndarray
    inertia: np.ndarray
    n_iterations: np.ndarray

    def row(self, index: int) -> KMeansResult:
        """Row ``index`` as a stand-alone :class:`KMeansResult`."""
        start, stop = self.offsets[index], self.offsets[index + 1]
        return KMeansResult(
            centroids=self.centroids[index, : self.n_centroids[index]].copy(),
            assignments=self.assignments[start:stop].copy(),
            inertia=float(self.inertia[index]),
            n_iterations=int(self.n_iterations[index]),
        )


def group_sums(
    values: np.ndarray, groups: np.ndarray, n_groups: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``np.add.reduce(values[groups == g])`` for every group, bit for bit.

    Members are summed in their order in ``values``. Returns ``(sums,
    counts)``, each of length ``n_groups``.
    """
    counts = np.bincount(groups, minlength=n_groups)
    sums = np.bincount(groups, weights=values, minlength=n_groups)
    large = np.flatnonzero(counts >= _PAIRWISE_MIN)
    if large.size:
        order = np.argsort(groups, kind="stable")
        starts = np.cumsum(counts) - counts
        for size in np.unique(counts[large]):
            chosen = large[counts[large] == size]
            members = order[starts[chosen, None] + np.arange(size)]
            sums[chosen] = np.add.reduce(values[members], axis=1)
    return sums, counts


def _nearest(values: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Index of the nearest centroid (first on ties) for each padded value."""
    return np.argmin(np.abs(values[:, :, None] - centroids[:, None, :]), axis=2)


def _kmeans_plus_plus(
    padded: np.ndarray,
    valid: np.ndarray,
    lengths: np.ndarray,
    k: np.ndarray,
    seeds: Sequence[Optional[int]],
    rows: np.ndarray,
    centroids: np.ndarray,
) -> None:
    """k-means++ seeding of ``rows``, written into ``centroids``.

    Each row seeds from a fresh ``default_rng(seed)``: one ``integers(n)``
    for the first centroid, then one ``random()`` per further centroid,
    since ``Generator.choice(n, p=p)`` is ``searchsorted(cdf / cdf[-1],
    random(), side="right")`` over ``cdf = p.cumsum()``. Those draws depend
    only on ``(seed, n)``, so they are taken once per distinct pair — from
    one generator per seed, reset to its seeded state for each ``n`` (an
    unseeded row gets its own generator) — and the seeding of all rows runs
    as array operations.
    """
    n_steps = centroids.shape[1] - 1
    pairs: Dict[tuple, int] = {}
    pair_of_row = np.array([
        pairs.setdefault(
            (seeds[r], int(lengths[r])) if seeds[r] is not None else (None, int(lengths[r]), r),
            len(pairs),
        )
        for r in rows.tolist()
    ])
    first = np.empty(len(pairs), dtype=np.int64)
    uniforms = np.empty((len(pairs), n_steps))
    seeded: Dict[object, tuple] = {}  # seed -> (generator, its initial state)
    for (seed, n, *_), index in pairs.items():
        if seed is None:
            rng = np.random.default_rng()
        elif seed in seeded:
            rng, state = seeded[seed]
            rng.bit_generator.state = state
        else:
            rng = np.random.default_rng(seed)
            seeded[seed] = (rng, rng.bit_generator.state)
        first[index] = rng.integers(n)
        uniforms[index] = rng.random(n_steps)
    first, uniforms = first[pair_of_row], uniforms[pair_of_row]

    values = padded[rows]
    real = valid[rows]
    last = lengths[rows] - 1
    budget = k[rows]
    chosen = values[np.arange(rows.size), first]
    centroids[rows, 0] = chosen
    distances = np.where(real, np.abs(values - chosen[:, None]), 0.0)
    live = np.arange(rows.size)
    for step in range(1, n_steps + 1):
        live = live[budget[live] > step]
        if not live.size:
            break
        squared = distances[live] ** 2
        in_row = real[live]
        total, _ = group_sums(squared[in_row], np.nonzero(in_row)[0], live.size)
        degenerate = total == 0.0
        if degenerate.any():
            # Every value already sits on a centroid: the rest repeat the first.
            for r in rows[live[degenerate]].tolist():
                centroids[r, step : k[r]] = centroids[r, 0]
            live, squared, total = live[~degenerate], squared[~degenerate], total[~degenerate]
            if not live.size:
                break
        cdf = np.cumsum(squared / total[:, None], axis=1)
        cdf /= cdf[np.arange(live.size), last[live]][:, None]
        pick = np.count_nonzero(cdf <= uniforms[live, step - 1][:, None], axis=1)
        chosen = values[live, pick]
        centroids[rows[live], step] = chosen
        distances[live] = np.where(
            real[live],
            np.minimum(distances[live], np.abs(values[live] - chosen[:, None])),
            0.0,
        )


def kmeans_rows(
    values: np.ndarray,
    lengths: Sequence[int],
    n_clusters: Union[int, Sequence[int]],
    seeds: Union[Optional[int], Sequence[Optional[int]]] = None,
    max_iterations: int = 100,
    tolerance: float = 1e-9,
    init: str = "kmeans++",
) -> RowsKMeansResult:
    """Cluster many rows of scalar values at once with Lloyd's algorithm.

    Args:
        values: the rows' values concatenated, row after row.
        lengths: number of values in each row (each at least 1).
        n_clusters: cluster budget, one for all rows or one per row; clipped
            per row to its number of distinct values (a row with at most
            that many distinct values keeps them as its exact codebook).
        seeds: k-means++ seed, one for all rows or one per row.
        max_iterations: Lloyd iteration cap.
        tolerance: a row stops once no centroid moves by this much.
        init: ``"kmeans++"`` (default), ``"linear"`` (evenly spaced over the
            value range — the Deep Compression initialization), or
            ``"quantile"`` (evenly spaced quantiles).

    Every row's result equals clustering that row alone, byte for byte.
    """
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    lengths = np.asarray(lengths, dtype=np.int64).reshape(-1)
    n_rows = lengths.size
    budgets = np.broadcast_to(np.asarray(n_clusters, dtype=np.int64), (n_rows,))
    if seeds is None or isinstance(seeds, (int, np.integer)):
        seeds = [seeds] * n_rows
    if n_rows == 0 or np.any(lengths < 1) or int(lengths.sum()) != values.size:
        raise ValueError("Cannot cluster an empty array")
    if np.any(budgets < 1):
        raise ValueError(f"n_clusters must be >= 1, got {int(budgets.min())}")
    if init not in _INITS:
        raise ValueError(f"Unknown init '{init}'")
    if len(seeds) != n_rows:
        raise ValueError(f"Got {len(seeds)} seeds for {n_rows} rows")

    offsets = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    row_of = np.repeat(np.arange(n_rows), lengths)
    width = int(lengths.max())
    valid = np.arange(width) < lengths[:, None]
    padded = np.zeros((n_rows, width))
    padded[valid] = values

    # Distinct values per row (sorted, +inf past the row's end).
    ordered = np.sort(np.where(valid, padded, np.inf), axis=1)
    fresh = valid.copy()
    fresh[:, 1:] &= ordered[:, 1:] != ordered[:, :-1]
    n_distinct = fresh.sum(axis=1)
    k = np.minimum(budgets, n_distinct)
    k_width = int(k.max())
    centroids = np.full((n_rows, k_width), np.inf)
    exact = k == n_distinct
    rows, columns = np.nonzero(fresh & exact[:, None])
    centroids[rows, (np.cumsum(fresh, axis=1) - 1)[rows, columns]] = ordered[rows, columns]
    # ``np.unique`` keeps one of the zeros of a row holding both signs;
    # which one is its own business, so rows with a zero ask it.
    for r in np.flatnonzero(exact & np.any(valid & (padded == 0.0), axis=1)).tolist():
        centroids[r, : k[r]] = np.unique(padded[r, : lengths[r]])

    seeded = np.flatnonzero(~exact)
    if seeded.size and init == "kmeans++":
        _kmeans_plus_plus(padded, valid, lengths, k, seeds, seeded, centroids)
    else:
        for r in seeded.tolist():
            row = padded[r, : lengths[r]]
            if init == "linear":
                centroids[r, : k[r]] = np.linspace(row.min(), row.max(), k[r])
            else:
                centroids[r, : k[r]] = np.quantile(row, np.linspace(0.0, 1.0, k[r]))

    # Lloyd iterations; rows leave ``live`` once their centroids stop moving.
    in_k = np.arange(k_width) < k[:, None]
    assignments = _nearest(padded, centroids)
    iterations = np.zeros(n_rows, dtype=np.int64)
    live = np.arange(n_rows)
    for iteration in range(1, max_iterations + 1):
        if not live.size:
            break
        row_values, real, current = padded[live], valid[live], centroids[live]
        cluster_ids = np.arange(live.size)[:, None] * k_width + assignments[live]
        sums, counts = group_sums(row_values[real], cluster_ids[real], live.size * k_width)
        sums = sums.reshape(live.size, k_width)
        counts = counts.reshape(live.size, k_width)
        updated = np.where(counts > 0, sums / np.maximum(counts, 1), current)
        movement = np.abs(
            np.subtract(updated, current, out=np.zeros_like(current), where=in_k[live])
        ).max(axis=1)
        centroids[live] = updated
        assignments[live] = _nearest(row_values, updated)
        iterations[live] = iteration
        live = live[~(movement < tolerance)]

    # Sort each row's centroids and remap its assignments.
    order = np.broadcast_to(np.arange(k_width), (n_rows, k_width)).copy()
    for size in np.unique(k).tolist():
        chosen = np.flatnonzero(k == size)
        order[chosen, :size] = np.argsort(centroids[chosen, :size], axis=1)
    centroids = np.take_along_axis(centroids, order, axis=1)
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.arange(k_width), axis=1)
    flat_assignments = np.take_along_axis(rank, assignments, axis=1)[valid]

    residual = values - centroids[row_of, flat_assignments]
    inertia, _ = group_sums(residual**2, row_of, n_rows)
    return RowsKMeansResult(
        centroids=centroids,
        n_centroids=k,
        assignments=flat_assignments,
        offsets=offsets,
        inertia=inertia,
        n_iterations=iterations,
    )


def kmeans_1d(
    values: np.ndarray,
    n_clusters: int,
    max_iterations: int = 100,
    tolerance: float = 1e-9,
    seed: Optional[int] = None,
    init: str = "kmeans++",
) -> KMeansResult:
    """Cluster scalar values into ``n_clusters`` groups with Lloyd's algorithm.

    The one-row case of :func:`kmeans_rows`.

    Args:
        values: 1-D array of values to cluster.
        n_clusters: number of clusters; clipped to the number of distinct
            values (extra clusters would stay empty).
        max_iterations: Lloyd iteration cap.
        tolerance: convergence threshold on centroid movement.
        seed: RNG seed for the initialization.
        init: ``"kmeans++"`` (default), ``"linear"`` or ``"quantile"``.

    Returns:
        A :class:`KMeansResult` with centroids sorted ascending and
        assignments remapped accordingly.
    """
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    return kmeans_rows(
        values, [values.size], [n_clusters], [seed], max_iterations, tolerance, init
    ).row(0)


def cluster_and_replace(
    values: np.ndarray,
    n_clusters: int,
    seed: Optional[int] = None,
    init: str = "kmeans++",
) -> Tuple[np.ndarray, KMeansResult]:
    """Cluster ``values`` and return them with each value replaced by its centroid."""
    original_shape = np.asarray(values).shape
    result = kmeans_1d(np.asarray(values).reshape(-1), n_clusters, seed=seed, init=init)
    replaced = result.centroids[result.assignments].reshape(original_shape)
    return replaced, result
