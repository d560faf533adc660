"""Epsilon-entropy of finite metric-measure spaces and scaling analysis.

The epsilon-entropy of (X, rho, mu) is the least Shannon entropy among
discrete measures lying within Kantorovich distance epsilon of mu.  On a
finite space the infimum runs over weight vectors on the atoms; it is not
computed exactly here but bracketed:

* upper bound: the least entropy among certified candidate quantizations:
  Voronoi rungs of farthest-point nets, certified by their own cost; greedy
  mass merges, by the cost of their map, else by the support floor, else by
  an exact transport solve; and the identity, H(mu) <= log2(#atoms);
* lower bound: for a family of cell partitions, any feasible quantization has
  cell marginals within total variation eps / (inter-cell gap) of mu's, and
  entropy continuity turns that into a certified floor.

The strict feasibility constraint `cost < eps` is realized as
`cost <= eps - 1e-12`: open conditions are unverifiable in floating point.

Scaling analysis lives here too: evaluating entropy tables against scaling
families, fitting growth exponents on log-log grids, and classifying
exponential versus subexponential growth.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DomainError, InsufficientDataError, SizeCapError, StructuralError
from .mmspace import DiscreteMeasure, SemimetricMatrix, _entropy_bits, validate_semimetric
from .transport import kantorovich

STRICT_MARGIN = 1e-12
ORACLE_ATOM_CAP = 5
ORACLE_GRID_STEP = 1e-3
# (radius, step) of the oracle's refinement stages, coarse to fine
_REFINE_STAGES = ((4e-2, 8e-3), (8e-3, 1.6e-3), (3e-3, ORACLE_GRID_STEP))
# a k-value chunk holds at most _KVALUE_BUDGET products, which bounds its
# temporary at 512 KiB
_KVALUE_BUDGET = 1 << 16


def binary_entropy(t: float) -> float:
    if t <= 0.0 or t >= 1.0:
        return 0.0
    return float(-t * math.log2(t) - (1 - t) * math.log2(1 - t))


# ---------------------------------------------------------------------------
# Bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EntropyBounds:
    lower: float
    upper: float
    epsilon: float
    clamped: bool = False  # True when the raw lower bound exceeded the upper

    def contains(self, value: float, slack: float = 0.0) -> bool:
        return self.lower - slack <= value <= self.upper + slack


def _cell_masses(cells: np.ndarray, w: np.ndarray, n_cells: int) -> np.ndarray:
    # accumulate each cell in (cell, weight) order so the per-cell sums do not
    # depend on how the atoms happen to be indexed
    order = np.lexsort((w, cells))
    return np.bincount(cells[order], weights=w[order], minlength=n_cells)


def epsilon_entropy_bounds(
    d: SemimetricMatrix,
    mu: DiscreteMeasure,
    epsilon: float,
) -> EntropyBounds:
    """Certified (lower, upper) bracket in bits for the epsilon-entropy.

    Both bounds read one family of cell partitions, built once per call: the
    farthest-point Voronoi ladder, whose k-th rung sends each atom to its
    nearest of the first k centers.  The upper bound tries every rung but the
    last as a quantization, next to greedy mass merging; the lower bound
    maximizes the continuity floor over the zero-distance classes and
    rungs 2..48.  That family does not depend on epsilon and each floor is
    nonincreasing in epsilon, so the reported bounds are monotone on epsilon
    grids.  A rung is certified by its own cost, which is also a floor on
    its transport cost.  A greedy merge passes when the cost of its map is
    within budget and fails when its floor (each atom moved to its nearest
    atom of the support) is not; only in between does an exact transport
    solve decide.  The identity quantization always passes.
    """
    if not epsilon > 0:
        raise DomainError("epsilon must be positive")
    if d.size != mu.size:
        raise StructuralError("semimetric and measure sizes differ")
    ladder = _voronoi_ladder(d.d, mu.w)
    upper = _upper_bound(d, mu, epsilon - STRICT_MARGIN, ladder[:-1])
    lower = _lower_bound(d.d, mu.w, epsilon, ladder[1:48])
    clamped = lower > upper
    if clamped:
        lower = upper
    return EntropyBounds(lower=lower, upper=upper, epsilon=epsilon, clamped=clamped)


def _voronoi_ladder(dd, w) -> list[np.ndarray]:
    """Each atom's nearest center among the first k farthest-point centers,
    for k = 1 up to the number of live (positive-weight) atoms.

    The centers are the heaviest live atom, then each time the live atom
    farthest from the centers so far, ties going to the heavier atom and
    then the lower index.  A new center takes only the atoms it is strictly
    closer to, so a tie keeps the earlier center.
    """
    live = np.flatnonzero(w > 0)
    first = live[int(np.argmax(w[live]))]
    nearest = np.full(len(w), first)
    dist_to_set = dd[first]
    remaining = set(live.tolist()) - {int(first)}
    ladder = [nearest]
    while remaining:
        idx = max(remaining, key=lambda i: (dist_to_set[i], w[i], -i))
        remaining.discard(idx)
        nearest = np.where(dd[idx] < dist_to_set, idx, nearest)
        dist_to_set = np.minimum(dist_to_set, dd[idx])
        ladder.append(nearest)
    return ladder


def _upper_bound(d, mu, budget, partitions) -> float:
    dd, w = d.d, mu.w
    n = len(w)
    best = _entropy_bits(w)  # identity quantization is always feasible

    # single atoms: transporting everything to z costs exactly sum_i w_i d(z, i)
    single_costs = np.sum(np.sort(dd[:, w > 0] * w[w > 0], axis=1), axis=1)
    if np.min(single_costs) <= budget:
        return 0.0

    # greedy merging: absorb the cheapest support atom into a neighbor, summing push costs
    assignment = np.arange(n)
    weights = w.copy()
    spent = 0.0
    borderline: list[np.ndarray] = []
    while len(borderline) < 8:
        support = np.flatnonzero(weights > 0)
        if support.size <= 1:
            break
        sub = dd[np.ix_(support, support)].copy()
        np.fill_diagonal(sub, np.inf)
        move_cost = weights[support, None] * sub
        src, dst = np.unravel_index(int(np.argmin(move_cost)), move_cost.shape)
        spent += float(move_cost[src, dst])
        src_atom, dst_atom = support[src], support[dst]
        weights[dst_atom] += weights[src_atom]
        weights[src_atom] = 0.0
        assignment[assignment == src_atom] = dst_atom
        if spent <= budget:
            best = min(best, _entropy_bits(weights))
        else:
            borderline.append(assignment.copy())

    # Voronoi rungs; a zero-weight atom adds no cost and no mass to its cell,
    # and each atom goes to its nearest center, so the cost is also the floor
    for cells in partitions:
        if _sorted_sum(w * dd[np.arange(n), cells]) <= budget:
            best = min(best, _entropy_bits(_cell_masses(cells, w, n)))

    # a merge over budget passes by its map's cost, fails by its floor, else by LP
    for cells in borderline:
        lam = _cell_masses(cells, w, n)
        h = _entropy_bits(lam)
        if h < best and (_sorted_sum(w * dd[np.arange(n), cells]) <= budget or (
                _sorted_sum(w * dd[:, lam > 0].min(axis=1)) <= budget
                and kantorovich(DiscreteMeasure(lam), mu, d)[0] <= budget)):
            best = h
    return best


def _sorted_sum(terms: np.ndarray) -> float:
    # sorted accumulation keeps a cost bit-identical under relabelings
    return float(np.sum(np.sort(terms[terms > 0])))


def _lower_bound(dd, w, epsilon, partitions) -> float:
    """Best certified floor over a fixed family of cell partitions.

    For cells with pairwise inter-cell distance gap > 0, a transport of cost
    < eps moves at most eps/gap of mass across cells, so the pushed marginals
    of any feasible quantization are within that total variation of mu's; the
    entropy-continuity inequality |H(p) - H(q)| <= tau log2(K-1) + H2(tau)
    (valid for tau <= 1 - 1/K) then floors H(q).  The family is the
    zero-distance-class partition plus the given Voronoi partitions, all
    independent of epsilon, and each floor is nonincreasing in epsilon (H2 is
    capped at its maximum), so the best floor is too.  A partition whose live
    atoms share one cell gives no floor, so one live atom gives 0.
    """
    live = np.flatnonzero(w > 0)
    best = 0.0
    for cells in [_zero_distance_classes(dd), *partitions]:
        if len(np.unique(cells[live])) <= 1:
            continue
        # the gap ranges over ALL atoms: a quantization may sit mass on
        # zero-measure atoms, and crossing mass still has to travel it; two
        # live cells make the set of crossing pairs nonempty
        gap = float(dd[cells[:, None] != cells[None, :]].min())
        if gap <= 0:
            continue
        # entropy continuity runs over the full cell alphabet, since a
        # quantization may occupy cells that carry no mu-mass
        k_total = len(np.unique(cells))
        tau = epsilon / gap
        if tau > 1 - 1.0 / k_total:
            continue
        masses = _cell_masses(cells[live], w[live], int(cells.max()) + 1)
        h_cells = _entropy_bits(masses)
        penalty = tau * math.log2(max(k_total - 1, 1)) + binary_entropy(min(tau, 0.5))
        best = max(best, h_cells - penalty)
    return max(best, 0.0)


def _zero_distance_classes(dd) -> np.ndarray:
    # the zero diagonal puts each unlabeled atom in the class it opens
    labels = np.full(dd.shape[0], -1)
    for i in range(len(labels)):
        if labels[i] == -1:
            labels[(dd[i] == 0.0) & (labels == -1)] = labels.max() + 1
    return labels


# ---------------------------------------------------------------------------
# Small-instance oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleValue:
    value: float
    grid_error: float


def epsilon_entropy_oracle(
    d: SemimetricMatrix, mu: DiscreteMeasure, epsilon: float
) -> OracleValue:
    """Near-exact epsilon-entropy for spaces of at most 5 atoms.

    Exhausts every support subset with a weight grid (coarse pass plus staged
    refinement to step 1e-3, seeded both at grid minima and at the natural
    merge structures), checking feasibility exactly through the dual vertex
    description of the transport polytope.  A support whose floor (each atom
    moved to its nearest support atom) is over budget holds no feasible
    weights and is skipped.  The reported `grid_error` is the
    entropy-continuity slack of the final grid resolution: how far the true
    infimum plausibly sits below `value`.

    Each grid's rows are read in entropy order (`_Scan`), so k-values are
    computed only up to the first chunk that holds a feasible row.  The
    epsilon-independent work is memoized per process: the weight grid and
    entropy order of each coarse (atoms, support, step), at most 57 grids
    shared by all spaces, and for the most recent space (keyed by the bytes
    of `d.d` and `mu.w`) its dual vertices and every grid it scanned, coarse
    or refinement stage, with the k-values read so far, so a sweep over
    epsilon on one space reads each row once.  Cached arrays are read-only.
    """
    if not epsilon > 0:
        raise DomainError("epsilon must be positive")
    if d.size != mu.size:
        raise StructuralError("semimetric and measure sizes differ")
    n = d.size
    if n > ORACLE_ATOM_CAP:
        raise SizeCapError(f"oracle handles at most {ORACLE_ATOM_CAP} atoms, got {n}")
    report = validate_semimetric(d.d)
    if not report.valid:
        raise StructuralError("oracle requires a true semimetric (triangle inequality)")
    budget = epsilon - STRICT_MARGIN
    w = mu.w
    potentials, scans = _space_memo(d.d.tobytes(), w.tobytes())
    # the slack absorbs rounding in floors and k-values
    floor_budget = budget + 1e-9 * max(1.0, float(d.d.max()))

    def refine_from(combo, seed, best):
        """Staged local search; recenters on the feasible minimum, or walks
        toward feasibility when a stage finds none (thin-sliver geometry)."""
        current = seed
        for radius, step in _REFINE_STAGES:
            key = (combo, current.tobytes(), radius, step)
            if key not in scans:
                scans[key] = _Scan(*_local_refine(n, np.asarray(combo), current, radius, step))
            scan = scans[key]
            idx, feasible = scan.pick(w, potentials, budget)
            if feasible:
                best = min(best, float(scan.entropies[idx]))
            current = scan.lams[idx]
        return best

    best = _entropy_bits(w)
    for combo in _supports(n):
        support = np.asarray(combo)
        # W1(lam, mu) >= this floor for every lam on the support
        if float(w @ d.d[:, support].min(axis=1)) > floor_budget:
            continue
        size = len(combo)
        step = _coarse_step(size)
        if combo not in scans:
            scans[combo] = _Scan(*_simplex_grid(n, combo, step))
        scan = scans[combo]
        idx, feasible = scan.pick(w, potentials, budget)
        seeds = []
        if feasible:
            best = min(best, float(scan.entropies[idx]))
            if size >= 3 and step > ORACLE_GRID_STEP:
                seeds.append(scan.lams[idx])
        if size >= 3:
            # nearest-atom pushforward: the natural merge structure on
            # this support, a seed even when the coarse grid missed the
            # thin feasible region around it
            assign = support[np.argmin(d.d[:, support], axis=1)]
            push = np.zeros(n)
            np.add.at(push, assign, w)
            seeds.append(push)
            if size == n:
                seeds.append(w.copy())
        for seed in seeds:
            best = refine_from(combo, seed, best)
    return OracleValue(value=best, grid_error=_grid_error(n))


def _supports(n: int):
    """Every support subset of n atoms, by size, then lexicographically."""
    return [c for size in range(1, n + 1) for c in itertools.combinations(range(n), size)]


def _kvalues(lams: np.ndarray, w: np.ndarray, potentials: np.ndarray) -> np.ndarray:
    """k(lam, mu) = max over dual vertices u of u . (lam - mu), per row.

    Rows go through in near-equal chunks of at most `_KVALUE_BUDGET` products
    each; no chunk is a single row unless `lams` is, since numpy sends a
    one-row product down a different BLAS routine.
    """
    rows = max(4, _KVALUE_BUDGET // len(potentials))
    parts = np.array_split(lams, max(1, -(-len(lams) // rows)))
    return np.concatenate([((part - w) @ potentials.T).max(axis=1) for part in parts])


class _Scan:
    """One weight grid with its rows in stable entropy order, and the
    k-values read so far along that order (read-only, kept for the next
    epsilon).  The first row along the order with k <= budget is the one
    argmin(where(k <= budget, entropies, inf)) picks.  Reads go in chunks of
    64 rows, then of as many as were read before; no chunk is a single row
    unless the grid is, so each k-value has the whole product's bytes.
    """

    def __init__(self, lams: np.ndarray, entropies: np.ndarray, order: np.ndarray | None = None):
        self.lams, self.entropies = lams, entropies
        self.order = np.argsort(entropies, kind="stable") if order is None else order
        self.kvalues = np.empty(0)
        for array in (lams, entropies, self.order, self.kvalues):
            array.flags.writeable = False

    def pick(self, w: np.ndarray, potentials: np.ndarray, budget: float) -> tuple[int, bool]:
        """(row, True) for the least-entropy row with k <= budget, else
        (the first row of least k, False)."""
        total = len(self.order)
        hits = np.flatnonzero(self.kvalues <= budget)
        while not hits.size and len(self.kvalues) < total:
            start = len(self.kvalues)
            stop = min(total, start + max(64, start))
            if stop == total - 1:
                stop = total
            chunk = _kvalues(self.lams[self.order[start:stop]], w, potentials)
            hits = start + np.flatnonzero(chunk <= budget)
            self.kvalues = np.concatenate([self.kvalues, chunk])
            self.kvalues.flags.writeable = False
        if hits.size:
            return int(self.order[hits[0]]), True
        kv = np.empty(total)
        kv[self.order] = self.kvalues
        return int(np.argmin(kv)), False


@lru_cache(maxsize=1)
def _space_memo(d_key: bytes, w_key: bytes) -> tuple:
    """The read-only dual vertices of the metric whose bytes are `d_key`, and
    an empty dict that the oracle fills with the `_Scan` of every grid it
    reads for the measure whose bytes are `w_key`: a coarse grid under its
    support, a refinement stage under (support, centre bytes, radius, step).
    Neither depends on epsilon."""
    n = len(w_key) // 8
    potentials = _lipschitz_vertices(np.frombuffer(d_key).reshape(n, n))
    potentials.flags.writeable = False
    return potentials, {}


def _coarse_step(size: int) -> float:
    return {1: 1.0, 2: ORACLE_GRID_STEP, 3: 1e-2}.get(size, 2.5e-2)


def _grid_error(n: int) -> float:
    # entropy continuity over the final grid resolution, plus feasibility
    # quantization: tolerance for how far the reported min may overshoot
    tau = ORACLE_GRID_STEP * n
    return tau * math.log2(max(n - 1, 1)) + binary_entropy(min(tau, 0.5)) + 1e-9


@lru_cache(maxsize=None)
def _simplex_grid(n: int, support: tuple, step: float):
    """Stars-and-bars grid of weights at `step` on `support` among n atoms,
    read-only, with each row's entropy and the rows' stable entropy order.
    Row order matters: the oracle refines the first of tied minima."""
    size = len(support)
    if size == 1:
        lams = np.zeros((1, n))
        lams[0, support[0]] = 1.0
        entropies = np.zeros(1)
    else:
        ticks = int(round(1.0 / step))
        # stars and bars in lexicographic order: each next part takes 0..what
        # is left, in turn, and the last part takes the rest
        parts, left = np.zeros((1, 0), dtype=int), np.array([ticks])
        for _ in range(size - 1):
            reps = left + 1
            nxt = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
            parts = np.column_stack([np.repeat(parts, reps, axis=0), nxt])
            left = np.repeat(left, reps) - nxt
        parts = np.column_stack([parts, left])
        lams, entropies = _embed_rows(n, np.asarray(support), parts / ticks)
    order = np.argsort(entropies, kind="stable")
    for array in (lams, entropies, order):
        array.flags.writeable = False
    return lams, entropies, order


@lru_cache(maxsize=None)
def _refine_offsets(size: int, radius: float, step: float) -> np.ndarray:
    """Read-only offsets of the first size - 1 weights, in meshgrid C order."""
    deltas = np.arange(-radius, radius + step / 2, step)
    offsets = np.array(list(itertools.product(deltas, repeat=size - 1)))
    offsets.flags.writeable = False
    return offsets


def _local_refine(n: int, support: np.ndarray, incumbent: np.ndarray, radius: float, step: float):
    weights = incumbent[support][:-1] + _refine_offsets(len(support), radius, step)
    weights = np.concatenate([weights, 1.0 - weights.sum(axis=1, keepdims=True)], axis=1)
    ok = np.all(weights >= -1e-12, axis=1)
    weights = np.clip(weights[ok], 0.0, 1.0)
    weights /= weights.sum(axis=1, keepdims=True)
    return _embed_rows(n, support, weights)


def _embed_rows(n: int, support: np.ndarray, weights: np.ndarray):
    """Each row of `weights` placed on `support` among n atoms, and its entropy in bits."""
    lams = np.zeros((len(weights), n))
    lams[:, support] = weights
    pos = weights > 0
    logs = np.where(pos, np.log2(np.where(pos, weights, 1.0)), 0.0)
    return lams, -np.sum(weights * logs, axis=1)


def _lipschitz_vertices(dd: np.ndarray) -> np.ndarray:
    """Vertices of {u : u_0 = 0, |u_i - u_j| <= d_ij}.

    Every vertex comes from a spanning tree of tight constraints with signed
    edge lengths.  Starting from u_0 = 0, each step places one more atom j at
    u_i + d_ij or u_i - d_ij from a placed atom i, for every such (j, i) of
    every row, so each value is summed along its path from atom 0 (n <= 5,
    so at most 9,216 candidates at the last step).  A row leaves as soon as a
    constraint between placed atoms has slack > 1e-9; the rest are rounded to
    12 decimals, and each distinct vertex is kept as it first appears, sorted.
    """
    n = dd.shape[0]
    u = np.zeros((1, n))
    placed = np.arange(n)[None, :] == 0
    for _ in range(n - 1):
        row, j, i = (np.repeat(a, 2) for a in np.nonzero(~placed[:, :, None] & placed[:, None, :]))
        u, placed, k = u[row], placed[row], np.arange(len(row))
        u[k, j] = u[k, i] + np.tile([1.0, -1.0], len(k) // 2) * dd[i, j]
        placed[k, j] = True
        # a violated constraint between placed atoms stays violated
        pairs = placed[:, :, None] & placed[:, None, :]
        slack = np.where(pairs, u[:, :, None] - u[:, None, :] - dd, -np.inf)
        feasible = slack.max(axis=(1, 2)) <= 1e-9
        u, placed = u[feasible], placed[feasible]
    u = np.round(u, 12)
    # rows compare by value (-0.0 == 0.0, as in a set of tuples); the first
    # candidate of each vertex is the one kept
    _, first = np.unique(u, axis=0, return_index=True)
    return u[first]


# ---------------------------------------------------------------------------
# Scaling families and fits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalingFamily:
    """A scaling function c(eps, n): power law or exponential (radix product)."""

    form: str  # "power" | "exponential" | "table"
    beta: float = 0.0
    radices: tuple = ()
    table: dict = field(default_factory=dict)

    def evaluate(self, epsilon: float, n: int) -> float:
        if self.form == "power":
            return float((n * math.log2(1.0 / epsilon)) ** self.beta)
        if self.form == "exponential":
            if n > len(self.radices):
                raise StructuralError(f"no radix recorded for level {n}")
            return float(np.prod(self.radices[:n]))
        value = self.table.get((epsilon, n))
        if value is None:
            raise StructuralError(f"scaling table has no entry for ({epsilon}, {n})")
        return float(value)

    def validate_on_grid(self, epsilons, levels) -> bool:
        """Increasing in n for fixed eps, nonincreasing in eps for fixed n."""
        epsilons = sorted(epsilons)
        levels = sorted(levels)
        for eps in epsilons:
            values = [self.evaluate(eps, n) for n in levels]
            if any(b <= a for a, b in zip(values, values[1:])):
                return False
        for n in levels:
            values = [self.evaluate(eps, n) for eps in epsilons]
            if any(b > a + 1e-12 for a, b in zip(values, values[1:])):
                return False
        return True

    def strictly_equivalent(
        self, other: "ScalingFamily", epsilons, levels, tol: float = 0.05
    ) -> bool:
        """Finite surrogate of strict equivalence: at the smallest eps, the
        ratio over the top quartile of n stays within tol of 1."""
        eps = min(epsilons)
        top = _top_quartile(sorted(levels))
        ratios = [self.evaluate(eps, n) / other.evaluate(eps, n) for n in top]
        return all(abs(r - 1.0) <= tol for r in ratios)


def _top_quartile(levels: list) -> list:
    count = max(1, math.ceil(len(levels) / 4))
    return levels[-count:]


@dataclass(frozen=True)
class ScaledEntropyResult:
    h: float
    profile: dict  # eps -> max over the top n-quartile of H/c
    epsilons: tuple
    levels: tuple


def scaled_entropy_eval(h_table: dict, family: ScalingFamily) -> ScaledEntropyResult:
    """Finite surrogate of the double limsup of H/c.

    `h_table` maps (epsilon, n) to an entropy value.  For each epsilon the
    top quartile of n values is scanned for the maximal H/c; the headline
    number is that profile at the smallest epsilon.  This is a fixed,
    documented convention, not a limit.
    """
    epsilons = sorted({k[0] for k in h_table})
    levels = sorted({k[1] for k in h_table})
    if len(epsilons) < 3 or len(levels) < 4:
        raise InsufficientDataError("need at least 3 epsilons and 4 levels")
    profile = {}
    for eps in epsilons:
        ratios = [
            h_table[(eps, n)] / family.evaluate(eps, n)
            for n in _top_quartile(levels)
            if (eps, n) in h_table
        ]
        if not ratios:
            raise InsufficientDataError(f"no table entries for epsilon={eps}")
        profile[eps] = max(ratios)
    return ScaledEntropyResult(
        h=profile[epsilons[0]],
        profile=profile,
        epsilons=tuple(epsilons),
        levels=tuple(levels),
    )


@dataclass(frozen=True)
class ExponentFit:
    beta_hat: float
    stderr: float
    r_squared: float
    points: int


def _ols(x: np.ndarray, y: np.ndarray) -> ExponentFit:
    n = len(x)
    xm, ym = x.mean(), y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    if sxx <= 0:
        raise InsufficientDataError("degenerate abscissa for the fit")
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    intercept = ym - slope * xm
    resid = y - (intercept + slope * x)
    dof = max(n - 2, 1)
    sigma2 = float(np.sum(resid**2)) / dof
    stderr = math.sqrt(sigma2 / sxx)
    ss_tot = float(np.sum((y - ym) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return ExponentFit(beta_hat=slope, stderr=stderr, r_squared=r2, points=n)


def scaling_exponent_fit(h_table: dict) -> ExponentFit:
    """Pooled log-log slope of H against n*log2(1/eps) over the grid.

    Entries with nonpositive H are excluded; fewer than 6 surviving points is
    an error.  The slope estimates the polynomial growth exponent.
    """
    xs, ys = [], []
    for (eps, n), h in h_table.items():
        if h > 0:
            xs.append(math.log2(n * math.log2(1.0 / eps)))
            ys.append(math.log2(h))
    if len(xs) < 6:
        raise InsufficientDataError(f"only {len(xs)} positive entries, need >= 6")
    return _ols(np.asarray(xs), np.asarray(ys))


@dataclass(frozen=True)
class GrowthVerdict:
    verdict: str  # "exponential" | "subexponential"
    rate: float  # slope of log2 H per level
    r_squared: float


def exponential_growth_test(
    h_by_level: dict, slope_threshold: float = 0.1, r2_threshold: float = 0.9
) -> GrowthVerdict:
    """Classify entropy growth in n: exponential iff log2 H grows linearly.

    Fits log2 H against n; "exponential" requires slope > slope_threshold
    with R^2 > r2_threshold, and the linear-in-n model must explain the data
    at least as well as a power law (log2 H against log2 n), otherwise any
    polynomial looks exponential on a short window.
    """
    levels = sorted(n for n, h in h_by_level.items() if h > 0)
    if len(levels) < 5:
        raise InsufficientDataError("need at least 5 positive entropy values")
    x = np.asarray(levels, dtype=float)
    y = np.asarray([math.log2(h_by_level[n]) for n in levels])
    fit = _ols(x, y)
    poly_fit = _ols(np.log2(x), y)
    if (
        fit.beta_hat > slope_threshold
        and fit.r_squared > r2_threshold
        and fit.r_squared >= poly_fit.r_squared
    ):
        return GrowthVerdict(verdict="exponential", rate=fit.beta_hat, r_squared=fit.r_squared)
    return GrowthVerdict(verdict="subexponential", rate=fit.beta_hat, r_squared=fit.r_squared)
