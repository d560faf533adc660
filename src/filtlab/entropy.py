"""Epsilon-entropy of finite metric-measure spaces and scaling analysis.

The epsilon-entropy of (X, rho, mu) is the least Shannon entropy among
discrete measures lying within Kantorovich distance epsilon of mu.  On a
finite space the infimum runs over weight vectors on the atoms; it is
bracketed:

* upper bound: the least entropy among certified candidate quantizations:
  Voronoi rungs of farthest-point nets, certified by their own cost; greedy
  mass merges, by the cost of their map, else by the support floor, else by
  an exact transport solve; and the identity, H(mu) <= log2(#atoms);
* lower bound: for a family of cell partitions, any feasible quantization has
  cell marginals within total variation eps / (inter-cell gap) of mu's, and
  entropy continuity turns that into a certified floor.

On spaces of at most five atoms an exact oracle, which enumerates the
vertices of the coupling polytope, checks the bracket.

The strict feasibility constraint `cost < eps` is realized as
`cost <= eps - 1e-12 * 2^e`, where 2^-e puts the largest distance in
[0.5, 1): open conditions are unverifiable in floating point, and a margin
relative to the metric's scale keeps every value when d and eps are scaled
by a power of two.

Scaling analysis lives here too: evaluating entropy tables against scaling
families, fitting growth exponents on log-log grids, and classifying
exponential versus subexponential growth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, InsufficientDataError, SizeCapError, StructuralError
from .mmspace import DiscreteMeasure, SemimetricMatrix, _entropy_bits, _sorted_sum, validate_semimetric
from .transport import kantorovich

STRICT_MARGIN = 1e-12
ORACLE_ATOM_CAP = 5


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


def _row_sums(p: np.ndarray, entropy: bool = False) -> np.ndarray:
    """`_sorted_sum`, or with `entropy` `_entropy_bits`, of each row, bit for bit:
    a sorted row's positive entries are its tail, summed as they are alone."""
    p = np.sort(p, axis=1)
    terms = p * -np.log2(np.where(p > 0, p, 1.0)) if entropy else p
    skip = p.shape[1] - np.count_nonzero(p > 0, axis=1)
    return np.array([row[k:].sum() for row, k in zip(terms, skip)]) + 0.0


def epsilon_entropy_bounds(
    d: SemimetricMatrix,
    mu: DiscreteMeasure,
    epsilon: float,
) -> EntropyBounds:
    """Certified (lower, upper) bracket in bits for the epsilon-entropy.

    Both bounds read one family of cell partitions: the farthest-point
    Voronoi ladder, whose k-th rung sends each atom to its nearest of the
    first k centers.  The upper bound tries every rung but the last as a
    quantization, next to greedy mass merging; the lower bound maximizes the
    continuity floor over the zero-distance classes and rungs 2..48.  That
    family does not depend on epsilon and each floor is nonincreasing in
    epsilon, so the reported bounds are monotone on epsilon grids.  A rung
    is certified by its own cost, a floor on its transport cost.  Merges
    are tried in order up to the 8th that their summed push costs and map
    cost do not certify; such a merge passes when its map cost is within
    budget and fails when its floor (each atom moved to its nearest atom of
    the support) is not; only in between does an exact transport solve
    decide.  The identity quantization always passes.  Everything but the
    comparisons with the budget is built once per space and, like the
    oracle's, cached for the most recent space, keyed by the bytes of `d.d`
    and `mu.w`, so every epsilon of a sweep shares it.
    """
    if not epsilon > 0:
        raise DomainError("epsilon must be positive")
    if d.size != mu.size:
        raise StructuralError("semimetric and measure sizes differ")
    dd, w = d.d, mu.w
    memo = _bracket_memo(dd.tobytes(), w.tobytes())
    single, identity, (spent, mapped, merged, targets), (costs, rung_h), floors = memo
    budget = _strict_budget(d, epsilon)
    upper = 0.0
    if single > budget:
        certified = (spent <= budget) & (mapped <= budget)
        borderline = np.flatnonzero(~certified)[:8]
        tried = borderline[-1] if len(borderline) == 8 else len(certified)
        passed = np.concatenate([merged[:tried][certified[:tried]], rung_h[costs <= budget]])
        upper = float(np.min(passed, initial=identity))
        for i in borderline:
            lam = _cell_masses(targets[i], w, len(w))
            h = _entropy_bits(lam)
            if h < upper and (mapped[i] <= budget or (
                    _sorted_sum(w * dd[:, lam > 0].min(axis=1)) <= budget
                    and kantorovich(DiscreteMeasure(lam), mu, d)[0] <= budget)):
                upper = h
    # a transport of cost < eps moves at most tau = eps / gap of mass across cells;
    # |H(p) - H(q)| <= tau log2(K - 1) + H2(tau) for tau <= 1 - 1/K, H2 capped
    lower = 0.0
    for gap, k_total, h_cells in floors:
        tau = epsilon / gap
        if tau <= 1 - 1.0 / k_total:
            penalty = tau * math.log2(max(k_total - 1, 1)) + binary_entropy(min(tau, 0.5))
            lower = max(lower, h_cells - penalty)
    return EntropyBounds(lower=min(lower, upper), upper=upper, epsilon=epsilon, clamped=lower > upper)


@lru_cache(maxsize=1)
def _bracket_memo(d_key: bytes, w_key: bytes) -> tuple:
    """The epsilon-independent part of the bracket for the metric and weights
    whose bytes are `d_key` and `w_key`, arrays read-only: the least cost of
    moving all mass to one atom; the identity's entropy; the greedy merges
    down to one atom as (summed push costs, map cost, merged entropy, map);
    the rungs but the last as (cost, cell entropy); and (gap, cell count,
    cell entropy) of each floor's partition whose live atoms span two cells
    at a positive gap."""
    w = np.frombuffer(w_key)
    n = len(w)
    dd = np.frombuffer(d_key).reshape(n, n)
    single = float(np.min(np.sum(np.sort(dd[:, w > 0] * w[w > 0], axis=1), axis=1)))
    ladder = _voronoi_ladder(dd, w)
    partitions = np.vstack([_zero_distance_classes(dd), ladder])
    keys = (partitions + n * np.arange(len(partitions))[:, None]).ravel()
    masses = _cell_masses(keys, np.tile(w, len(partitions)), keys.size).reshape(-1, n)
    entropies = _row_sums(masses, entropy=True)
    sizes = np.count_nonzero(np.bincount(keys, minlength=keys.size).reshape(-1, n), axis=1)
    floors = []
    # row 1, rung 1, is one cell; the gap runs over ALL atoms and the continuity
    # over all cells, since a quantization may sit mass on zero-measure atoms
    for cells, m, k_total, h in zip(partitions[:49], masses, sizes, entropies):
        if np.count_nonzero(m) > 1 and (gap := float(dd[cells[:, None] != cells].min())) > 0:
            floors.append((gap, int(k_total), float(h)))
    # each merge pushes the support atom whose mass is cheapest to move into
    # another, the first in row-major order of move among ties; the summed push
    # costs bound the map's cost only under the triangle inequality, unchecked
    weights = w.copy()
    move = np.where((weights[:, None] > 0) & (weights > 0), weights[:, None] * dd, np.inf)
    np.fill_diagonal(move, np.inf)
    steps = max(np.count_nonzero(weights) - 1, 0)
    spent, after, targets = np.empty(steps), np.empty((steps, n)), np.empty((steps, n), dtype=np.intp)
    assignment = np.arange(n)
    total = 0.0
    for step in range(steps):
        src, dst = divmod(int(np.argmin(move)), n)
        total += float(move[src, dst])
        weights[dst] += weights[src]
        weights[src] = 0.0
        assignment[assignment == src] = dst
        move[src] = move[:, src] = np.inf
        move[dst] = np.where(weights > 0, weights[dst] * dd[dst], np.inf)
        move[dst, dst] = np.inf
        spent[step], after[step], targets[step] = total, weights, assignment
    merges = (spent, _row_sums(w * dd[np.arange(n), targets]), _row_sums(after, entropy=True), targets)
    rungs = (_row_sums(w * dd[np.arange(n), ladder[:-1]]), entropies[1:-1])
    for array in (*merges, *rungs):
        array.flags.writeable = False
    return single, _entropy_bits(w), merges, rungs, tuple(floors)


def _voronoi_ladder(dd, w) -> np.ndarray:
    """Row k - 1 holds each atom's nearest center among the first k
    farthest-point centers, k = 1 up to the number of live (positive-weight)
    atoms.  The centers are the heaviest live atom, then each time the live
    atom farthest from the centers so far, ties going to the heavier atom
    and then the lower index.  A new center takes only the atoms it is
    strictly closer to, so a tie keeps the earlier center."""
    first = int(np.argmax(w))
    nearest = np.full(len(w), first)
    dist_to_set = dd[first]
    remaining = w > 0
    remaining[first] = False
    ladder = [nearest]
    for _ in range(np.count_nonzero(remaining)):
        far = np.where(remaining, dist_to_set, -1.0)
        idx = int(np.argmax(np.where(far == far.max(), w, -1.0)))
        remaining[idx] = False
        nearest = np.where(dd[idx] < dist_to_set, idx, nearest)
        dist_to_set = np.minimum(dist_to_set, dd[idx])
        ladder.append(nearest)
    return np.array(ladder)


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
    grid_error: float  # rounding slack of an exact value, not a grid step
    weights: tuple  # the minimizing quantization, one weight per atom


def epsilon_entropy_oracle(
    d: SemimetricMatrix, mu: DiscreteMeasure, epsilon: float
) -> OracleValue:
    """Exact epsilon-entropy for spaces of at most 5 atoms.

    The quantizations within budget (epsilon less the strict margin) of mu
    are the column sums lam of couplings pi >= 0 with row sums mu.w and cost
    <pi, d> <= budget.  H(lam) is concave in pi, so its minimum over that
    polytope sits at a vertex, and a vertex has at most n + 1 nonzero
    entries.  So it is either a map, which sends each atom's mass to one
    atom, or a split: a map with one row r divided between its target and a
    costlier atom a, at the share that puts the cost on the budget.  The
    oracle enumerates all n^n maps and every split whose share lies strictly
    between 0 and 1, and returns the least entropy among the feasible ones
    with the weights that reach it.  A pair of atoms at the same distance
    from r is never split.  `grid_error` is a constant 1e-9, the slack for
    rounding in the vertex weights and entropies.

    The maps, their costs and pushforwards, and each split's cost change per
    unit of mass do not depend on epsilon; they are cached as read-only
    arrays for the most recent space, keyed by the bytes of `d.d` and
    `mu.w`, so each epsilon of a sweep costs one vectorized pass.
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
    # mu itself is within epsilon, whatever the margin
    budget = max(_strict_budget(d, epsilon), 0.0)
    costs, pushes, (maps, rows, targets, atoms, gaps) = _vertex_memo(d.d.tobytes(), mu.w.tobytes())
    # the mass a split moves from the row's target to the costlier atom
    moved = (budget - costs[maps]) / gaps
    split = (moved > 0) & (moved < mu.w[rows])
    moved = moved[split]
    lams = pushes[maps[split]]
    k = np.arange(len(lams))
    lams[k, atoms[split]] += moved
    lams[k, targets[split]] -= moved
    lams = np.concatenate([pushes[costs <= budget], lams])
    # sorted rows, as `_entropy_bits` sums them
    p = np.sort(lams, axis=1)
    entropies = -np.sum(p * np.log2(np.where(p > 0, p, 1.0)), axis=1)
    weights = lams[int(np.argmin(entropies))]
    # a one-atom quantization holds mu's total mass, which may round off 1,
    # so its entropy is set, not summed
    value = _entropy_bits(weights) if np.count_nonzero(weights) > 1 else 0.0
    return OracleValue(value=value, grid_error=1e-9, weights=tuple(weights.tolist()))


@lru_cache(maxsize=1)
def _vertex_memo(d_key: bytes, w_key: bytes) -> tuple:
    """The epsilon-independent part of the oracle for the metric and weights
    whose bytes are `d_key` and `w_key`, all read-only: each map's cost and
    pushforward, maps in lexicographic order, and each split as (map, row,
    the row's target, the costlier atom, cost change per unit of mass).  Costs
    and pushforwards are summed in sorted order, so they keep their bytes
    under a relabelling of the atoms."""
    w = np.frombuffer(w_key)
    n = len(w)
    dd = np.frombuffer(d_key).reshape(n, n)
    sends = np.indices((n,) * n).reshape(n, -1).T  # row r of map m goes to sends[m, r]
    rows = np.arange(n)
    mass = np.zeros((len(sends), n, n))
    mass[np.arange(len(sends))[:, None], rows, sends] = w
    pushes = np.sort(mass, axis=1).sum(axis=1)
    sent = dd[rows, sends]  # each row's distance to its target
    costs = np.sort(w * sent, axis=1).sum(axis=1)
    gaps = dd[None, :, :] - sent[:, :, None]
    maps, split_rows, atoms = np.nonzero((gaps > 0) & (w[:, None] > 0))
    splits = (maps, split_rows, sends[maps, split_rows], atoms, gaps[maps, split_rows, atoms])
    for array in (costs, pushes, *splits):
        array.flags.writeable = False
    return costs, pushes, splits


def _strict_budget(d: SemimetricMatrix, epsilon: float) -> float:
    """The budget that realizes `cost < epsilon`: epsilon less STRICT_MARGIN
    times 2^e, where 2^-e puts max d in [0.5, 1), so that scaling d and
    epsilon by a power of two scales the budget exactly."""
    return epsilon - math.ldexp(STRICT_MARGIN, math.frexp(float(d.d.max()))[1])


# ---------------------------------------------------------------------------
# Scaling families and fits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalingFamily:
    """A scaling function c(eps, n): power law or exponential (radix product)."""

    form: str  # "power" | "exponential"
    beta: float = 0.0
    radices: tuple = ()

    def __post_init__(self):
        if self.form not in ("power", "exponential"):
            raise StructuralError(f"unknown scaling form {self.form!r}; use 'power' or 'exponential'")

    def evaluate(self, epsilon: float, n: int) -> float:
        if not (0 < epsilon < 1 and n >= 1):
            raise DomainError(f"(epsilon={epsilon!r}, n={n!r}) is outside 0 < epsilon < 1, n >= 1")
        if self.form == "power":
            return float((n * math.log2(1.0 / epsilon)) ** self.beta)
        if n > len(self.radices):
            raise StructuralError(f"no radix recorded for level {n}")
        return float(np.prod(self.radices[:n]))


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
    an error, and so is any entry outside 0 < eps < 1, n >= 1.  The slope
    estimates the polynomial growth exponent.
    """
    xs, ys = [], []
    for (eps, n), h in h_table.items():
        if not (0 < eps < 1 and n >= 1):
            raise DomainError(f"entry (epsilon={eps!r}, n={n!r}) is outside 0 < epsilon < 1, n >= 1")
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


GROWTH_SLOPE_MIN = 0.1  # log2 H per level
GROWTH_R2_MIN = 0.9


def exponential_growth_test(h_by_level: dict) -> GrowthVerdict:
    """Classify entropy growth in n: exponential iff log2 H grows linearly.

    Fits log2 H against n; "exponential" requires slope > GROWTH_SLOPE_MIN
    with R^2 > GROWTH_R2_MIN, and the linear-in-n model must explain the data
    at least as well as a power law (log2 H against log2 n), otherwise any
    polynomial looks exponential on a short window.  Levels start at 1.
    """
    if not all(n >= 1 for n in h_by_level):
        raise DomainError(f"levels must be at least 1, got {sorted(h_by_level)!r}")
    levels = sorted(n for n, h in h_by_level.items() if h > 0)
    if len(levels) < 5:
        raise InsufficientDataError("need at least 5 positive entropy values")
    x = np.asarray(levels, dtype=float)
    y = np.asarray([math.log2(h_by_level[n]) for n in levels])
    fit = _ols(x, y)
    poly_fit = _ols(np.log2(x), y)
    if (
        fit.beta_hat > GROWTH_SLOPE_MIN
        and fit.r_squared > GROWTH_R2_MIN
        and fit.r_squared >= poly_fit.r_squared
    ):
        return GrowthVerdict(verdict="exponential", rate=fit.beta_hat, r_squared=fit.r_squared)
    return GrowthVerdict(verdict="subexponential", rate=fit.beta_hat, r_squared=fit.r_squared)
