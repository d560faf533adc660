"""Finite models of the filtration of pasts of a walk over a binary scenery.

A walk point is a scenery plus the walker's position at time zero.  Looking n
steps ahead, the (2s)^n possible increment words form the leaves of a
homogeneous tree; each leaf is labeled by the bits the walker would read along
that word (up to observation depth m), and the level-n iterated semimetric
between two points is exactly the automorphism-matching distance between their
labeled trees with the normalized Hamming base.

Because labels only depend on the first min(m, n) symbols of a word, levels
below that depth carry constant labels and the distance collapses to the
truncated tree: everything here materializes min(m, n) levels regardless of n.

The scenery reader steps all r^j walk positions of a level at once as int64
arrays through the kernel in `groups` (`step_rows` for lattice coordinates
and Heisenberg triples, `_free_levels` for free-group words as popped tail
letters plus a coded suffix) and asks the scenery once per distinct
element.  Depth-n bits are a prefix of depth-(n+1) bits, so
:func:`mean_distance_profile` reads each point once, at height min(m, n_max),
and its shallower engines slice those bits.

Two distance paths exist: :func:`pair_distance` delegates to a vectorized
engine that canonicalizes subtree read-patterns level by level and solves the
child assignments in bulk; the generic recursive `treewalk.tree_distance` on
the explicit leaf systems is the reference the engine is tested against.

All Monte Carlo sampling is counter-based: any statistic is a pure function of
(spec, parameters, master seed), independent of worker count.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import SizeCapError, StructuralError
from .filtration import cylinder_hamming
from .groups import GroupElement, GroupSpec, Scenery, _free_levels, _philox, identity, step_rows
from .mmspace import SemimetricMatrix
from .treewalk import TreeLeafSystem

DEFAULT_LEAF_CAP = 1 << 14
MAX_LABEL_BITS = 12  # the base matrix is 2^H x 2^H; beyond this it stops being "desk scale"


@dataclass(frozen=True)
class WalkPoint:
    """A scenery, the walker's position at time zero, and observation depth m."""

    scenery: object
    tail_position: GroupElement
    m: int

    def __post_init__(self):
        if self.m < 1:
            raise StructuralError("observation depth m must be >= 1")


def walk_point(spec: GroupSpec, seed: int, m: int) -> WalkPoint:
    """Standard sample point: fresh scenery, walker at the identity."""
    return WalkPoint(scenery=Scenery(seed), tail_position=identity(spec), m=m)


@lru_cache(maxsize=16)
def hamming_base(n_bits: int) -> SemimetricMatrix:
    """Normalized Hamming semimetric on {0,1}^n_bits (as label integers)."""
    if n_bits > MAX_LABEL_BITS:
        raise SizeCapError(f"label alphabet 2^{n_bits} exceeds the supported size")
    return cylinder_hamming(n_bits, n_bits)


def _read_bits(spec: GroupSpec, point: WalkPoint, depth: int) -> list[np.ndarray]:
    """Scenery bits after every prefix: bits[j-1][i] is the bit read at the
    i-th length-j word (lexicographic), starting from the tail position.

    All r^j positions of level j are stepped at once as int64 rows (children
    of row i are rows i*r .. i*r + r-1).  Every row of every level gets one
    int64 key, and the scenery is asked once per distinct key, its bit then
    scattered back to all rows holding that element.  The bits are those of
    stepping word by word with `multiply`, for far fewer hashes, because
    walk words revisit elements.
    """
    if depth < 1:
        return []
    if spec.kind == "free":
        levels, elements = _free_levels(spec, point.tail_position.data, depth)
    else:
        levels, elements = _additive_levels(spec, point.tail_position.data, depth)
    rows = np.concatenate(levels)
    _, first, inverse = np.unique(_row_keys(rows), return_index=True, return_inverse=True)
    scenery = point.scenery
    distinct = [scenery.value(GroupElement(spec, data)) for data in elements(rows[first])]
    values = np.array(distinct, dtype=np.uint8)[inverse]
    return np.split(values, np.cumsum([len(level) for level in levels[:-1]]))


def _additive_levels(spec: GroupSpec, tail: tuple, depth: int):
    """Lattice and Heisenberg levels: each row is the element's coordinates,
    stepped by `groups.step_rows`.  Tail coordinates are capped at 2^40 so
    that no walk of feasible depth leaves int64."""
    if max(map(abs, tail)) >= 1 << 40:
        raise SizeCapError("tail coordinates of 2^40 or more exceed the int64 reader")
    symbols = np.arange(spec.alphabet_size)
    cur = np.array([tail], dtype=np.int64)
    levels = []
    for _ in range(depth):
        cur = step_rows(spec, np.repeat(cur, len(symbols), axis=0), np.tile(symbols, len(cur)))
        levels.append(cur)
    return levels, lambda rows: map(tuple, rows.tolist())


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One int64 per row, equal exactly when the rows are equal, and ordered
    as the rows are lexicographically.

    Columns are packed in mixed radix over their ranges; a partial key or a
    column whose range would overflow is first replaced by its ranks.
    """
    key = np.zeros(len(rows), dtype=np.int64)
    size = 1
    for col in rows.T:
        col = col - col.min()
        span = int(col.max()) + 1
        if size * span >= 1 << 62:
            key = np.unique(key, return_inverse=True)[1]
            size = int(key.max()) + 1
        if size * span >= 1 << 62:
            col = np.unique(col, return_inverse=True)[1]
            span = int(col.max()) + 1
        key = key * span + col
        size *= span
    return key


def leaf_observations(
    p: WalkPoint, spec: GroupSpec, n: int, leaf_cap: int = DEFAULT_LEAF_CAP
) -> TreeLeafSystem:
    """The explicit labeled tree at depth n: (2s)^n leaves, m-bit labels.

    The label of leaf word w packs the scenery bits read after the prefixes of
    length 1..min(m, n), most significant bit first.
    """
    r = spec.alphabet_size
    if n < 1:
        raise StructuralError("depth n must be >= 1")
    if r**n > leaf_cap:
        raise SizeCapError(f"{r}^{n} leaves exceed the cap {leaf_cap}")
    height = min(p.m, n)
    bits = _read_bits(spec, p, height)
    labels = np.zeros(r**height, dtype=np.int64)
    for j in range(1, height + 1):
        labels += np.repeat(bits[j - 1].astype(np.int64), r ** (height - j)) << (height - j)
    if n > height:
        labels = np.repeat(labels, r ** (n - height))
    return TreeLeafSystem((r,) * n, labels, hamming_base(height))


class WalkDistanceEngine:
    """Bulk iterated-distance computation at a fixed (spec, n, m) shape.

    Subtree read patterns are interned into canonical classes level by level
    (children sorted, so automorphic patterns share a class); the distance
    table between the classes of two trees is then built bottom-up with the
    child assignments solved for all class pairs at once.  Intern tables are
    shared across points, so repeated patterns cost nothing.

    Build all profiles first (single-threaded), then `distance` only reads
    shared state and may be called concurrently.
    """

    def __init__(self, spec: GroupSpec, n: int, m: int, leaf_cap: int = DEFAULT_LEAF_CAP):
        if n < 1:
            raise StructuralError("depth n must be >= 1")
        self.spec = spec
        self.n = n
        self.m = m
        self.r = spec.alphabet_size
        self.height = min(m, n)
        if self.r**self.height > leaf_cap:
            raise SizeCapError(
                f"{self.r}^{self.height} materialized leaves exceed the cap {leaf_cap}"
            )
        if self.height > MAX_LABEL_BITS:
            raise SizeCapError(f"observation depth {self.height} exceeds {MAX_LABEL_BITS}")
        # per height: canonical row -> class id, plus the defining child arrays
        self._tables: list[dict] = [dict() for _ in range(self.height + 1)]
        self._def_bits: list[list[np.ndarray]] = [[] for _ in range(self.height + 1)]
        self._def_subs: list[list[np.ndarray]] = [[] for _ in range(self.height + 1)]
        self._profiles: dict = {}
        # (scenery, tail) -> bits read at least `height` deep; a run of engines
        # may share one dict, built deepest first, so each point is read once
        self._bit_lists: dict = {}
        self._perms = [np.array(p) for p in itertools.permutations(range(self.r))]
        self._lanes = np.arange(self.r)

    def _point_key(self, p: WalkPoint):
        # the scenery object itself is part of the key: the cache then holds a
        # strong reference, so identity-hashed sceneries can never alias
        return (p.scenery, p.tail_position.data, p.m)

    def profile(self, p: WalkPoint):
        """Per height 0..height, the sorted class ids of the point's subtrees."""
        if p.m != self.m:
            raise StructuralError(f"engine is shaped for m={self.m}, point has m={p.m}")
        key = self._point_key(p)
        prof = self._profiles.get(key)
        if prof is None:
            prof = self._build_profile(p)
            self._profiles[key] = prof
        return prof

    def _build_profile(self, p: WalkPoint):
        r = self.r
        at = (p.scenery, p.tail_position.data)
        bits = self._bit_lists.get(at)
        if bits is None:
            bits = self._bit_lists[at] = _read_bits(self.spec, p, self.height)
        cls = np.zeros(r**self.height, dtype=np.int64)  # height 0: one class
        if not self._def_bits[0]:
            self._def_bits[0].append(np.zeros(0, dtype=np.int64))
            self._def_subs[0].append(np.zeros(0, dtype=np.int64))
        uniq_per_height = [np.array([0], dtype=np.int64)]
        for h in range(1, self.height + 1):
            child_bits = bits[self.height - h].astype(np.int64)
            big = int(cls.max()) + 2
            key = child_bits * big + cls
            key = np.sort(key.reshape(-1, r), axis=1)
            # _row_keys keeps the lexicographic row order, so classes are
            # interned in the same order as by sorting the rows themselves
            _, first, inverse = np.unique(_row_keys(key), return_index=True, return_inverse=True)
            uniq_rows = np.empty((len(first), 2 * r), dtype=np.int64)
            uniq_rows[:, 0::2] = key[first] // big
            uniq_rows[:, 1::2] = key[first] % big
            table = self._tables[h]
            ids = np.empty(len(uniq_rows), dtype=np.int64)
            for t, row in enumerate(uniq_rows):
                k = row.tobytes()
                gid = table.get(k)
                if gid is None:
                    gid = len(self._def_bits[h])
                    table[k] = gid
                    self._def_bits[h].append(row[0::2].copy())
                    self._def_subs[h].append(row[1::2].copy())
                ids[t] = gid
            cls = ids[inverse]
            uniq_per_height.append(np.unique(cls))
        assert cls.shape == (1,)
        return uniq_per_height

    def distance(self, px: WalkPoint, py: WalkPoint) -> float:
        """Iterated distance at depth n between two walk points."""
        pa, pb = self.profile(px), self.profile(py)
        r = self.r
        w = np.zeros((1, 1))
        lut_x = np.zeros(1, dtype=np.int64)
        lut_y = np.zeros(1, dtype=np.int64)
        for h in range(1, self.height + 1):
            ux = pa[h]
            uy = pb[h]
            lx, ly = w.shape
            ext = np.block([[w, w + 1.0], [w + 1.0, w]])
            def_bits = self._def_bits[h]
            def_subs = self._def_subs[h]
            rows_x = np.stack([def_bits[g] * lx + lut_x[def_subs[g]] for g in ux])
            rows_y = np.stack([def_bits[g] * ly + lut_y[def_subs[g]] for g in uy])
            w = self._assign_all_pairs(ext, rows_x, rows_y) / r
            lut_x = np.full(len(def_bits), -1, dtype=np.int64)
            lut_x[ux] = np.arange(len(ux))
            lut_y = np.full(len(def_bits), -1, dtype=np.int64)
            lut_y[uy] = np.arange(len(uy))
        return float(w[0, 0]) / self.height

    def _assign_all_pairs(self, ext, rows_x, rows_y):
        """min over child permutations of summed extended distances, all pairs."""
        nx, ny = rows_x.shape[0], rows_y.shape[0]
        r = self.r
        out = np.empty((nx, ny))
        chunk = max(1, 4_000_000 // max(ny * r * r, 1))
        for start in range(0, nx, chunk):
            end = min(nx, start + chunk)
            gathered = ext[rows_x[start:end, None, :, None], rows_y[None, :, None, :]]
            best = None
            for perm in self._perms:
                cost = gathered[:, :, self._lanes, perm].sum(axis=2)
                best = cost if best is None else np.minimum(best, cost)
            out[start:end] = best
        return out


def pair_distance(
    px: WalkPoint,
    py: WalkPoint,
    spec: GroupSpec,
    n: int,
    leaf_cap: int = DEFAULT_LEAF_CAP,
) -> float:
    """Iterated semimetric at depth n between two walk points."""
    if px.m != py.m:
        raise StructuralError("both points must share the observation depth m")
    return WalkDistanceEngine(spec, n, px.m, leaf_cap).distance(px, py)


def identity_matching_average(
    px: WalkPoint, py: WalkPoint, spec: GroupSpec, n: int, leaf_cap: int = DEFAULT_LEAF_CAP
) -> float:
    """Average label distance under the identity leaf matching (upper bound)."""
    x = leaf_observations(px, spec, n, leaf_cap)
    y = leaf_observations(py, spec, n, leaf_cap)
    return float(np.mean(x.base.d[x.labels, y.labels]))


# ---------------------------------------------------------------------------
# Monte Carlo drivers (counter-based seeding, worker-count independent)
# ---------------------------------------------------------------------------


def _pair_seeds(master_seed: int, count: int) -> list[tuple[int, int]]:
    """Two scenery seeds per index, from the Philox stream (master_seed, index)."""
    return [tuple(_philox(master_seed, i).integers(1, 1 << 62, size=2).tolist()) for i in range(count)]


def _run_indexed(fn, count: int, workers: int) -> np.ndarray:
    """Evaluate fn(i) for i in range(count) into slot i, any worker count."""
    out = np.empty(count)
    if workers <= 1:
        for i in range(count):
            out[i] = fn(i)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for i, value in enumerate(pool.map(fn, range(count))):
                out[i] = value
    return out


@dataclass(frozen=True)
class MeanDistanceEstimate:
    n: int
    m: int
    mean: float
    ci_low: float
    ci_high: float
    pairs: int


def mean_distance_profile(
    spec: GroupSpec,
    n_max: int,
    m: int | None = None,
    pairs: int = 200,
    master_seed: int = 0,
    leaf_cap: int = DEFAULT_LEAF_CAP,
    workers: int = 1,
) -> list[MeanDistanceEstimate]:
    """Monte Carlo mean iterated distance for n = 1..n_max with 95% intervals.

    Each pair is two independent sceneries with the walker at the identity
    (left-invariance of the construction justifies fixing the tail).  With
    m=None the observation depth tracks n.
    """
    seeds = _pair_seeds(master_seed, pairs)
    bit_lists: dict = {}
    estimates = []
    point_pairs: dict = {}
    # deepest first: that engine reads each point at height min(m, n_max) and
    # the shallower ones slice its bits through the shared `bit_lists`
    for n in range(n_max, 0, -1):
        m_n = n if m is None else m
        engine = WalkDistanceEngine(spec, n, m_n, leaf_cap)
        engine._bit_lists = bit_lists
        if m_n not in point_pairs:
            point_pairs[m_n] = [(walk_point(spec, a, m_n), walk_point(spec, b, m_n)) for a, b in seeds]
        pts = point_pairs[m_n]
        for px, py in pts:
            engine.profile(px)
            engine.profile(py)
        values = _run_indexed(lambda i: engine.distance(*pts[i]), pairs, workers)
        mean = float(np.mean(values))
        half = 1.96 * float(np.std(values, ddof=1)) / math.sqrt(pairs) if pairs > 1 else 0.0
        estimates.append(
            MeanDistanceEstimate(
                n=n, m=m_n, mean=mean, ci_low=mean - half, ci_high=mean + half, pairs=pairs
            )
        )
    return estimates[::-1]


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """95% (by default) Wilson score interval for a binomial fraction."""
    if trials <= 0:
        raise StructuralError("need at least one trial")
    phat = successes / trials
    denom = 1 + z**2 / trials
    center = (phat + z**2 / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z**2 / (4 * trials**2)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class BallMeasureEstimate:
    n: int
    m: int
    epsilon: float
    fraction: float
    ci_low: float
    ci_high: float
    samples: int


def ball_measure_estimate(
    p: WalkPoint,
    spec: GroupSpec,
    n: int,
    epsilon: float,
    samples: int,
    master_seed: int = 0,
    leaf_cap: int = DEFAULT_LEAF_CAP,
    workers: int = 1,
) -> BallMeasureEstimate:
    """Fraction of independently sampled points within epsilon of p at depth n."""
    if samples < 100:
        raise StructuralError("ball measure estimates need at least 100 samples")
    engine = WalkDistanceEngine(spec, n, p.m, leaf_cap)
    others = [walk_point(spec, a, p.m) for a, _ in _pair_seeds(master_seed, samples)]
    engine.profile(p)
    for q in others:
        engine.profile(q)
    values = _run_indexed(lambda i: engine.distance(p, others[i]), samples, workers)
    hits = int(np.sum(values < epsilon))
    lo, hi = wilson_interval(hits, samples)
    return BallMeasureEstimate(
        n=n,
        m=p.m,
        epsilon=epsilon,
        fraction=hits / samples,
        ci_low=lo,
        ci_high=hi,
        samples=samples,
    )


def sample_distance_matrix(
    spec: GroupSpec,
    n: int,
    m: int,
    points: int,
    master_seed: int = 0,
    leaf_cap: int = DEFAULT_LEAF_CAP,
    workers: int = 1,
) -> np.ndarray:
    """Pairwise iterated distances between `points` independent sample points.

    The empirical space (uniform measure on the samples, this matrix) is the
    Monte Carlo stand-in for the level-n metric-measure space.
    """
    engine = WalkDistanceEngine(spec, n, m, leaf_cap)
    pts = [walk_point(spec, a, m) for a, _ in _pair_seeds(master_seed, points)]
    for p in pts:
        engine.profile(p)
    index_pairs = [(i, j) for i in range(points) for j in range(i + 1, points)]
    values = _run_indexed(
        lambda k: engine.distance(pts[index_pairs[k][0]], pts[index_pairs[k][1]]),
        len(index_pairs),
        workers,
    )
    d = np.zeros((points, points))
    for k, (i, j) in enumerate(index_pairs):
        d[i, j] = d[j, i] = values[k]
    return d
