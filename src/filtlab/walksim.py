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
letters plus a coded suffix).  That walk and its distinct elements' hash keys
depend only on (group, tail, depth): one cached read plan serves all sceneries,
which only hash its keys (`Scenery.bits`).  Depth-n bits are a prefix of
depth-(n+1) bits, so :func:`mean_distance_profile` reads each point once, at
height min(m, n_max), and its shallower engines slice those bits.

Distances come from one kernel over blocks of x points against y points: a
table is one block, a pair a 1 x 1 block, and pairs are batched into calls
of at most `_GATHER_BUDGET` leaves.  The engine keeps only the bits it has
read.  Per height a call ranks the subtrees of all its points at once, a
class being the rank of a sorted (child bit, child class) row among the rows
present (`treewalk._rank_rows`, shared with `treewalk.orbit_partition`),
then solves every block's table over (x class, y class) in one padded
array.  An entry is the cheapest child matching, found by a subset DP.
Tables hold integer numerators: at height h an entry is r^h * height times
the distance of its subtrees, so a child costs its entry one height down
plus r^(h-1) if the child bits differ.  Sums are exact, so one final
division gives the correctly rounded distance, that of the pair alone
whatever else the call holds, and d(x, y) = d(y, x).  A numerator is at
most H * r^H <= H * leaf_cap (H the height), far inside int64; the engine
builds no 2^H x 2^H label matrix, so H has no cap of its own.  The generic
recursive `treewalk.tree_distance` on the explicit leaf systems is the
reference the engine is tested against.

All Monte Carlo sampling is counter-based: any statistic is a pure function of
(spec, parameters, master seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .errors import SizeCapError, StructuralError
from .filtration import cylinder_hamming
from .groups import GroupElement, GroupSpec, Scenery, _free_levels, _philox, identity, step_rows
from .mmspace import SemimetricMatrix
from .treewalk import TreeLeafSystem, _rank_rows

DEFAULT_LEAF_CAP = 1 << 14
MAX_LABEL_BITS = 12  # the base matrix is 2^H x 2^H; beyond this it stops being "desk scale"
# child costs gathered per chunk, and leaves per batch of pairs: more costs
# resident memory, less costs Python overhead per chunk and per batch
_GATHER_BUDGET = 1 << 16


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

    Only the bits of the cached :func:`_read_plan`'s distinct elements are
    the point's own: a `Scenery` hashes their `norm_key`s in one `bits` call,
    any other scenery is asked `value` per element.  Each bit is scattered
    back to all rows holding its element.
    """
    if depth < 1:
        return []
    sizes, inverse, elements, keys = _read_plan(spec, point.tail_position.data, depth)
    scenery = point.scenery
    if isinstance(scenery, Scenery):
        distinct = scenery.bits(keys)
    else:
        distinct = [scenery.value(GroupElement(spec, data)) for data in elements]
    values = np.array(distinct, dtype=np.uint8)[inverse]
    return np.split(values, np.cumsum(sizes[:-1]))


@lru_cache(maxsize=16)
def _read_plan(spec: GroupSpec, tail: tuple, depth: int):
    """The scenery-independent half of a read, built once per run: level
    sizes, a read-only index of each row's distinct element, and the distinct
    normal forms with their `norm_key` bytes.  All r^j positions of level j
    are stepped at once as int64 rows (children of row i are rows
    i*r .. i*r + r-1), and equal rows are one element."""
    if spec.kind == "free":
        levels, elements = _free_levels(spec, tail, depth)
    else:
        levels, elements = _additive_levels(spec, tail, depth)
    rows = np.concatenate(levels)
    first, inverse = _rank_rows(rows)
    inverse.flags.writeable = False
    distinct = tuple(elements(rows[first]))
    keys = tuple(GroupElement(spec, data).norm_key() for data in distinct)
    return tuple(map(len, levels)), inverse, distinct, keys


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
    """Bulk iterated-distance computation at a fixed (spec, n, m) shape,
    every distance through one block kernel (`_solve`)."""

    def __init__(self, spec: GroupSpec, n: int, m: int, leaf_cap: int = DEFAULT_LEAF_CAP):
        if n < 1:
            raise StructuralError("depth n must be >= 1")
        self.spec = spec
        self.m = m
        self.r = spec.alphabet_size
        self.height = min(m, n)
        if self.r**self.height > leaf_cap:
            raise SizeCapError(
                f"{self.r}^{self.height} materialized leaves exceed the cap {leaf_cap}"
            )
        # (scenery, tail) -> bits read at least `height` deep; a run of engines
        # may share one dict, built deepest first, so each point is read once
        self._bit_lists: dict = {}

    def profile(self, p: WalkPoint) -> list[np.ndarray]:
        """The point's bits as `_read_bits` gives them, at least `height`
        levels deep, read once per (scenery, tail)."""
        if p.m != self.m:
            raise StructuralError(f"engine is shaped for m={self.m}, point has m={p.m}")
        at = (p.scenery, p.tail_position.data)
        bits = self._bit_lists.get(at)
        if bits is None:
            bits = self._bit_lists[at] = _read_bits(self.spec, p, self.height)
        return bits

    def distance(self, px: WalkPoint, py: WalkPoint) -> float:
        """Iterated distance at depth n between two walk points."""
        return float(self.distance_pairs([px], [py])[0])

    def distance_table(self, xs, ys) -> np.ndarray:
        """Iterated distances at depth n, entry [i, j] between xs[i] and ys[j]."""
        if not xs or not ys:
            return np.zeros((len(xs), len(ys)))
        top, roots_x, roots_y = self._solve(xs, ys, np.zeros(len(xs), int), np.zeros(len(ys), int))
        return top[0][np.ix_(roots_x, roots_y)]

    def distance_pairs(self, xs, ys) -> np.ndarray:
        """Iterated distances at depth n between xs[i] and ys[i].  Each kernel
        call takes as many pairs as hold at most `_GATHER_BUDGET` leaves."""
        if len(xs) != len(ys):
            raise StructuralError("distance_pairs needs as many xs as ys")
        batch = max(1, _GATHER_BUDGET // (2 * self.r**self.height))
        out = np.empty(len(xs))
        for k in range(0, len(xs), batch):
            g = np.arange(len(xs[k : k + batch]))
            top, roots_x, roots_y = self._solve(xs[k : k + batch], ys[k : k + batch], g, g)
            out[k : k + batch] = top[g, roots_x, roots_y]
        return out

    def _solve(self, xs, ys, owner_x, owner_y):
        """The block kernel (module docstring): xs[i] and ys[j] belong to
        blocks owner_x[i] and owner_y[j], each non-decreasing from 0.  Returns
        the top tables of distances, (block, x class, y class), and each
        point's class position in its block."""
        square = ys is xs
        bits = [self.profile(p) for p in (xs if square else [*xs, *ys])]
        r, nx = self.r, len(xs)
        x = y = (np.arange(owner_x[-1] + 1), 1)  # height 0: one class per block
        w = np.zeros((len(x[0]), 1, 1), dtype=np.int64)
        for h in range(1, self.height + 1):
            level = np.concatenate([b[self.height - h] for b in bits])
            if h == 1:  # every child class is 0: a row ranks as its count of 1 bits
                ones = level.reshape(-1, r).sum(axis=1, dtype=np.uint8)
                counts = np.unique(ones)
                cls, big, rows = np.searchsorted(counts, ones), 1, np.arange(r) >= r - counts[:, None]
            else:
                big = int(cls.max()) + 1
                key = np.sort((level.astype(np.int64) * big + cls).reshape(-1, r), axis=1)
                # classes are numbered in the lexicographic order of the rows
                first, cls = _rank_rows(key)
                rows = key[first]
            defs = np.empty((len(rows), 2 * r), dtype=np.int64)
            defs[:, 0::2], defs[:, 1::2] = np.divmod(rows, big)
            defs[:, 0::2] *= r ** (h - 1)  # a child bit weighs r^(h-1)
            split = nx * r ** (self.height - h)
            x = _block_classes(cls[:split], owner_x, defs, x)
            y = x if square else _block_classes(cls[split:], owner_y, defs, y)
            w = _block_tables(w, x, y)
        w = w / (r**self.height * self.height)  # the one rounding
        roots_x = _positions(cls[:nx], owner_x, x)
        return w, roots_x, roots_x if square else _positions(cls[nx:], owner_y, y)


def _block_classes(cls, owner, defs, below):
    """One side of every block at one height, from its subtree classes `cls`
    (point by point) and each point's block `owner`: the blocks' classes as
    sorted keys block * classes + class, the class count, and (child, block,
    class position) arrays of child positions among the block's classes in
    `below` and of child bits, as given in `defs`.  Padding reads position 0."""
    ncls, r = len(defs), defs.shape[1] // 2
    keys = np.unique(cls.reshape(len(owner), -1) + (owner * ncls)[:, None])
    block, c = np.divmod(keys, ncls)
    pos = np.arange(len(keys)) - np.searchsorted(keys, block * ncls)
    children = np.zeros((2, r, int(owner[-1]) + 1, int(pos.max()) + 1), dtype=np.int64)
    children[0][:, block, pos] = _positions(defs[c, 1::2].T, block, below)
    children[1][:, block, pos] = defs[c, 0::2].T
    return keys, ncls, *children


def _positions(cls, owner, side):
    """Position of class `cls` of block `owner` among that block's on `side`."""
    keys, ncls = side[:2]
    return np.searchsorted(keys, owner * ncls + cls) - np.searchsorted(keys, owner * ncls)


def _block_tables(w, x, y):
    """One height h of every block's integer table from the tables `w` one
    height down: a child costs w[block, x child, y child] + (x bit ^ y bit),
    bits weighted by r^(h-1), in chunks of at most `_GATHER_BUDGET`."""
    (subs_x, bits_x), (subs_y, bits_y) = x[2:], y[2:]
    r, blocks, nx, ny = *subs_x.shape, subs_y.shape[2]
    out = np.empty((blocks, nx, ny), dtype=np.int64)
    cols = min(ny, max(1, _GATHER_BUDGET // (r * r)))
    rows = min(nx, max(1, _GATHER_BUDGET // (r * r * cols)))
    group = max(1, _GATHER_BUDGET // (r * r * cols * rows))
    for g in range(0, blocks, group):
        at = np.arange(g, min(g + group, blocks))[:, None, None]
        for i in range(0, nx, rows):
            sx, bx = (a[:, None, g : g + group, i : i + rows, None] for a in (subs_x, bits_x))
            for j in range(0, ny, cols):
                sy, by = (a[None, :, g : g + group, None, j : j + cols] for a in (subs_y, bits_y))
                out[g : g + group, i : i + rows, j : j + cols] = _min_matching(w[at, sx, sy] + (bx ^ by))
    return out


def _min_matching(c):
    """For costs c[i, j] of x child i against y child j (then any cell axes),
    the minimum over permutations p of c[0, p[0]] + c[1, p[1]] + ..., by the
    subset DP f[S] = min over j in S of f[S - {j}] + c[|S| - 1, j].  The
    engine's costs are integers, so the result is that minimum exactly, in
    the dtype of c."""
    r = len(c)
    f = {0: 0}
    for s in range(1, 1 << r):
        terms = (f[s ^ 1 << j] + c[s.bit_count() - 1, j] for j in range(r) if s >> j & 1)
        f[s] = reduce(np.minimum, terms)
    return f[(1 << r) - 1]


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
# Monte Carlo drivers (counter-based seeding)
# ---------------------------------------------------------------------------


def _pair_seeds(master_seed: int, count: int) -> list[tuple[int, int]]:
    """Two scenery seeds per index, from the Philox stream (master_seed, index)."""
    return [tuple(_philox(master_seed, i).integers(1, 1 << 62, size=2).tolist()) for i in range(count)]


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
) -> list[MeanDistanceEstimate]:
    """Monte Carlo mean iterated distance for n = 1..n_max with 95% intervals.

    Each pair is two independent sceneries with the walker at the identity
    (left-invariance of the construction justifies fixing the tail).  With
    m=None the observation depth tracks n.
    """
    seeds = _pair_seeds(master_seed, pairs)
    bit_lists: dict = {}
    estimates = []
    # deepest first: that engine reads each point at height min(m, n_max) and
    # the shallower ones slice its bits through the shared `bit_lists`
    for n in range(n_max, 0, -1):
        m_n = n if m is None else m
        engine = WalkDistanceEngine(spec, n, m_n, leaf_cap)
        engine._bit_lists = bit_lists
        values = engine.distance_pairs(
            [walk_point(spec, a, m_n) for a, _ in seeds], [walk_point(spec, b, m_n) for _, b in seeds]
        )
        mean = float(np.mean(values))
        half = 1.96 * float(np.std(values, ddof=1)) / math.sqrt(pairs) if pairs > 1 else 0.0
        estimates.append(
            MeanDistanceEstimate(
                n=n, m=m_n, mean=mean, ci_low=mean - half, ci_high=mean + half, pairs=pairs
            )
        )
    return estimates[::-1]


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval (z = 1.96) for a binomial fraction."""
    if not 0 <= successes <= trials or trials <= 0:
        raise StructuralError(f"need 0 <= successes <= trials and trials >= 1, got {successes}, {trials}")
    z = 1.96
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


def ball_measure_profile(
    p: WalkPoint,
    spec: GroupSpec,
    levels,
    epsilon: float,
    samples: int,
    master_seed: int = 0,
    leaf_cap: int = DEFAULT_LEAF_CAP,
) -> list[BallMeasureEstimate]:
    """Fraction of independently sampled points within epsilon of p, one
    estimate per depth n in `levels` (in their order).

    The same samples serve every level, and each point is read once: engines
    are built deepest first and share their bits.  Each level is one row of
    distances, p against all samples.
    """
    if samples < 100:
        raise StructuralError("ball measure estimates need at least 100 samples")
    others = [walk_point(spec, a, p.m) for a, _ in _pair_seeds(master_seed, samples)]
    bit_lists: dict = {}
    estimates = {}
    for n in sorted(set(levels), reverse=True):
        engine = WalkDistanceEngine(spec, n, p.m, leaf_cap)
        engine._bit_lists = bit_lists
        values = engine.distance_table([p], others)[0]
        hits = int(np.sum(values < epsilon))
        lo, hi = wilson_interval(hits, samples)
        estimates[n] = BallMeasureEstimate(n, p.m, epsilon, hits / samples, lo, hi, samples)
    return [estimates[n] for n in levels]


def ball_measure_estimate(
    p: WalkPoint,
    spec: GroupSpec,
    n: int,
    epsilon: float,
    samples: int,
    master_seed: int = 0,
    leaf_cap: int = DEFAULT_LEAF_CAP,
) -> BallMeasureEstimate:
    """Fraction of independently sampled points within epsilon of p at depth n."""
    return ball_measure_profile(p, spec, [n], epsilon, samples, master_seed, leaf_cap)[0]


def sample_distance_matrix(
    spec: GroupSpec,
    n: int,
    m: int,
    points: int,
    master_seed: int = 0,
    leaf_cap: int = DEFAULT_LEAF_CAP,
) -> np.ndarray:
    """Pairwise iterated distances between `points` independent sample points.

    The empirical space (uniform measure on the samples, this matrix) is the
    Monte Carlo stand-in for the level-n metric-measure space.  It is the
    distance table of the points against themselves, which is exactly
    symmetric with a zero diagonal.
    """
    engine = WalkDistanceEngine(spec, n, m, leaf_cap)
    pts = [walk_point(spec, a, m) for a, _ in _pair_seeds(master_seed, points)]
    return engine.distance_table(pts, pts)
