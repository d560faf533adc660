"""Distances and orbit partitions for labeled one-root trees.

The distance between two leaf-labeled trees of the same shape is the minimum,
over all automorphisms of the shape, of the average base distance between
matched leaf labels.  Because the automorphism group of a homogeneous tree is
the iterated wreath product of symmetric groups, the minimum decomposes
recursively: the distance between two height-k nodes is the optimal assignment
of their children under the height-(k-1) distance.  That decomposition is the
implementation; the explicit enumeration over all automorphisms is kept as an
oracle to guard it.

Orbit machinery: words over a finite alphabet attached to the leaves fall into
orbits of the automorphism action, and the entropy of the orbit partition,
normalized by the leaf count, is the exponential-entropy sequence.  The same
recursion computes the orbits: a word's orbit is fixed by the multiset of its
children's orbits, so one table per height classes every subword at once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import SizeCapError, StructuralError
from .mmspace import DiscreteMeasure, Partition, SemimetricMatrix, _entropy_bits

BRUTEFORCE_LEAF_CAP = 16
BRUTEFORCE_GROUP_CAP = 50_000
ORBIT_WORD_CAP = 1 << 20


@dataclass(frozen=True)
class TreeLeafSystem:
    """Labels on the leaves of a one-root tree plus a semimetric on labels.

    `radices` lists the branching factor per level from the root down; the
    homogeneous height-n valence-r tree is ``(r,) * n``.  Leaves are indexed in
    lexicographic path order.
    """

    radices: tuple
    labels: np.ndarray
    base: SemimetricMatrix

    def __post_init__(self):
        radices = tuple(int(r) for r in self.radices)
        if any(r < 2 for r in radices):
            raise StructuralError("every radix must be at least 2")
        labels = np.ascontiguousarray(self.labels, dtype=int)
        if labels.ndim != 1 or labels.shape[0] != math.prod(radices):
            raise StructuralError(
                f"expected {math.prod(radices)} leaf labels, got shape {labels.shape}"
            )
        if labels.size and (labels.min() < 0 or labels.max() >= self.base.size):
            raise StructuralError("leaf labels outside the base alphabet")
        labels.setflags(write=False)
        object.__setattr__(self, "radices", radices)
        object.__setattr__(self, "labels", labels)

    @classmethod
    def homogeneous(cls, r: int, n: int, labels, base: SemimetricMatrix) -> "TreeLeafSystem":
        if n == 0:
            labels = np.atleast_1d(np.asarray(labels, dtype=int))
            if labels.shape != (1,):
                raise StructuralError("height-0 tree has exactly one leaf")
            return cls((), labels, base)
        return cls((r,) * n, labels, base)

    @property
    def n_leaves(self) -> int:
        return self.labels.shape[0]

    @property
    def height(self) -> int:
        return len(self.radices)


def _check_pair(x: TreeLeafSystem, y: TreeLeafSystem):
    if x.radices != y.radices:
        raise StructuralError(f"shape mismatch: {x.radices} vs {y.radices}")
    if x.base.size != y.base.size or not np.array_equal(x.base.d, y.base.d):
        raise StructuralError("the two systems use different base semimetrics")


def tree_distance(x: TreeLeafSystem, y: TreeLeafSystem) -> float:
    """Minimum average leaf distance over all automorphisms of the tree shape.

    Computed recursively: at each internal node the children are matched by an
    exhaustive optimal assignment (the branching factors are tiny), and
    subtree pairs are memoized under canonical (sorted-children) forms so that
    automorphic subtrees share cache entries.
    """
    _check_pair(x, y)
    interner = _SubtreeInterner(x.radices)
    idx = interner.intern(x.labels)
    idy = interner.intern(y.labels)
    memo: dict = {}
    return _node_distance(len(x.radices), idx, idy, interner, x.base.d, memo)


class _SubtreeInterner:
    """Canonical integer ids for subtrees; equal ids iff automorphic subtrees."""

    def __init__(self, radices):
        self.radices = radices
        # one table per height: canonical child tuple -> id, and id -> children
        self.tables = [dict() for _ in radices]
        self.children = [list() for _ in radices]

    def intern(self, labels: np.ndarray) -> int:
        ids = [int(v) for v in labels]
        for h in range(1, len(self.radices) + 1):
            r = self.radices[len(self.radices) - h]
            table = self.tables[h - 1]
            defs = self.children[h - 1]
            nxt = []
            for i in range(0, len(ids), r):
                key = tuple(sorted(ids[i : i + r]))
                found = table.get(key)
                if found is None:
                    found = len(defs)
                    table[key] = found
                    defs.append(key)
                nxt.append(found)
            ids = nxt
        assert len(ids) == 1
        return ids[0]


def _node_distance(height, ida, idb, interner, base, memo):
    if height == 0:
        return float(base[ida, idb])
    if ida == idb:
        return 0.0  # identical canonical forms are automorphic, distance zero
    key = (height, ida, idb) if ida < idb else (height, idb, ida)
    cached = memo.get(key)
    if cached is not None:
        return cached
    ca = interner.children[height - 1][ida]
    cb = interner.children[height - 1][idb]
    r = len(ca)
    sub = [
        [_node_distance(height - 1, a, b, interner, base, memo) for b in cb] for a in ca
    ]
    # fsum is correctly rounded, so the value is bit-identical however the
    # children happen to be ordered by the interner
    best = min(
        math.fsum(sub[i][p[i]] for i in range(r))
        for p in itertools.permutations(range(r))
    )
    value = best / r
    memo[key] = value
    return value


def _enumerate_automorphisms(radices):
    """Yield every automorphism as a permutation array over the leaves."""
    if not radices:
        yield np.zeros(1, dtype=int)
        return
    r = radices[0]
    block = math.prod(radices[1:]) if len(radices) > 1 else 1
    subs = [np.asarray(a) for a in _enumerate_automorphisms(radices[1:])]
    offsets = np.arange(r) * block
    for pi in itertools.permutations(range(r)):
        for choice in itertools.product(range(len(subs)), repeat=r):
            perm = np.empty(r * block, dtype=int)
            for slot in range(r):
                # child in slot `slot` is sent to slot pi[slot], acting inside by its sub-map
                perm[slot * block : (slot + 1) * block] = offsets[pi[slot]] + subs[choice[slot]]
            yield perm


def automorphism_count(radices) -> int:
    count = 1
    nodes = 1
    for r in radices:
        count *= math.factorial(r) ** nodes
        nodes *= r
    return count


def tree_distance_bruteforce(x: TreeLeafSystem, y: TreeLeafSystem) -> float:
    """Exact minimum by explicit enumeration of the automorphism group."""
    _check_pair(x, y)
    if x.n_leaves > BRUTEFORCE_LEAF_CAP:
        raise SizeCapError(f"brute force limited to {BRUTEFORCE_LEAF_CAP} leaves")
    if automorphism_count(x.radices) > BRUTEFORCE_GROUP_CAP:
        raise SizeCapError("automorphism group too large to enumerate")
    base = x.base.d
    lx = x.labels
    ly = y.labels
    best = np.inf
    for perm in _enumerate_automorphisms(x.radices):
        # fsum: correctly rounded, so single-level results match the
        # recursive engine bit for bit
        cost = math.fsum(base[lx, ly[perm]])
        if cost < best:
            best = cost
    return best / x.n_leaves


def apply_automorphism(labels: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Relabel leaves by an automorphism (leaf i takes the label of leaf perm[i])."""
    return labels[perm]


def random_automorphism(radices, rng) -> np.ndarray:
    if not radices:
        return np.zeros(1, dtype=int)
    r = radices[0]
    block = math.prod(radices[1:]) if len(radices) > 1 else 1
    pi = rng.permutation(r)
    perm = np.empty(r * block, dtype=int)
    for slot in range(r):
        sub = random_automorphism(radices[1:], rng)
        perm[slot * block : (slot + 1) * block] = pi[slot] * block + sub
    return perm


# ---------------------------------------------------------------------------
# Orbit partitions and exponential entropy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrbitPartition:
    """Orbits of the automorphism action on leaf-label words."""

    partition: Partition  # over word indices (base-k big-endian encoding)
    entropy_bits: float
    orbit_count: int


def orbit_partition(
    n: int,
    r: int,
    alphabet_size: int,
    word_measure: DiscreteMeasure,
    label_of: np.ndarray | None = None,
) -> OrbitPartition:
    """Partition all alphabet^(r^n) leaf words into automorphism orbits.

    Words are indexed big-endian: word w maps to sum w_i * k^(leaves-1-i).
    `label_of`, of shape (alphabet_size,), optionally maps alphabet symbols to
    coarser labels before orbits are taken (words are still indexed by the
    raw alphabet); only the order of its values matters.  Returns the
    partition together with its entropy under `word_measure`.

    Orbits are built by height over every subword of r^h leaves: a subword's
    class is the rank of its sorted child classes, each child read off a
    big-endian base-K digit of its index, K the subword count one height
    down.  The height-n table classes the words themselves; block labels
    rank orbits in lexicographic order of their sorted child classes.  Every
    index and packed key stays below the word count, inside int64.
    """
    if n < 0 or r < 2 or alphabet_size < 1:
        raise StructuralError("need n >= 0, r >= 2, alphabet_size >= 1")
    leaves = r**n
    n_words = alphabet_size**leaves
    if n_words > ORBIT_WORD_CAP:
        raise SizeCapError(f"{n_words} words exceed the enumeration cap {ORBIT_WORD_CAP}")
    if word_measure.size != n_words:
        raise StructuralError(f"word measure must have {n_words} atoms")
    if label_of is None:
        label_of = np.arange(alphabet_size)
    label_of = np.asarray(label_of, dtype=np.int64)
    if label_of.shape != (alphabet_size,):
        raise StructuralError(f"label_of must have shape ({alphabet_size},), got {label_of.shape}")

    # table[w]: class of subword w at the current height, ranked in the
    # lexicographic order of its sorted child classes (labels at height 0)
    _, table = np.unique(label_of, return_inverse=True)
    exponents = np.arange(r - 1, -1, -1, dtype=np.int64)
    for _ in range(n):
        size, classes = len(table), int(table.max()) + 1
        codes = np.arange(size**r, dtype=np.int64)
        children = np.sort(table[codes[:, None] // size**exponents % size], axis=1)
        # classes**r <= size**r <= n_words, so the packed key fits int64
        _, table = np.unique(children @ classes**exponents, return_inverse=True)
    orbit_ids = table

    part = Partition(orbit_ids)
    entropy = _entropy_bits(np.bincount(orbit_ids, weights=word_measure.w, minlength=part.n_blocks))
    return OrbitPartition(partition=part, entropy_bits=entropy, orbit_count=part.n_blocks)


def iid_word_measure(alphabet_size: int, leaves: int, probs=None) -> DiscreteMeasure:
    """Product measure over words of length `leaves` (fair symbols by default)."""
    if alphabet_size < 1:
        raise StructuralError("alphabet_size must be >= 1")
    if probs is None:
        probs = np.full(alphabet_size, 1.0 / alphabet_size)
    probs = np.asarray(probs, dtype=float)
    if probs.shape != (alphabet_size,):
        raise StructuralError("probs must have one entry per symbol")
    w = np.ones(1)
    for _ in range(leaves):
        w = np.multiply.outer(w, probs).ravel()
    return DiscreteMeasure(w / w.sum())


@dataclass(frozen=True)
class ExponentialEntropyEstimate:
    """Normalized orbit entropies h_n = H_n / prod(r_i) and the terminal value."""

    h: np.ndarray
    limit_estimate: float


def exponential_entropy_estimate(entropies, radices) -> ExponentialEntropyEstimate:
    """Normalize orbit entropies by the cumulative leaf counts.

    `entropies[i]` is the orbit entropy at depth i+1 and `radices[i]` the
    branching added at that depth.  The normalized sequence can never
    increase; a rise beyond 1e-9 signals corrupted input and raises.
    """
    entropies = np.asarray(entropies, dtype=float)
    radices = tuple(int(r) for r in radices)
    if len(radices) != entropies.shape[0]:
        raise StructuralError("need one radix per entropy value")
    scale = np.cumprod(radices)
    h = entropies / scale
    if h.size > 1 and float(np.max(np.diff(h))) > 1e-9:
        raise RuntimeError("normalized entropy sequence increased; input is not an orbit-entropy chain")
    return ExponentialEntropyEstimate(h=h, limit_estimate=float(h[-1]) if h.size else 0.0)
