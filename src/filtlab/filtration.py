"""Iterated semimetrics along a partition chain and the mean-distance profile.

Level k is materialized over the quotient by the k-th partition (one node per
block): the level-k distance between two blocks is the Kantorovich distance of
their conditional measures over the level-(k-1) quotient, taken in the
level-(k-1) semimetric.  Pairs inside one block are zero by construction, so
the quotient loses nothing and the pairs per level drop from |X|^2 to
|X/xi_k|^2.  Each pair is solved on its two blocks' supports alone, so it
costs |support_b| * |support_c|, not the previous quotient's size squared.

The mean distance c_k of each level never increases with k; how fast the
sequence decays toward zero is the finite-scale signal that the chain behaves
like the past of an independent scheme.  The terminal ratio reported by
:func:`standardness_profile` is a heuristic indicator, not a proof: a finite
model can refute fast decay but never certify the limit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBlockError, StructuralError
from .mmspace import (
    DiscreteMeasure,
    Partition,
    PartitionChain,
    SemimetricMatrix,
    _sorted_sum,
)
from .transport import _transport_support

MONOTONE_TOL = 1e-9


@dataclass(frozen=True)
class LevelSemimetric:
    """Level-k iterated semimetric, stored over the quotient X/xi_k."""

    level: int
    partition: Partition
    matrix: SemimetricMatrix
    block_mass: np.ndarray
    null_blocks: np.ndarray  # boolean mask; zero-mass blocks carry no distances

    def point_distance(self, x: int, y: int) -> float:
        bx, by = int(self.partition.block_of[x]), int(self.partition.block_of[y])
        if self.null_blocks[bx] or self.null_blocks[by]:
            raise DegenerateBlockError(
                f"point pair ({x}, {y}) touches a null block at level {self.level}"
            )
        return float(self.matrix.d[bx, by])

    def lift_to_points(self) -> np.ndarray:
        """Expand the quotient matrix back to a full point-by-point array."""
        lab = self.partition.block_of
        return self.matrix.d[np.ix_(lab, lab)]


def iterate_semimetric(
    rho0: SemimetricMatrix,
    mu: DiscreteMeasure,
    chain: PartitionChain,
    depth: int | None = None,
) -> list[LevelSemimetric]:
    """Build the iterated semimetrics rho_1..rho_depth along the chain.

    rho_k between two blocks of xi_k is the Kantorovich distance between their
    conditional measures over the xi_{k-1} quotient in the rho_{k-1} metric
    (the tower property lets each level condition on the previous quotient
    rather than on raw points).
    """
    if depth is None:
        depth = chain.depth
    if not 0 <= depth <= chain.depth:
        raise StructuralError(f"chain has {chain.depth} partitions, requested depth {depth}")
    if rho0.size != mu.size or mu.size != chain.space_size:
        raise StructuralError("rho0, mu and chain must share the same space")

    levels: list[LevelSemimetric] = []
    prev_matrix = rho0
    prev_mass = mu.w
    prev_partition = Partition.singletons(mu.size)
    for k in range(1, depth + 1):
        xi = chain.partitions[k - 1]
        n_blocks = xi.n_blocks
        # each previous node sits in exactly one xi_k block (chain is decreasing)
        node_block = np.empty(prev_matrix.size, dtype=int)
        node_block[prev_partition.block_of] = xi.block_of
        mass = np.bincount(node_block, weights=prev_mass, minlength=n_blocks)
        null = mass <= 0.0

        # each non-null block's conditional measure on its support, for all its pairs
        conds = []
        for b in np.flatnonzero(~null):
            members = np.flatnonzero((node_block == b) & (prev_mass > 0))
            conds.append((b, members, prev_mass[members] / mass[b]))

        d = np.zeros((n_blocks, n_blocks))
        for (b, ib, wb), (c, ic, wc) in itertools.combinations(conds, 2):
            d[b, c] = d[c, b] = _transport_support(wb, wc, prev_matrix.d[np.ix_(ib, ic)])[0]

        level = LevelSemimetric(level=k, partition=xi, matrix=SemimetricMatrix(d),
                                block_mass=mass, null_blocks=null)
        levels.append(level)
        prev_matrix = level.matrix
        prev_mass = mass
        prev_partition = xi
    return levels


def mean_distance(rho: SemimetricMatrix, mu: DiscreteMeasure) -> float:
    """Average distance between two independent mu-points: sum mu_i mu_j rho_ij."""
    if rho.size != mu.size:
        raise StructuralError("semimetric and measure sizes differ")
    w = mu.w
    idx = np.flatnonzero(w > 0)
    return _sorted_sum((np.outer(w[idx], w[idx]) * rho.d[np.ix_(idx, idx)]).ravel())


@dataclass(frozen=True)
class StandardnessProfile:
    """The sequence c_0..c_N plus a finite-scale decay verdict."""

    c: np.ndarray
    terminal_ratio: float  # c_N / c_0, heuristic decay indicator; 0 when c_0 = 0
    levels: tuple

    @property
    def depth(self) -> int:
        return len(self.c) - 1


def standardness_profile(
    rho0: SemimetricMatrix,
    mu: DiscreteMeasure,
    chain: PartitionChain,
    depth: int | None = None,
) -> StandardnessProfile:
    """Compute c_k = mean iterated distance for k = 0..depth and check monotonicity.

    Raises RuntimeError if the sequence ever increases beyond 1e-9: that can
    only happen through an implementation defect, never through the data.
    """
    levels = iterate_semimetric(rho0, mu, chain, depth)
    c = [mean_distance(rho0, mu)]
    for lv in levels:
        c.append(mean_distance(lv.matrix, DiscreteMeasure(lv.block_mass)))
    c = np.asarray(c)
    worst = float(np.max(np.diff(c))) if len(c) > 1 else 0.0
    if worst > MONOTONE_TOL:
        raise RuntimeError(f"mean distance increased by {worst:.3e} between levels")
    ratio = float(c[-1] / c[0]) if c[0] > 0 else 0.0
    return StandardnessProfile(c=c, terminal_ratio=ratio, levels=tuple(levels))


# ---------------------------------------------------------------------------
# Canonical finite models
# ---------------------------------------------------------------------------


def dyadic_bernoulli_chain(n_bits: int, depth: int | None = None):
    """Uniform measure on {0,1}^n_bits with the chain that forgets low bits.

    Point i encodes the bit string (bit_0, ..., bit_{n-1}) of i; the k-th
    partition groups points sharing bits k..n-1, so each block frees the k
    lowest bits (block size 2^k).  Returns (mu, chain).
    """
    if depth is None:
        depth = n_bits
    if not 0 <= depth <= n_bits:
        raise StructuralError(f"depth {depth} is not between 0 and the {n_bits} bits")
    size = 1 << n_bits
    mu = DiscreteMeasure.uniform(size)
    pts = np.arange(size)
    parts = [Partition(pts >> k) for k in range(1, depth + 1)]
    return mu, PartitionChain(size, tuple(parts))


def cylinder_hamming(n_bits: int, order: int) -> SemimetricMatrix:
    """Hamming semimetric on {0,1}^n_bits reading only the first `order` bits.

    Distances are normalized by `order`, so the diameter is 1.  Order 1 is the
    discrete semimetric on the lowest bit; order n_bits is the full normalized
    Hamming metric.
    """
    if not (1 <= order <= n_bits):
        raise StructuralError("cylinder order must be between 1 and n_bits")
    size = 1 << n_bits
    pts = np.arange(size)
    mask = (1 << order) - 1
    xor = (pts[:, None] ^ pts[None, :]) & mask
    counts = np.zeros_like(xor)
    for b in range(order):
        counts += (xor >> b) & 1
    return SemimetricMatrix(counts / float(order))
