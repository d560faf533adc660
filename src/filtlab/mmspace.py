"""Finite metric-measure spaces: semimetrics, measures, partitions, entropy.

Everything here is a finite model: a space is a set of indexed atoms, a
semimetric is a symmetric nonnegative matrix with zero diagonal, a measure is
a weight vector summing to one, and a partition is a block label per atom
(labels 0..k-1, every label used).  All types are immutable after
construction: their arrays are read-only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
# loaded with filtlab: numpy would load it lazily inside the first np.unique call
import numpy.ma  # noqa: F401

from .errors import DegenerateBlockError, StructuralError

MEASURE_TOL = 1e-12  # absolute tolerance on total mass; inputs outside are rejected
_SYM_TOL = 1e-12


def _freeze(a: np.ndarray) -> np.ndarray:
    """A read-only contiguous float copy; the caller's array stays its own."""
    a = np.array(a, dtype=float, order="C")
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SemimetricMatrix:
    """Symmetric nonnegative matrix with zero diagonal over a finite atom set.

    The triangle inequality is *not* checked on construction (it costs O(n^3));
    use :func:`validate_semimetric` where it matters.
    """

    d: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.d, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise StructuralError(f"semimetric must be a square matrix, got shape {d.shape}")
        if d.shape[0] == 0:
            raise StructuralError("semimetric needs at least one point")
        if not np.all(np.isfinite(d)):
            raise StructuralError("semimetric has non-finite entries")
        if np.any(d < 0):
            raise StructuralError("semimetric has negative entries")
        if np.any(np.abs(np.diagonal(d)) > 0):
            raise StructuralError("semimetric has nonzero diagonal entries")
        if np.max(np.abs(d - d.T)) > _SYM_TOL:
            raise StructuralError("semimetric is not symmetric")
        object.__setattr__(self, "d", _freeze(np.maximum(d, d.T)))

    @property
    def size(self) -> int:
        return self.d.shape[0]

    def scaled(self, t: float) -> "SemimetricMatrix":
        if t < 0:
            raise StructuralError("scale factor must be nonnegative")
        return SemimetricMatrix(self.d * t)

    def to_json(self) -> str:
        """Serialize as ``{"type": "semimetric", "size": n, "d": [[...], ...]}``."""
        return json.dumps({"type": "semimetric", "size": self.size, "d": self.d.tolist()})

    @classmethod
    def from_json(cls, text: str) -> "SemimetricMatrix":
        obj = json.loads(text)
        if obj.get("type") != "semimetric":
            raise StructuralError("not a semimetric JSON document")
        d = np.asarray(obj["d"], dtype=float)
        if d.shape != (obj["size"], obj["size"]):
            raise StructuralError("semimetric JSON size field does not match matrix")
        return cls(d)


@dataclass(frozen=True)
class DiscreteMeasure:
    """Nonnegative weights summing to 1 (within 1e-12) over a finite atom set."""

    w: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise StructuralError(f"measure must be a nonempty vector, got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise StructuralError("measure has non-finite weights")
        if np.any(w < 0):
            raise StructuralError("measure has negative weights")
        total = float(np.sum(w))
        if abs(total - 1.0) > MEASURE_TOL:
            # silent renormalization hides upstream bugs, so reject
            raise StructuralError(f"measure sums to {total!r}, not 1 within {MEASURE_TOL}")
        object.__setattr__(self, "w", _freeze(w))

    @property
    def size(self) -> int:
        return self.w.shape[0]

    @classmethod
    def uniform(cls, n: int) -> "DiscreteMeasure":
        if n < 1:
            raise StructuralError(f"a uniform measure needs at least one atom, got {n}")
        return cls(np.full(n, 1.0 / n))

    @classmethod
    def point_mass(cls, n: int, i: int) -> "DiscreteMeasure":
        w = np.zeros(n)
        w[i] = 1.0
        return cls(w)

    def to_json(self) -> str:
        """Serialize as ``{"type": "measure", "size": n, "w": [...]}``."""
        return json.dumps({"type": "measure", "size": self.size, "w": self.w.tolist()})

    @classmethod
    def from_json(cls, text: str) -> "DiscreteMeasure":
        obj = json.loads(text)
        if obj.get("type") != "measure":
            raise StructuralError("not a measure JSON document")
        w = np.asarray(obj["w"], dtype=float)
        if w.shape != (obj["size"],):
            raise StructuralError("measure JSON size field does not match vector")
        return cls(w)


@dataclass(frozen=True)
class Partition:
    """Partition of {0..size-1} into disjoint nonempty blocks, stored as atom labels."""

    block_of: np.ndarray

    def __post_init__(self):
        raw = np.asarray(self.block_of)
        if raw.dtype.kind == "f" and not np.all(np.isfinite(raw) & (raw == np.trunc(raw))):
            raise StructuralError("block labels must be integers")
        lab = np.array(raw, dtype=int)
        if lab.ndim != 1 or lab.size == 0:
            raise StructuralError("block_of must be a nonempty integer vector")
        uniq = np.unique(lab)
        if uniq[0] < 0 or uniq[-1] >= lab.size:
            raise StructuralError("block labels out of range")
        if not np.array_equal(uniq, np.arange(uniq.size)):
            raise StructuralError("block labels must be 0..k-1 with no gaps")
        lab.setflags(write=False)
        object.__setattr__(self, "block_of", lab)

    @property
    def size(self) -> int:
        return self.block_of.shape[0]

    @property
    def n_blocks(self) -> int:
        return int(self.block_of.max()) + 1

    @property
    def blocks(self) -> tuple:
        """Each block's members in ascending order, as a tuple of tuples."""
        # a stable sort keeps each block's members in ascending order
        order = np.argsort(self.block_of, kind="stable")
        return tuple(tuple(m) for m in np.split(order, np.cumsum(np.bincount(self.block_of))[:-1]))

    @classmethod
    def from_blocks(cls, size: int, blocks) -> "Partition":
        lab = np.full(size, -1, dtype=int)
        for b, members in enumerate(blocks):
            for i in members:
                if not (0 <= i < size):
                    raise StructuralError(f"point {i} out of range")
                if lab[i] != -1:
                    raise StructuralError(f"point {i} appears in two blocks")
                lab[i] = b
        if np.any(lab < 0):
            raise StructuralError("blocks do not cover all points")
        return cls(lab)

    @classmethod
    def singletons(cls, size: int) -> "Partition":
        return cls(np.arange(size))

    @classmethod
    def trivial(cls, size: int) -> "Partition":
        return cls(np.zeros(size, dtype=int))

    def is_coarsening_of(self, finer: "Partition") -> bool:
        """True iff every block of `finer` lies inside one block of self."""
        if finer.size != self.size:
            return False
        # each finer block takes one of its atoms' labels; all its atoms must match
        label = np.empty(finer.n_blocks, dtype=int)
        label[finer.block_of] = self.block_of
        return bool(np.array_equal(label[finer.block_of], self.block_of))


@dataclass(frozen=True)
class PartitionChain:
    """Decreasing sequence xi_1 coarser-by-coarser ... xi_N on a finite space.

    xi_0 is implicitly the partition into points; each stored partition must be
    coarser than its predecessor (blocks only ever merge).
    """

    space_size: int
    partitions: tuple

    def __post_init__(self):
        parts = tuple(self.partitions)
        prev = Partition.singletons(self.space_size)
        for k, p in enumerate(parts, start=1):
            if p.size != self.space_size:
                raise StructuralError(f"partition {k} has size {p.size}, space is {self.space_size}")
            if not p.is_coarsening_of(prev):
                raise StructuralError(f"partition {k} is not coarser than partition {k - 1}")
            prev = p
        object.__setattr__(self, "partitions", parts)

    @property
    def depth(self) -> int:
        return len(self.partitions)


@dataclass(frozen=True)
class SemimetricReport:
    """Per-invariant validity report for a candidate semimetric matrix."""

    zero_diagonal: bool
    symmetric: bool
    triangle: bool
    first_triangle_violation: tuple | None
    checked_triangle: bool

    @property
    def valid(self) -> bool:
        return self.zero_diagonal and self.symmetric and self.triangle


def validate_semimetric(d, check_triangle: bool = True) -> SemimetricReport:
    """Check the semimetric invariants of a raw square matrix.

    Reports pass/fail for zero diagonal, symmetry and (optionally, it costs
    O(n^3)) the triangle inequality, listing the first violating (i, j, k) with
    d[i,j] > d[i,k] + d[k,j].  Non-square or negative input raises
    :class:`StructuralError`.
    """
    d = np.asarray(d, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise StructuralError(f"expected a square matrix, got shape {d.shape}")
    if np.any(d < 0):
        raise StructuralError("distance matrix has negative entries")
    zero_diag = bool(np.all(np.diagonal(d) == 0))
    symmetric = bool(np.max(np.abs(d - d.T)) <= _SYM_TOL) if d.size else True
    triangle = True
    violation = None
    if check_triangle and symmetric:
        n = d.shape[0]
        for k in range(n):
            # d[i,j] <= d[i,k] + d[k,j] for all i, j
            slack = d - (d[:, k][:, None] + d[k, :][None, :])
            if np.any(slack > 1e-12):
                i, j = np.unravel_index(int(np.argmax(slack)), slack.shape)
                triangle = False
                violation = (int(i), int(j), int(k))
                break
    return SemimetricReport(
        zero_diagonal=zero_diag,
        symmetric=symmetric,
        triangle=triangle,
        first_triangle_violation=violation,
        checked_triangle=check_triangle,
    )


def conditional_measure(mu: DiscreteMeasure, xi: Partition, block: int) -> DiscreteMeasure:
    """Restrict mu to one block of xi and renormalize by the block mass.

    Raises :class:`DegenerateBlockError` when the block carries no mass (the
    conditional measure is undefined on a null block).
    """
    if mu.size != xi.size:
        raise StructuralError("measure and partition sizes differ")
    if not (0 <= block < xi.n_blocks) or block != int(block):
        raise StructuralError(f"block index {block} is not a block of the partition")
    members = np.flatnonzero(xi.block_of == block)
    mass = float(np.sum(mu.w[members]))
    if mass <= 0.0:
        raise DegenerateBlockError(f"block {block} has zero mass")
    w = np.zeros(mu.size)
    w[members] = mu.w[members] / mass
    return DiscreteMeasure(w)


def block_masses(mu: DiscreteMeasure, xi: Partition) -> np.ndarray:
    """Vector of mu-masses of the blocks of xi."""
    if mu.size != xi.size:
        raise StructuralError("measure and partition sizes differ")
    return np.bincount(xi.block_of, weights=mu.w, minlength=xi.n_blocks)


def _entropy_bits(p: np.ndarray) -> float:
    # sorted accumulation makes the value invariant under relabeling of atoms;
    # + 0.0 turns the -0.0 of a point mass into 0.0 and changes nothing else
    p = np.sort(p[p > 0])
    return float(-np.sum(p * np.log2(p)) + 0.0) if p.size else 0.0


def _sorted_sum(terms: np.ndarray) -> float:
    """Sum of the positive terms in ascending order, 0.0 if there are none:
    the same bits under any relabeling of the atoms behind the terms."""
    return float(np.sum(np.sort(terms[terms > 0])))


def partition_entropy(mu: DiscreteMeasure, gamma: Partition) -> float:
    """Shannon entropy (bits) of the block masses of gamma under mu."""
    return _entropy_bits(block_masses(mu, gamma))


def partition_rokhlin_distance(mu: DiscreteMeasure, gamma1: Partition, gamma2: Partition) -> float:
    """H(g1|g2) + H(g2|g1) in bits; zero iff the partitions agree mod null blocks."""
    if gamma1.size != gamma2.size or gamma1.size != mu.size:
        raise StructuralError("partitions must live on the same space as the measure")
    joint = np.zeros((gamma1.n_blocks, gamma2.n_blocks))
    np.add.at(joint, (gamma1.block_of, gamma2.block_of), mu.w)
    h_joint = _entropy_bits(joint.ravel())
    h1 = _entropy_bits(joint.sum(axis=1))
    h2 = _entropy_bits(joint.sum(axis=0))
    return (h_joint - h2) + (h_joint - h1)
