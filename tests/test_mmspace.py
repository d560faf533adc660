import math

import numpy as np
import pytest

from filtlab.errors import StructuralError
from filtlab.mmspace import (
    DiscreteMeasure,
    Partition,
    PartitionChain,
    SemimetricMatrix,
    partition_entropy,
    validate_semimetric,
)


class TestValidateSemimetric:
    def test_discrete_metric_valid(self):
        report = validate_semimetric([[0, 1], [1, 0]])
        assert report.valid

    def test_triangle_violation_reports_triple(self):
        d = np.array([[0, 3, 1], [3, 0, 1], [1, 1, 0]], dtype=float)
        report = validate_semimetric(d)
        assert not report.triangle
        i, j, k = report.first_triangle_violation
        assert d[i, j] > d[i, k] + d[k, j]

    def test_symmetry_violation(self):
        report = validate_semimetric([[0, 1], [2, 0]])
        assert not report.symmetric
        assert not report.valid

    def test_nonsquare_raises(self):
        with pytest.raises(StructuralError):
            validate_semimetric([[0, 1, 2], [1, 0, 1]])

    def test_negative_raises(self):
        with pytest.raises(StructuralError):
            validate_semimetric([[0, -1], [-1, 0]])


class TestTypes:
    def test_semimetric_rejects_nonzero_diagonal(self):
        with pytest.raises(StructuralError):
            SemimetricMatrix([[1.0, 0.5], [0.5, 0.0]])

    def test_measure_rejects_bad_total(self):
        with pytest.raises(StructuralError):
            DiscreteMeasure([0.5, 0.5 + 1e-9])

    def test_measure_tolerates_1e13(self):
        DiscreteMeasure([0.5, 0.5 + 1e-13])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_semimetric_rejects_non_finite(self, bad):
        with pytest.raises(StructuralError, match="non-finite"):
            SemimetricMatrix([[0.0, bad], [bad, 0.0]])

    def test_measure_rejects_nan(self):
        with pytest.raises(StructuralError, match="non-finite"):
            DiscreteMeasure([np.nan, 1.0])

    def test_partition_roundtrip(self):
        p = Partition.from_blocks(4, [[0, 1], [2, 3]])
        assert p.n_blocks == 2
        assert list(p.block_of) == [0, 0, 1, 1]

    def test_partition_blocks_match_per_block_scan(self):
        rng = np.random.default_rng(7)
        for size in (1, 2, 9, 500):
            for k in sorted({1, 2, 5, size}):
                if k > size:
                    continue
                labels = np.concatenate([np.arange(k), rng.integers(0, k, size - k)])
                rng.shuffle(labels)
                expected = tuple(tuple(np.flatnonzero(labels == b)) for b in range(k))
                blocks = Partition(labels).blocks
                assert blocks == expected
                assert all(type(i) is np.int64 for members in blocks for i in members)

    def test_partition_keeps_a_read_only_copy(self):
        labels = np.array([0, 1, 1, 0])
        p = Partition(labels)
        labels[0] = 1
        assert labels.flags.writeable
        assert list(p.block_of) == [0, 1, 1, 0]
        assert not p.block_of.flags.writeable

    def test_measure_and_semimetric_keep_read_only_copies(self):
        w = np.array([0.5, 0.5])
        m = DiscreteMeasure(w)
        assert m.w is not w and w.flags.writeable
        w[0] = 0.0
        assert m.w.tolist() == [0.5, 0.5]
        assert not m.w.flags.writeable
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        s = SemimetricMatrix(d)
        d[0, 1] = 2.0
        assert d.flags.writeable and s.d.tolist() == [[0.0, 1.0], [1.0, 0.0]]
        assert not s.d.flags.writeable

    def test_coarsening_matches_per_block_scan(self):
        def scan(coarse, fine):
            if coarse.size != fine.size:
                return False
            return all(len(set(coarse.block_of[list(m)])) == 1 for m in fine.blocks)

        def random_partition(size, k):
            labels = np.concatenate([np.arange(k), rng.integers(0, k, size - k)])
            rng.shuffle(labels)
            return Partition(labels)

        rng = np.random.default_rng(17)
        checked = 0
        for size in (1, 2, 3, 9, 64, 500):
            for k in sorted({1, 2, 5, size // 2, size} - {0}):
                if k > size:
                    continue
                fine = random_partition(size, k)
                # a coarsening by merging fine labels, and an unrelated partition
                _, merged = np.unique(rng.integers(0, 3, k)[fine.block_of], return_inverse=True)
                # the same merge with its first, last or a random atom moved
                moves = []
                for at in (0, size - 1, rng.integers(size)):
                    moved = merged.copy()
                    moved[at] = (moved[at] + 1) % (merged.max() + 1)
                    moves.append((Partition(np.unique(moved, return_inverse=True)[1]), fine))
                merged = Partition(merged)
                pairs = [
                    (fine, fine),
                    (merged, fine),
                    (fine, merged),
                    *moves,
                    (random_partition(size, min(k, 3)), fine),
                    (Partition.trivial(size), fine),
                    (fine, Partition.singletons(size)),
                    (Partition.singletons(size), fine),
                    (Partition.trivial(size + 1), fine),
                ]
                for coarse, finer in pairs:
                    assert coarse.is_coarsening_of(finer) == scan(coarse, finer)
                    checked += 1
        assert checked > 100

    def test_partition_rejects_overlap(self):
        with pytest.raises(StructuralError):
            Partition.from_blocks(3, [[0, 1], [1, 2]])

    def test_chain_requires_coarsening(self):
        fine = Partition.from_blocks(4, [[0, 1], [2, 3]])
        not_coarser = Partition.from_blocks(4, [[0, 2], [1, 3]])
        with pytest.raises(StructuralError):
            PartitionChain(4, (fine, not_coarser))
        PartitionChain(4, (fine, Partition.trivial(4)))

    @pytest.mark.parametrize("n", [0, -1])
    def test_uniform_rejects_no_atoms(self, n):
        with pytest.raises(StructuralError):
            DiscreteMeasure.uniform(n)

    @pytest.mark.parametrize("n, i", [(3, 5), (3, 3), (3, -1), (0, 0)])
    def test_point_mass_rejects_atom_outside(self, n, i):
        with pytest.raises(StructuralError, match="atom"):
            DiscreteMeasure.point_mass(n, i)

    @pytest.mark.parametrize("labels", [[0.5, 1.7], [0.0, 1.5], [0.0, np.nan], [0.0, np.inf]])
    def test_partition_rejects_non_integral_labels(self, labels):
        with pytest.raises(StructuralError):
            Partition(np.array(labels))

    def test_partition_accepts_integral_floats(self):
        assert Partition(np.array([1.0, 0.0, 1.0])).block_of.tolist() == [1, 0, 1]


class TestPartitionEntropy:
    def test_uniform_singletons(self):
        assert partition_entropy(DiscreteMeasure.uniform(4), Partition.singletons(4)) == 2.0

    def test_trivial_partition(self):
        h = partition_entropy(DiscreteMeasure.uniform(4), Partition.trivial(4))
        assert h == 0.0 and math.copysign(1.0, h) == 1.0  # +0.0, not -0.0

    def test_direct_formula(self):
        mu = DiscreteMeasure([0.25, 0.5, 0.25])
        assert partition_entropy(mu, Partition.singletons(3)) == pytest.approx(1.5, abs=1e-12)

    def test_equality_iff_equiprobable(self):
        gamma = Partition.from_blocks(4, [[0, 1], [2, 3]])
        equal = DiscreteMeasure([0.25, 0.25, 0.3, 0.2])
        assert partition_entropy(equal, gamma) == pytest.approx(1.0, abs=1e-12)
        skewed = DiscreteMeasure([0.5, 0.2, 0.2, 0.1])
        assert partition_entropy(skewed, gamma) < 1.0 - 1e-6

    def test_bounded_by_log_blocks(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 10))
            w = rng.random(n)
            mu = DiscreteMeasure(w / w.sum())
            k = int(rng.integers(1, n + 1))
            _, labels = np.unique(rng.integers(0, k, size=n), return_inverse=True)
            gamma = Partition(labels)
            assert partition_entropy(mu, gamma) <= np.log2(gamma.n_blocks) + 1e-12

