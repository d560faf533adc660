import numpy as np
import pytest

from filtlab.errors import DegenerateBlockError, StructuralError
from filtlab.mmspace import (
    DiscreteMeasure,
    Partition,
    PartitionChain,
    SemimetricMatrix,
    block_masses,
    conditional_measure,
    partition_entropy,
    partition_rokhlin_distance,
    validate_semimetric,
)


def discrete_metric(n):
    return SemimetricMatrix(1.0 - np.eye(n))


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

    def test_skip_triangle(self):
        report = validate_semimetric([[0, 1], [1, 0]], check_triangle=False)
        assert not report.checked_triangle


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

    def test_json_roundtrip(self):
        d = discrete_metric(3)
        mu = DiscreteMeasure([0.2, 0.3, 0.5])
        assert np.array_equal(SemimetricMatrix.from_json(d.to_json()).d, d.d)
        assert np.array_equal(DiscreteMeasure.from_json(mu.to_json()).w, mu.w)


class TestConditionalMeasure:
    def test_uniform_block(self):
        mu = DiscreteMeasure.uniform(4)
        xi = Partition.from_blocks(4, [[0, 1], [2, 3]])
        cond = conditional_measure(mu, xi, 0)
        assert np.allclose(cond.w, [0.5, 0.5, 0.0, 0.0])

    def test_renormalizes_by_block_mass(self):
        mu = DiscreteMeasure([0.1, 0.3, 0.6])
        xi = Partition.from_blocks(3, [[0, 1], [2]])
        cond = conditional_measure(mu, xi, 0)
        assert np.allclose(cond.w, [0.25, 0.75, 0.0])

    def test_singleton_block_is_delta(self):
        mu = DiscreteMeasure([0.1, 0.3, 0.6])
        xi = Partition.singletons(3)
        for i in range(3):
            cond = conditional_measure(mu, xi, i)
            assert cond.w[i] == 1.0

    def test_null_block_raises(self):
        mu = DiscreteMeasure([0.0, 1.0])
        xi = Partition.singletons(2)
        with pytest.raises(DegenerateBlockError):
            conditional_measure(mu, xi, 0)

    def test_law_of_total_measure(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers( 2, 9))
            w = rng.random(n)
            mu = DiscreteMeasure(w / w.sum())
            _, labels = np.unique(rng.integers(0, int(rng.integers(1, n + 1)), size=n), return_inverse=True)
            xi = Partition(labels)
            masses = block_masses(mu, xi)
            recombined = np.zeros(n)
            for b in range(xi.n_blocks):
                if masses[b] > 0:
                    recombined += masses[b] * conditional_measure(mu, xi, b).w
            assert np.allclose(recombined, mu.w, atol=1e-12)
            for b in range(xi.n_blocks):
                if masses[b] > 0:
                    cond = conditional_measure(mu, xi, b).w
                    assert abs(cond.sum() - 1.0) <= 1e-12
                    outside = np.ones(n, dtype=bool)
                    outside[list(xi.blocks[b])] = False
                    assert np.all(cond[outside] == 0.0)


class TestPartitionEntropy:
    def test_uniform_singletons(self):
        assert partition_entropy(DiscreteMeasure.uniform(4), Partition.singletons(4)) == 2.0

    def test_trivial_partition(self):
        assert partition_entropy(DiscreteMeasure.uniform(4), Partition.trivial(4)) == 0.0

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


class TestRokhlinDistance:
    def test_identical_partitions(self):
        mu = DiscreteMeasure.uniform(4)
        g = Partition.from_blocks(4, [[0, 1], [2, 3]])
        assert partition_rokhlin_distance(mu, g, g) == 0.0

    def test_singletons_vs_trivial_two_points(self):
        mu = DiscreteMeasure.uniform(2)
        d = partition_rokhlin_distance(mu, Partition.singletons(2), Partition.trivial(2))
        assert d == pytest.approx(1.0, abs=1e-12)

    def test_independent_halves(self):
        mu = DiscreteMeasure.uniform(4)
        g1 = Partition.from_blocks(4, [[0, 1], [2, 3]])
        g2 = Partition.from_blocks(4, [[0, 2], [1, 3]])
        assert partition_rokhlin_distance(mu, g1, g2) == pytest.approx(2.0, abs=1e-12)

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            w = rng.random(n)
            mu = DiscreteMeasure(w / w.sum())
            parts = []
            for _ in range(3):
                _, labels = np.unique(rng.integers(0, int(rng.integers(1, n + 1)), n), return_inverse=True)
                parts.append(Partition(labels))
            a, b, c = parts
            dab = partition_rokhlin_distance(mu, a, b)
            dba = partition_rokhlin_distance(mu, b, a)
            assert dab == pytest.approx(dba, abs=1e-10)
            dac = partition_rokhlin_distance(mu, a, c)
            dcb = partition_rokhlin_distance(mu, c, b)
            assert dab <= dac + dcb + 1e-9
