import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from filtlab import walksim
from filtlab.errors import SizeCapError, StructuralError
from filtlab.filtration import cylinder_hamming, iterate_semimetric
from filtlab.groups import (
    DictScenery,
    GroupElement,
    GroupSpec,
    Scenery,
    identity,
    inverse,
    multiply,
    symbol_element,
)
from filtlab.mmspace import DiscreteMeasure, Partition, PartitionChain, SemimetricMatrix
from filtlab.treewalk import _rank_rows, tree_distance
from filtlab.walksim import (
    WalkDistanceEngine,
    WalkPoint,
    _read_bits,
    ball_measure_estimate,
    ball_measure_profile,
    hamming_base,
    identity_matching_average,
    leaf_observations,
    mean_distance_profile,
    pair_distance,
    sample_distance_matrix,
    walk_point,
    wilson_interval,
)

Z1 = GroupSpec.lattice(1)
Z2 = GroupSpec.lattice(2)
Z3 = GroupSpec.lattice(3)
F2 = GroupSpec.free(2)
F3 = GroupSpec.free(3)
HEIS = GroupSpec.heisenberg()


def random_dict_scenery(spec, rng, radius=6):
    """Scenery with random bits on everything a short walk can reach."""
    frontier = [identity(spec)]
    seen = {identity(spec).data}
    for _ in range(radius):
        nxt = []
        for e in frontier:
            for s in range(spec.alphabet_size):
                child = multiply(e, symbol_element(spec, s))
                if child.data not in seen:
                    seen.add(child.data)
                    nxt.append(child)
        frontier = nxt
    return DictScenery({k: int(rng.integers(0, 2)) for k in seen})


def scalar_levels(spec, tail, depth):
    """Reference walk: every level's elements, stepped one at a time with multiply."""
    steps = [symbol_element(spec, s) for s in range(spec.alphabet_size)]
    levels, prev = [], [tail]
    for _ in range(depth):
        prev = [multiply(parent, st) for parent in prev for st in steps]
        levels.append(prev)
    return levels


def scalar_read_bits(scenery, levels):
    return [np.array([scenery.value(e) for e in level], dtype=np.uint8) for level in levels]


def free_tail(spec, length):
    """A reduced free-group word of the given length (no cancellation)."""
    letters = [1, spec.s] if spec.s > 1 else [1]
    return GroupElement(spec, tuple(letters[i % len(letters)] for i in range(length)))


READER_CASES = [
    (Z1, 8),
    (Z2, 8),
    (GroupSpec.lattice(3), 6),
    (GroupSpec.free(1), 8),
    (F2, 8),
    (GroupSpec.free(3), 5),
    (HEIS, 8),
    (GroupSpec.lattice(40), 2),  # 5^40 > 2^63: the row keys fall back to ranks
    (GroupSpec.free(11), 3),  # letters 10 and 11 take two digits in the hash key
]


class TestArrayReader:
    @pytest.mark.parametrize(
        "spec,depth", READER_CASES, ids=[f"{s.describe()}-{d}" for s, d in READER_CASES]
    )
    def test_bitwise_equal_to_scalar_reference(self, spec, depth):
        rng = np.random.default_rng(depth * 31 + spec.alphabet_size)
        walked = identity(spec)
        for sym in rng.integers(0, spec.alphabet_size, size=depth + 3):
            walked = multiply(walked, symbol_element(spec, int(sym)))
        tails = [identity(spec), walked]
        if spec.kind == "free":
            tails += [free_tail(spec, depth + 3), free_tail(spec, 1)]
        for tail in tails:
            levels = scalar_levels(spec, tail, depth)
            dict_scenery = DictScenery(
                {e.data: int(rng.integers(0, 2)) for level in levels for e in level[::3]},
                default=1,
            )
            for scenery in (Scenery(int(rng.integers(1, 1 << 62))), dict_scenery):
                got = _read_bits(spec, WalkPoint(scenery, tail, 1), depth)
                want = scalar_read_bits(scenery, levels)
                assert len(got) == depth
                for g, w in zip(got, want):
                    assert g.dtype == np.uint8
                    assert np.array_equal(g, w)

    def test_rank_rows_matches_unique_along_rows(self):
        # classing relies on ranks numbering rows as np.unique(axis=0) does
        rng = np.random.default_rng(5)
        big = 1 << 32
        for rows in (
            rng.integers(-3, 4, size=(200, 5)),
            # wrapping arithmetic would give (1, 0, 0) and (0, 1, 2^32) one key
            np.array([[1, 0, 0], [0, 1, big], [0, big, 0], [1, 0, 0]]),
            rng.integers(0, 1 << 40, size=(50, 3)),
            # columns spanning 2^62 or more
            np.array([[1, 0, 2], [0, 1 << 62, 1], [0, (1 << 62) + 3, 0], [1, 0, 2], [0, 7, 1]]),
            np.column_stack(
                [rng.integers(0, 3, 60), rng.integers(-(1 << 62), 1 << 62, 60), rng.integers(0, 3, 60)]
            ),
        ):
            first, ranks = _rank_rows(rows)
            _, want_first, want_ranks = np.unique(rows, axis=0, return_index=True, return_inverse=True)
            assert np.array_equal(first, want_first)
            assert np.array_equal(ranks, want_ranks.ravel())

    def test_far_tail_refused(self):
        far = GroupElement(HEIS, (1 << 40, 0, 0))
        with pytest.raises(SizeCapError):
            _read_bits(HEIS, WalkPoint(Scenery(1), far, 1), 2)

    def test_depth_zero_reads_nothing(self):
        assert _read_bits(F2, walk_point(F2, 1, 1), 0) == []


class TestReadPlan:
    @pytest.fixture
    def builds(self, monkeypatch):
        """Count the level builds behind each fresh read plan."""
        walksim._read_plan.cache_clear()
        calls = []

        def counting(build):
            def levels(spec, tail, depth):
                calls.append((tail, depth))
                return build(spec, tail, depth)

            return levels

        for name in ("_free_levels", "_additive_levels"):
            monkeypatch.setattr(walksim, name, counting(getattr(walksim, name)))
        yield calls
        walksim._read_plan.cache_clear()

    @pytest.mark.parametrize("spec", [Z2, F2, HEIS], ids=lambda s: s.describe())
    def test_plan_built_once_per_shape(self, builds, spec):
        tail = identity(spec)
        first = _read_bits(spec, WalkPoint(Scenery(1), tail, 1), 4)
        _read_bits(spec, WalkPoint(Scenery(2), tail, 1), 4)
        _read_bits(spec, WalkPoint(DictScenery({}, default=1), tail, 1), 4)
        assert builds == [(tail.data, 4)]
        # a shallower read is another shape
        _read_bits(spec, WalkPoint(Scenery(1), tail, 1), 3)
        assert len(builds) == 2
        again = _read_bits(spec, WalkPoint(Scenery(1), tail, 1), 4)
        assert all(np.array_equal(a, b) for a, b in zip(first, again))

    @pytest.mark.parametrize("spec", [Z2, F2, HEIS], ids=lambda s: s.describe())
    def test_other_tail_rebuilds(self, builds, spec):
        step = symbol_element(spec, 0)
        _read_bits(spec, WalkPoint(Scenery(1), identity(spec), 1), 4)
        _read_bits(spec, WalkPoint(Scenery(1), step, 1), 4)
        assert builds == [(identity(spec).data, 4), (step.data, 4)]

    def test_far_tail_not_cached(self, builds):
        far = GroupElement(HEIS, (1 << 40, 0, 0))
        for _ in range(2):
            with pytest.raises(SizeCapError):
                _read_bits(HEIS, WalkPoint(Scenery(1), far, 1), 2)
        assert len(builds) == 2
        assert walksim._read_plan.cache_info().currsize == 0

    def test_index_read_only(self):
        sizes, inverse, elements, keys = walksim._read_plan(F2, (), 3)
        assert sizes == (4, 16, 64)
        assert len(inverse) == sum(sizes)
        assert not inverse.flags.writeable
        with pytest.raises(ValueError):
            inverse[0] = 0
        assert isinstance(elements, tuple) and isinstance(keys, tuple)
        assert keys == tuple(GroupElement(F2, data).norm_key() for data in elements)


def per_pair_distance(engine, px, py):
    """Reference kernel: the distance of one pair from tables over that pair's
    classes alone.  At each height h a class is the rank of a subtree's sorted
    (child bit, child class) tuple among the pair's own tuples, and the height
    is solved through the 2L x 2L extended table [[w, w + u], [w + u, w]]
    indexed by (child bit, child class), u = r^(h-1).  Tables hold the integer
    numerators r^h * (distance * height), divided once at the end."""
    r, height = engine.r, engine.height
    bits = [engine.profile(px), engine.profile(py)]
    perms = [np.array(p) for p in itertools.permutations(range(r))]
    lanes = np.arange(r)
    w = np.zeros((1, 1), dtype=np.int64)
    cls = [[0] * r**height, [0] * r**height]  # height 0: one class
    own = [[0], [0]]  # each point's sorted classes one height down
    for h in range(1, height + 1):
        rows = []
        for b, c in zip(bits, cls):
            children = list(zip(b[height - h].tolist(), c))
            rows.append([tuple(sorted(children[k : k + r])) for k in range(0, len(children), r)])
        ranked = sorted(set(rows[0]) | set(rows[1]))
        rank = {row: i for i, row in enumerate(ranked)}
        cls = [[rank[row] for row in point_rows] for point_rows in rows]
        below = [{c: i for i, c in enumerate(o)} for o in own]
        own = [sorted(set(c)) for c in cls]
        lx, ly = w.shape
        u = r ** (h - 1)
        ext = np.block([[w, w + u], [w + u, w]])
        rows_x = np.array([[bit * lx + below[0][c] for bit, c in ranked[k]] for k in own[0]])
        rows_y = np.array([[bit * ly + below[1][c] for bit, c in ranked[k]] for k in own[1]])
        gathered = ext[rows_x[:, None, :, None], rows_y[None, :, None, :]]
        best = None
        for perm in perms:
            cost = gathered[:, :, lanes, perm].sum(axis=2)
            best = cost if best is None else np.minimum(best, cost)
        w = best
    return int(w[0, 0]) / (r**height * height)


TABLE_SPECS = [Z1, Z2, Z3, F2, F3, HEIS]


class TestDistanceTable:
    @pytest.mark.parametrize("m_of_n", [1, 2, None], ids=["m1", "m2", "mn"])
    @pytest.mark.parametrize("spec", TABLE_SPECS, ids=lambda s: s.describe())
    def test_bitwise_equal_to_per_pair_kernel(self, spec, m_of_n):
        n = 3 if spec.alphabet_size > 4 else 4
        m = n if m_of_n is None else m_of_n
        engine = WalkDistanceEngine(spec, n, m)
        seeds = np.random.default_rng(100 * n + m + spec.alphabet_size).integers(1, 1 << 62, size=7)
        pts = [walk_point(spec, int(a), m) for a in seeds]
        ref = np.array([[per_pair_distance(engine, px, py) for py in pts] for px in pts])
        shapes = [
            (range(7), range(7)),  # square
            ([2], range(7)),  # 1 x k
            ([0, 4, 5], [1, 2, 3, 6]),  # k x k'
            ([6, 1], [5]),
        ]
        for rows, cols in shapes:
            got = engine.distance_table([pts[i] for i in rows], [pts[j] for j in cols])
            assert got.dtype == np.float64
            assert got.tobytes() == ref[np.ix_(list(rows), list(cols))].tobytes()
        assert engine.distance(pts[0], pts[3]) == ref[0, 3]

    @pytest.mark.parametrize("spec", [Z2, F3], ids=lambda s: s.describe())
    def test_chunked_table_equals_reference(self, spec, monkeypatch):
        # budgets of a few cells split the table along rows and columns
        n = 2 if spec.alphabet_size > 4 else 4
        engine = WalkDistanceEngine(spec, n, n)
        seeds = np.random.default_rng(3).integers(1, 1 << 62, size=6)
        pts = [walk_point(spec, int(a), n) for a in seeds]
        ref = np.array([[per_pair_distance(engine, px, py) for py in pts] for px in pts])
        r2 = spec.alphabet_size**2
        for budget in (r2, 3 * r2, 40 * r2):
            monkeypatch.setattr(walksim, "_GATHER_BUDGET", budget)
            assert engine.distance_table(pts, pts).tobytes() == ref.tobytes()
            assert engine.distance_table(pts[:2], pts[3:]).tobytes() == ref[:2, 3:].tobytes()

    def test_square_table_profiles_each_point_once(self, monkeypatch):
        engine = WalkDistanceEngine(Z2, 3, 3)
        pts = [walk_point(Z2, a, 3) for a, _ in walksim._pair_seeds(6, 5)]
        calls = []
        profile = WalkDistanceEngine.profile
        monkeypatch.setattr(
            WalkDistanceEngine, "profile", lambda self, p: calls.append(p) or profile(self, p)
        )
        square = engine.distance_table(pts, pts)
        assert [id(p) for p in calls] == [id(p) for p in pts]
        assert square.tobytes() == engine.distance_table(pts, list(pts)).tobytes()

    @pytest.mark.parametrize("spec", [F3, Z3], ids=lambda s: s.describe())
    def test_pair_value_independent_of_history(self, spec):
        pts = [walk_point(spec, a, 2) for a, _ in walksim._pair_seeds(0, 40)]
        engine = WalkDistanceEngine(spec, 2, 2)
        engine.distance_table(pts[::-1], pts[::-1])
        # the pairs of the first 20 points: all 1,600 take half a minute
        for i, j in itertools.combinations(range(20), 2):
            fresh = WalkDistanceEngine(spec, 2, 2).distance(pts[i], pts[j])
            assert engine.distance(pts[i], pts[j]) == fresh, (i, j)

    def test_distance_matrix_equals_reference(self):
        n, m, points, seed = 3, 3, 9, 4
        d = sample_distance_matrix(F3, n, m, points=points, master_seed=seed)
        engine = WalkDistanceEngine(F3, n, m)
        pts = [walk_point(F3, a, m) for a, _ in walksim._pair_seeds(seed, points)]
        for i, j in itertools.product(range(points), repeat=2):
            assert d[i, j] == per_pair_distance(engine, pts[i], pts[j]), (i, j)
        assert np.all(np.diag(d) == 0.0)


def left_to_right_permutation_minimum(c):
    """Reference matching: every one of the r! permutations p, each sum
    c[0, p[0]] + c[1, p[1]] + ... added strictly left to right."""
    r = len(c)
    best = None
    for perm in itertools.permutations(range(r)):
        total = c[0, perm[0]].copy()
        for i in range(1, r):
            total = total + c[i, perm[i]]
        best = total if best is None else np.minimum(best, total)
    return best


class TestMinMatching:
    @pytest.mark.parametrize("r", range(2, 8))
    def test_subset_dp_equals_permutation_minimum(self, r):
        rng = np.random.default_rng(50 + r)
        # few distinct values, so ties are common, and none of them dyadic
        costs = rng.integers(0, 9, size=(r, r, 4, 5)) / (3.0 * r) + rng.integers(0, 2, size=(r, r, 4, 5))
        uniform = rng.random((r, r, 4, 5))
        # int64 numerators as the engine makes them, here past 2^53, where a
        # float sum would round: the minimum stays exact and int64
        numerators = rng.integers(0, 9, size=(r, r, 4, 5)) + (1 << 58)
        for c in (costs, uniform, numerators):
            want = left_to_right_permutation_minimum(c)
            got = walksim._min_matching(c)
            assert got.dtype == c.dtype and got.shape == (4, 5) and got.tobytes() == want.tobytes()


PAIR_SPECS = [Z1, Z2, F2, F3, HEIS]


class TestDistancePairs:
    @pytest.mark.parametrize("spec", PAIR_SPECS, ids=lambda s: s.describe())
    def test_bitwise_equal_to_per_pair_distance(self, spec, monkeypatch):
        n = 3 if spec.alphabet_size > 4 else 4
        seeds = walksim._pair_seeds(9, 7)
        xs = [walk_point(spec, a, n) for a, _ in seeds]
        ys = [walk_point(spec, b, n) for _, b in seeds]
        want = np.array([WalkDistanceEngine(spec, n, n).distance(px, py) for px, py in zip(xs, ys)])
        engine = WalkDistanceEngine(spec, n, n)
        oracle = np.array([per_pair_distance(engine, px, py) for px, py in zip(xs, ys)])
        assert want.tobytes() == oracle.tobytes()
        r2, leaves = spec.alphabet_size**2, 2 * spec.alphabet_size**n
        # one cell per chunk; chunks of 5 cells cutting across blocks; batches
        # of 3 pairs (7 pairs: the last batch holds one); one batch
        for budget in (r2, 5 * r2, 3 * leaves, 10 * leaves):
            monkeypatch.setattr(walksim, "_GATHER_BUDGET", budget)
            got = WalkDistanceEngine(spec, n, n).distance_pairs(xs, ys)
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes()

    def test_empty_and_mismatched(self):
        engine = WalkDistanceEngine(F2, 3, 3)
        pts = [walk_point(F2, a, 3) for a, _ in walksim._pair_seeds(1, 3)]
        assert engine.distance_pairs([], []).shape == (0,)
        assert engine.distance_table([], pts).shape == (0, 3)
        assert engine.distance_table(pts, []).shape == (3, 0)
        with pytest.raises(StructuralError):
            engine.distance_pairs(pts, pts[:2])

    @pytest.mark.parametrize("spec", PAIR_SPECS, ids=lambda s: s.describe())
    def test_mean_profile_equals_per_pair_distance(self, spec, monkeypatch):
        n_max, m, pairs, seed = (3, 2, 5, 4) if spec.alphabet_size > 4 else (4, 3, 5, 4)
        seeds = walksim._pair_seeds(seed, pairs)
        want = {}
        for n in range(1, n_max + 1):
            engine = WalkDistanceEngine(spec, n, m)
            values = [engine.distance(walk_point(spec, a, m), walk_point(spec, b, m)) for a, b in seeds]
            mean = float(np.mean(values))
            half = 1.96 * float(np.std(values, ddof=1)) / np.sqrt(pairs)
            want[n] = (m, mean, mean - half, mean + half)
        reads = []

        def counting_read(spec, point, depth):
            reads.append(depth)
            return _read_bits(spec, point, depth)

        monkeypatch.setattr(walksim, "_read_bits", counting_read)
        # batches of 2 pairs at the deepest level, chunks that split blocks
        monkeypatch.setattr(walksim, "_GATHER_BUDGET", 4 * spec.alphabet_size**m)
        estimates = mean_distance_profile(spec, n_max=n_max, m=m, pairs=pairs, master_seed=seed)
        assert {e.n: (e.m, e.mean, e.ci_low, e.ci_high) for e in estimates} == want
        assert len(reads) == 2 * pairs and set(reads) == {m}


class TestHammingBase:
    def test_equals_full_cylinder_hamming(self):
        # uncached, so the 4096 x 4096 matrix at 12 bits is not kept
        for n in range(1, 13):
            assert hamming_base.__wrapped__(n).d.tobytes() == cylinder_hamming(n, n).d.tobytes()

    def test_label_cap(self):
        with pytest.raises(SizeCapError):
            hamming_base(13)


class TestLeafObservations:
    def test_z1_two_leaves(self):
        p = walk_point(Z1, seed=5, m=1)
        system = leaf_observations(p, Z1, 1)
        assert system.n_leaves == 2
        plus = p.scenery.value(GroupElement(Z1, (1,)))
        minus = p.scenery.value(GroupElement(Z1, (-1,)))
        assert list(system.labels) == [plus, minus]

    def test_equal_points_distance_zero(self):
        p = walk_point(F2, seed=9, m=3)
        q = WalkPoint(scenery=p.scenery, tail_position=p.tail_position, m=3)
        assert pair_distance(p, q, F2, 3) == 0.0

    def test_constant_scenery_all_labels_equal(self):
        p = WalkPoint(scenery=DictScenery({}, default=0), tail_position=identity(Z2), m=2)
        q = WalkPoint(scenery=DictScenery({}, default=0), tail_position=identity(Z2), m=2)
        system = leaf_observations(p, Z2, 2)
        assert np.all(system.labels == 0)
        assert pair_distance(p, q, Z2, 2) == 0.0

    def test_cap(self):
        p = walk_point(F2, seed=1, m=10)
        with pytest.raises(SizeCapError):
            leaf_observations(p, F2, 10, leaf_cap=1 << 14)

    def test_truncation_repeats_labels(self):
        p = walk_point(Z1, seed=3, m=2)
        sys4 = leaf_observations(p, Z1, 4)
        assert sys4.n_leaves == 16
        # labels constant on blocks of 2^(4-2)
        blocks = sys4.labels.reshape(4, 4)
        assert np.all(blocks == blocks[:, :1])


def exact_distance():
    """The iterated distance from its definition, in exact rationals, between
    two r-ary trees of one shape given by their leaf labels in lexicographic
    order: leaves labeled a and b lie Fraction(bits of a ^ b, H) apart, and
    two subtrees the least mean distance over the r! matchings of their
    children.  A subtree is the sorted tuple of its children, and one memo
    serves every pair of subtrees across calls."""

    @functools.cache
    def between(a, b, height):
        if isinstance(a, int):
            return Fraction((a ^ b).bit_count(), height)
        costs = [[between(ca, cb, height) for cb in b] for ca in a]
        # the matching sums over one common denominator, as Python ints
        den = math.lcm(*(c.denominator for row in costs for c in row))
        nums = [[c.numerator * (den // c.denominator) for c in row] for row in costs]
        sums = (sum(map(list.__getitem__, nums, p)) for p in itertools.permutations(range(len(a))))
        return Fraction(min(sums), den * len(a))

    def tree(labels, r):
        nodes = list(labels)
        while len(nodes) > 1:
            nodes = [tuple(sorted(nodes[k : k + r])) for k in range(0, len(nodes), r)]
        return nodes[0]

    def distance(x, y, r, height):
        """Between the trees whose leaves carry the `height`-bit labels x and y."""
        return between(tree(x, r), tree(y, r), height)

    return distance


def packed_labels(spec, point, height):
    """Leaf labels at depth `height` packed from `_read_bits` as
    `leaf_observations` packs them, without its 2^height x 2^height base."""
    r = spec.alphabet_size
    labels = np.zeros(r**height, dtype=np.int64)
    for j, bits in enumerate(_read_bits(spec, point, height), start=1):
        labels += np.repeat(bits.astype(np.int64), r ** (height - j)) << (height - j)
    return labels.tolist()


class TestEngineAgainstReference:
    @pytest.mark.parametrize("spec", [Z3, F3], ids=lambda s: s.describe())
    def test_equals_exact_definition(self, spec):
        # r = 6: distances are not dyadic, so only an exact table rounded
        # once gives the correctly rounded value; n = 3, m = 2 truncates
        distance = exact_distance()
        for n, m, points in ((2, 2, 6), (3, 2, 5), (3, 3, 5)):
            engine = WalkDistanceEngine(spec, n, m)
            pts = [walk_point(spec, a, m) for a, _ in walksim._pair_seeds(5, points)]
            for px, py in itertools.combinations(pts, 2):
                x, y = (leaf_observations(p, spec, n).labels.tolist() for p in (px, py))
                exact = distance(x, y, spec.alphabet_size, min(m, n))
                assert engine.distance(px, py) == engine.distance(py, px) == float(exact), (n, m)

    def test_height_past_the_label_matrix_cap(self):
        # 2^13 leaves fit the default leaf cap; only hamming_base stops at 12 bits
        distance = exact_distance()
        engine = WalkDistanceEngine(Z1, 13, 13)
        pts = [
            WalkPoint(DictScenery(dict.fromkeys(ones, 1)), identity(Z1), 13)
            for ones in ([(3,)], [(-2,), (5,)], [(-6,)], [(2,), (-3,)])
        ]
        for px, py in itertools.combinations(pts, 2):
            exact = distance(packed_labels(Z1, px, 13), packed_labels(Z1, py, 13), 2, 13)
            assert exact > 0
            assert engine.distance(px, py) == float(exact)

    @pytest.mark.parametrize("spec", [Z1, Z2, F2, HEIS], ids=lambda s: s.describe())
    def test_matches_tree_distance(self, spec):
        rng = np.random.default_rng(hash(spec.kind) % 2**31)
        n_cases = 12 if spec.alphabet_size > 2 else 25
        for case in range(n_cases):
            n = int(rng.integers(1, 4)) if spec.alphabet_size > 2 else int(rng.integers(1, 5))
            m = int(rng.integers(1, n + 1))
            px = WalkPoint(random_dict_scenery(spec, rng, radius=n), identity(spec), m)
            py = WalkPoint(random_dict_scenery(spec, rng, radius=n), identity(spec), m)
            fast = pair_distance(px, py, spec, n)
            ref = tree_distance(
                leaf_observations(px, spec, n), leaf_observations(py, spec, n)
            )
            assert fast == pytest.approx(ref, abs=1e-12)

    def test_truncation_equals_deep_tree(self):
        # labels only depend on the first m symbols, so depth n > m collapses
        rng = np.random.default_rng(42)
        for spec in (Z1, Z2):
            px = WalkPoint(random_dict_scenery(spec, rng), identity(spec), 2)
            py = WalkPoint(random_dict_scenery(spec, rng), identity(spec), 2)
            deep = tree_distance(
                leaf_observations(px, spec, 4, leaf_cap=1 << 16),
                leaf_observations(py, spec, 4, leaf_cap=1 << 16),
            )
            assert pair_distance(px, py, spec, 4) == pytest.approx(deep, abs=1e-12)

    def test_symmetric_exactly(self):
        rng = np.random.default_rng(7)
        for spec in (F2, F3, Z3):
            engine = WalkDistanceEngine(spec, 3, 3)
            for _ in range(10):
                px = walk_point(spec, int(rng.integers(1, 1 << 30)), 3)
                py = walk_point(spec, int(rng.integers(1, 1 << 30)), 3)
                assert engine.distance(px, py) == engine.distance(py, px)
            pts = [walk_point(spec, a, 3) for a, _ in walksim._pair_seeds(11, 12)]
            table = engine.distance_table(pts, pts)
            assert np.array_equal(table, table.T) and np.all(np.diag(table) == 0.0)

    def test_identity_matching_upper_bound(self):
        rng = np.random.default_rng(8)
        for spec in (Z1, F2):
            engine = WalkDistanceEngine(spec, 4, 4)
            for _ in range(15):
                px = walk_point(spec, int(rng.integers(1, 1 << 30)), 4)
                py = walk_point(spec, int(rng.integers(1, 1 << 30)), 4)
                d = engine.distance(px, py)
                bound = identity_matching_average(px, py, spec, 4)
                assert d <= bound + 1e-12

    def test_mismatched_m_raises(self):
        px = walk_point(Z1, 1, 2)
        py = walk_point(Z1, 2, 3)
        with pytest.raises(StructuralError):
            pair_distance(px, py, Z1, 3)


class TestAgreementWithFiltrationModule:
    def test_explicit_z1_depth2_model(self):
        # Exhaustive finite model of the depth-2 walk over Z^1:
        # points = (word, scenery restriction), chain frees the last increments.
        spec = Z1
        n = 2
        read_positions = [(1,), (-1,), (2,), (0,), (-2,)]
        pos_index = {p: k for k, p in enumerate(read_positions)}
        n_sceneries = 1 << len(read_positions)
        words = [(a, b) for a in range(2) for b in range(2)]

        def observe(word, f_bits):
            pos = identity(spec)
            bits = []
            for sym in word:
                pos = multiply(pos, symbol_element(spec, sym))
                bits.append((f_bits >> pos_index[pos.data]) & 1)
            return bits

        size = len(words) * n_sceneries
        base = hamming_base(n)
        labels = np.zeros((len(words), n_sceneries), dtype=int)
        for wi, w in enumerate(words):
            for f in range(n_sceneries):
                b = observe(w, f)
                labels[wi, f] = (b[0] << 1) | b[1]

        def point(wi, f):
            return wi * n_sceneries + f

        rho0 = np.zeros((size, size))
        for wi in range(len(words)):
            for f in range(n_sceneries):
                for wj in range(len(words)):
                    for g in range(n_sceneries):
                        rho0[point(wi, f), point(wj, g)] = base.d[labels[wi, f], labels[wj, g]]
        rho0 = SemimetricMatrix(rho0)
        mu = DiscreteMeasure.uniform(size)

        # xi_1 frees the last increment (same first symbol, same scenery);
        # xi_2 frees both increments (same scenery)
        xi1 = Partition(np.array([(wi // 2) * n_sceneries + f for wi in range(4) for f in range(n_sceneries)]))
        xi2 = Partition(np.array([f for _ in range(4) for f in range(n_sceneries)]))
        chain = PartitionChain(size, (xi1, xi2))
        levels = iterate_semimetric(rho0, mu, chain)
        rho2 = levels[1].matrix.d  # quotient over sceneries

        rng = np.random.default_rng(0)
        for _ in range(25):
            f, g = rng.integers(0, n_sceneries, size=2)
            sf = DictScenery({p: (int(f) >> k) & 1 for p, k in pos_index.items()})
            sg = DictScenery({p: (int(g) >> k) & 1 for p, k in pos_index.items()})
            px = WalkPoint(sf, identity(spec), n)
            py = WalkPoint(sg, identity(spec), n)
            assert pair_distance(px, py, spec, n) == pytest.approx(rho2[f, g], abs=1e-12)

    @pytest.mark.parametrize(
        "spec, n", [(Z1, 3), (Z2, 2), (F2, 2), (HEIS, 2)], ids=["Z1-3", "Z2-2", "F2-2", "heis-2"]
    )
    @pytest.mark.parametrize("m_is_n", [False, True], ids=["m=1", "m=n"])
    def test_engine_matches_explicit_model(self, spec, n, m_is_n):
        # the paper's definition on a finite model: points are (scenery,
        # increment word), labeled by the bits read after each of the first
        # min(m, n) steps; xi_k forgets the last k increments, so level n is
        # the iterated distance between sceneries
        m, r, seeds = (n if m_is_n else 1), spec.alphabet_size, [3, 17, 29, 101]
        height = min(m, n)
        labels = []
        for seed in seeds:
            scenery = Scenery(seed)
            for word in itertools.product(range(r), repeat=n):
                pos, label = identity(spec), 0
                for sym in word[:height]:
                    pos = multiply(pos, symbol_element(spec, sym))
                    label = 2 * label + scenery.value(pos)
                labels.append(label)
        labels = np.asarray(labels)
        size = len(labels)
        rho0 = SemimetricMatrix(hamming_base(height).d[np.ix_(labels, labels)])
        chain = PartitionChain(size, [Partition(np.arange(size) // r**k) for k in range(1, n + 1)])
        model = iterate_semimetric(rho0, DiscreteMeasure.uniform(size), chain)[n - 1].matrix.d
        points = [walk_point(spec, seed, m) for seed in seeds]
        table = WalkDistanceEngine(spec, n, m).distance_table(points, points)
        np.testing.assert_allclose(table, model, rtol=0, atol=1e-12)


class TestInvariances:
    @pytest.mark.parametrize("spec", [Z1, Z2, HEIS], ids=lambda s: s.describe())
    def test_left_translation_invariance(self, spec):
        # translating both tails by h and the sceneries accordingly changes nothing
        class Translated:
            def __init__(self, inner, h_inv):
                self.inner = inner
                self.h_inv = h_inv

            def value(self, element):
                return self.inner.value(multiply(self.h_inv, element))

        rng = np.random.default_rng(11)
        for _ in range(6):
            s1 = random_dict_scenery(spec, rng, radius=5)
            s2 = random_dict_scenery(spec, rng, radius=5)
            h = identity(spec)
            for sym in rng.integers(0, spec.alphabet_size, size=3):
                h = multiply(h, symbol_element(spec, int(sym)))
            px = WalkPoint(s1, identity(spec), 2)
            py = WalkPoint(s2, identity(spec), 2)
            qx = WalkPoint(Translated(s1, inverse(h)), h, 2)
            qy = WalkPoint(Translated(s2, inverse(h)), h, 2)
            assert pair_distance(px, py, spec, 2) == pair_distance(qx, qy, spec, 2)


class TestMonteCarloDrivers:
    def test_wilson_interval(self):
        lo, hi = wilson_interval(50, 100)
        assert lo < 0.5 < hi
        assert wilson_interval(0, 100)[0] == 0.0
        assert wilson_interval(100, 100)[1] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("successes, trials", [(5, 3), (-1, 3)])
    def test_wilson_interval_rejects_successes_outside_trials(self, successes, trials):
        with pytest.raises(StructuralError, match="successes"):
            wilson_interval(successes, trials)

    def test_mean_profile_nonincreasing_z1(self):
        estimates = mean_distance_profile(Z1, n_max=4, pairs=60, master_seed=123)
        for a, b in zip(estimates, estimates[1:]):
            assert b.mean <= a.mean + (a.ci_high - a.ci_low) + (b.ci_high - b.ci_low)

    @pytest.mark.parametrize("m", [4, None])
    def test_mean_profile_equals_fresh_engines(self, m):
        # shared reads across n must give what per-n engines built from
        # scratch give, with the pair seeds drawn from Philox (seed, index)
        n_max, pairs, seed = 5, 6, 17
        estimates = mean_distance_profile(F2, n_max=n_max, m=m, pairs=pairs, master_seed=seed)
        assert [e.n for e in estimates] == list(range(1, n_max + 1))
        for e in estimates:
            m_n = e.n if m is None else m
            engine = WalkDistanceEngine(F2, e.n, m_n)
            values = []
            for i in range(pairs):
                gen = np.random.Generator(np.random.Philox(key=(seed << 64) | i))
                a, b = gen.integers(1, 1 << 62, size=2)
                values.append(engine.distance(walk_point(F2, int(a), m_n), walk_point(F2, int(b), m_n)))
            mean = float(np.mean(values))
            half = 1.96 * float(np.std(values, ddof=1)) / np.sqrt(pairs)
            assert (e.m, e.mean, e.ci_low, e.ci_high) == (m_n, mean, mean - half, mean + half)

    def test_ball_measure_trivial_epsilon(self):
        p = walk_point(Z1, 77, 3)
        est = ball_measure_estimate(p, Z1, 3, epsilon=1.1, samples=100, master_seed=5)
        assert est.fraction == 1.0
        est0 = ball_measure_estimate(p, Z1, 3, epsilon=0.0, samples=100, master_seed=5)
        assert est0.fraction == 0.0

    def test_ball_measure_monotone_in_epsilon(self):
        p = walk_point(F2, 13, 4)
        fractions = [
            ball_measure_estimate(p, F2, 4, eps, samples=120, master_seed=3).fraction
            for eps in (0.1, 0.3, 0.6)
        ]
        assert fractions == sorted(fractions)

    def test_ball_profile_reads_each_point_once(self, monkeypatch):
        reads = []

        def counting_read(spec, point, depth):
            reads.append(depth)
            return _read_bits(spec, point, depth)

        monkeypatch.setattr(walksim, "_read_bits", counting_read)
        p = walk_point(F2, 13, 3)
        levels = [3, 2, 4]
        shared = ball_measure_profile(p, F2, levels, 0.3, samples=100, master_seed=8)
        assert len(reads) == 100 + 1
        assert set(reads) == {3}
        assert [e.n for e in shared] == levels
        for est in shared:
            assert est == ball_measure_estimate(p, F2, est.n, 0.3, samples=100, master_seed=8)

    def test_distance_matrix_symmetric_and_deterministic(self):
        d1 = sample_distance_matrix(F2, 3, 3, points=8, master_seed=21)
        assert np.array_equal(d1, sample_distance_matrix(F2, 3, 3, points=8, master_seed=21))
        assert np.array_equal(d1, d1.T)
        assert np.all(np.diag(d1) == 0)
        assert sample_distance_matrix(F2, 3, 3, points=0).shape == (0, 0)
