import json
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from filtlab.errors import SizeCapError, StructuralError, UnsupportedGroupError
from filtlab.groups import (
    HEISENBERG_EXACT_NORM_CAP,
    DictScenery,
    GroupElement,
    GroupSpec,
    Scenery,
    generator,
    identity,
    inverse,
    _heisenberg_bounds,
    _heisenberg_brackets,
    _heisenberg_norm_bounds,
    _prefix_norm_bounds,
    meeting_diagnostic,
    multiply,
    prefix_products,
    sample_increments,
    step_rows,
    symbol_element,
    weighted_rank,
    word_norm,
    word_norm_bounds,
)

SPECS = [GroupSpec.lattice(1), GroupSpec.lattice(2), GroupSpec.free(2), GroupSpec.heisenberg()]
KERNEL_SPECS = [
    GroupSpec.lattice(1),
    GroupSpec.lattice(2),
    GroupSpec.free(2),
    GroupSpec.free(3),
    GroupSpec.heisenberg(),
]
SRC = Path(__file__).resolve().parent.parent / "src"


def random_element(spec, rng, length=8):
    e = identity(spec)
    for sym in rng.integers(0, spec.alphabet_size, size=length):
        e = multiply(e, symbol_element(spec, int(sym)))
    return e


class TestArithmetic:
    def test_lattice_addition(self):
        spec = GroupSpec.lattice(2)
        a = GroupElement(spec, (1, 0))
        b = GroupElement(spec, (0, 1))
        assert multiply(a, b).data == (1, 1)

    def test_free_reduction(self):
        spec = GroupSpec.free(2)
        a = generator(spec, 0)
        assert multiply(a, inverse(a)).data == ()

    def test_heisenberg_commutator_is_central_generator(self):
        spec = GroupSpec.heisenberg()
        x = GroupElement(spec, (1, 0, 0))
        y = GroupElement(spec, (0, 1, 0))
        comm = multiply(multiply(multiply(x, y), inverse(x)), inverse(y))
        assert comm.data == (0, 0, 1)

    def test_mixed_specs_raise(self):
        with pytest.raises(StructuralError):
            multiply(identity(GroupSpec.lattice(1)), identity(GroupSpec.lattice(2)))

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.describe())
    def test_group_axioms(self, spec):
        rng = np.random.default_rng(0)
        e = identity(spec)
        for _ in range(500):
            a = random_element(spec, rng)
            b = random_element(spec, rng)
            c = random_element(spec, rng)
            assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))
            assert multiply(a, inverse(a)) == e
            assert multiply(e, a) == a
            assert multiply(a, e) == a


def replayed_products(spec, symbols):
    """Every running product of the symbols' generators, by multiply."""
    prod, out = identity(spec), []
    for sym in symbols:
        prod = multiply(prod, symbol_element(spec, int(sym)))
        out.append(prod)
    return out


def bracket_pairs(bounds):
    """(lower, upper) arrays of brackets -> a list of (lower, upper) int pairs."""
    lower, upper = bounds
    return list(zip(lower.tolist(), upper.tolist()))


@lru_cache(maxsize=None)
def heisenberg_spheres(radius):
    """Spheres 0..radius of the Heisenberg Cayley graph, by a BFS on multiply."""
    spec = GroupSpec.heisenberg()
    steps = [symbol_element(spec, s) for s in range(spec.alphabet_size)]
    spheres = [[identity(spec)]]
    seen = {identity(spec)}
    for _ in range(radius):
        sphere = []
        for e in spheres[-1]:
            for g in steps:
                nxt = multiply(e, g)
                if nxt not in seen:
                    seen.add(nxt)
                    sphere.append(nxt)
        spheres.append(sphere)
    return spheres


class TestArrayKernel:
    @pytest.mark.parametrize("spec", [s for s in KERNEL_SPECS if s.kind != "free"], ids=lambda s: s.describe())
    def test_step_rows_match_multiply(self, spec):
        rng = np.random.default_rng(10)
        elements = [random_element(spec, rng, length=12) for _ in range(200)]
        symbols = rng.integers(0, spec.alphabet_size, size=len(elements))
        rows = step_rows(spec, np.array([e.data for e in elements], dtype=np.int64), symbols)
        expected = [multiply(e, symbol_element(spec, int(s))).data for e, s in zip(elements, symbols)]
        assert [tuple(row) for row in rows.tolist()] == expected

    def test_step_rows_refuse_free_words(self):
        with pytest.raises(StructuralError):
            step_rows(GroupSpec.free(2), np.zeros((1, 1), dtype=np.int64), np.zeros(1, dtype=np.int64))

    @pytest.mark.parametrize("spec", KERNEL_SPECS, ids=lambda s: s.describe())
    def test_prefix_products_match_multiply_replay(self, spec):
        symbols = np.random.default_rng(11).integers(0, spec.alphabet_size, size=256)
        replay = replayed_products(spec, symbols)
        if spec.kind != "free":
            rows = prefix_products(spec, symbols)
            assert [tuple(row) for row in rows.tolist()] == [e.data for e in replay]
        assert bracket_pairs(_prefix_norm_bounds(spec, symbols)) == [word_norm_bounds(e) for e in replay]

    def test_far_triples_miss_the_ball(self):
        # unclipped, these would share a ball key: (0, 1, -2^20) the identity's
        spec = GroupSpec.heisenberg()
        far = np.array([[0, 1, -(1 << 20)], [1, 0, -(1 << 40)], [-(1 << 21), 3, 5]])
        expected = [word_norm_bounds(GroupElement(spec, tuple(row))) for row in far.tolist()]
        assert bracket_pairs(_heisenberg_norm_bounds(far)) == expected
        assert all(lo > HEISENBERG_EXACT_NORM_CAP for lo, _ in expected)

    def test_prefix_products_empty(self):
        for spec in (GroupSpec.lattice(2), GroupSpec.heisenberg()):
            assert prefix_products(spec, np.zeros(0, dtype=np.int64)).shape == (0, len(identity(spec).data))


class TestWordNorm:
    def test_lattice_l1(self):
        spec = GroupSpec.lattice(2)
        assert word_norm(GroupElement(spec, (3, -2))) == 5

    def test_free_reduced_length(self):
        spec = GroupSpec.free(2)
        # a b a b^-1
        w = GroupElement(spec, (1, 2, 1, -2))
        assert word_norm(w) == 4

    def test_heisenberg_central_generator(self):
        spec = GroupSpec.heisenberg()
        assert word_norm(GroupElement(spec, (0, 0, 1))) == 4

    def test_heisenberg_bfs_matches_word_construction(self):
        # the norm of a product of k generators is at most k
        spec = GroupSpec.heisenberg()
        rng = np.random.default_rng(1)
        for _ in range(200):
            k = int(rng.integers(0, 10))
            e = identity(spec)
            for sym in rng.integers(0, 4, size=k):
                e = multiply(e, symbol_element(spec, int(sym)))
            assert word_norm(e) <= k

    def test_heisenberg_bracket_beyond_cap(self):
        spec = GroupSpec.heisenberg()
        big = GroupElement(spec, (0, 0, 500))
        lo, hi = word_norm_bounds(big)
        assert lo <= hi
        assert lo > 20
        with pytest.raises(SizeCapError):
            word_norm(big)

    def test_heisenberg_spheres_around_the_cap(self):
        # exact through the cap, then a bracket whose lower end is cap + 1
        assert HEISENBERG_EXACT_NORM_CAP == 20
        spheres = heisenberg_spheres(21)
        for radius in (19, 20):
            assert {word_norm_bounds(e) for e in spheres[radius]} == {(radius, radius)}
        for e in spheres[21]:
            lo, hi = word_norm_bounds(e)
            assert lo == 21 <= hi

    def test_heisenberg_bounds_independent_of_call_order(self):
        # a bracket depends on the element alone: fresh processes calling in
        # different orders agree with each other and with this one
        spheres = heisenberg_spheres(21)
        rng = np.random.default_rng(12)
        data = [spheres[r][i].data for r in (3, 19, 20, 21) for i in rng.choice(len(spheres[r]), size=40)]
        data += [(0, 0, 500), (7, -3, 40), (25, 0, 0), (2, 2, 120)]
        script = (
            "import json, sys\n"
            "from filtlab.groups import GroupElement, GroupSpec, word_norm_bounds\n"
            "spec = GroupSpec.heisenberg()\n"
            "data = [tuple(d) for d in json.loads(sys.stdin.read())]\n"
            "print(json.dumps({repr(d): word_norm_bounds(GroupElement(spec, d)) for d in data}))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        runs = []
        for order in (data, data[::-1], sorted(data, key=lambda d: -abs(d[2]))):
            out = subprocess.run([sys.executable, "-c", script], input=json.dumps(order),
                                 capture_output=True, text=True, env=env, check=True)
            runs.append(json.loads(out.stdout))
        here = {repr(d): list(word_norm_bounds(GroupElement(GroupSpec.heisenberg(), d))) for d in data}
        assert runs[0] == runs[1] == runs[2] == here

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.describe())
    def test_subadditive_and_inverse_invariant(self, spec):
        rng = np.random.default_rng(2)
        for _ in range(200):
            a = random_element(spec, rng, length=5)
            b = random_element(spec, rng, length=5)
            na, nb = word_norm(a), word_norm(b)
            assert word_norm(multiply(a, b)) <= na + nb
            assert word_norm(inverse(a)) == na


class TestWeightedRank:
    def test_lattice(self):
        assert weighted_rank(GroupSpec.lattice(3)) == 3
        assert weighted_rank(GroupSpec.lattice(1)) == 1

    def test_heisenberg(self):
        assert weighted_rank(GroupSpec.heisenberg()) == 4

    def test_free_refused(self):
        with pytest.raises(UnsupportedGroupError):
            weighted_rank(GroupSpec.free(2))


class TestSampleIncrements:
    def test_deterministic(self):
        spec = GroupSpec.free(2)
        a = sample_increments(spec, 100, seed=42)
        b = sample_increments(spec, 100, seed=42)
        assert np.array_equal(a, b)
        c = sample_increments(spec, 100, seed=42, stream=1)
        assert not np.array_equal(a, c)

    def test_empty(self):
        assert sample_increments(GroupSpec.lattice(1), 0, seed=0).size == 0

    def test_symbol_frequencies(self):
        spec = GroupSpec.lattice(2)
        n = 1_000_000
        symbols = sample_increments(spec, n, seed=7)
        counts = np.bincount(symbols, minlength=4)
        p = 1.0 / 4
        sigma = np.sqrt(n * p * (1 - p))
        assert np.all(np.abs(counts - n * p) < 3 * sigma + 1e-9)

    def test_lattice_walk_clt_sanity(self):
        for d in (1, 2):
            spec = GroupSpec.lattice(d)
            for n in (100, 10_000):
                norms = []
                for rep in range(60):
                    syms = sample_increments(spec, n, seed=1000 + rep, stream=d)
                    axis = syms % d
                    sign = np.where(syms >= d, -1, 1)
                    pos = np.zeros(d)
                    np.add.at(pos, axis, sign)
                    norms.append(np.abs(pos).sum())
                ratio = np.mean(norms) / np.sqrt(n)
                assert 0.3 * np.sqrt(d) < ratio < 3 * np.sqrt(d)


class TestSymbolStrings:
    def test_roundtrip(self):
        from filtlab.groups import string_to_symbols, symbols_to_string

        spec = GroupSpec.free(2)
        symbols = sample_increments(spec, 12, seed=3)
        text = symbols_to_string(spec, symbols)
        assert set(text.split()) <= {"g1", "g2", "G1", "G2"}
        assert np.array_equal(string_to_symbols(spec, text), symbols)

    def test_bad_token(self):
        from filtlab.groups import string_to_symbols

        with pytest.raises(StructuralError):
            string_to_symbols(GroupSpec.lattice(1), "g1 h2")


class TestScenery:
    def test_deterministic_across_instances(self):
        spec = GroupSpec.free(2)
        rng = np.random.default_rng(3)
        elements = [random_element(spec, rng) for _ in range(50)]
        s1, s2 = Scenery(99), Scenery(99)
        assert [s1.value(e) for e in elements] == [s2.value(e) for e in elements]

    def test_different_seeds_differ(self):
        spec = GroupSpec.lattice(2)
        rng = np.random.default_rng(4)
        elements = [random_element(spec, rng) for _ in range(64)]
        bits1 = [Scenery(1).value(e) for e in elements]
        bits2 = [Scenery(2).value(e) for e in elements]
        assert bits1 != bits2

    def test_chi_square_independence(self):
        # joint distribution of bits at 4 fixed distinct elements over many
        # seeds should be uniform over 16 patterns
        spec = GroupSpec.lattice(1)
        elements = [GroupElement(spec, (k,)) for k in (0, 1, 5, -3)]
        counts = np.zeros(16)
        n_seeds = 4096
        for seed in range(n_seeds):
            s = Scenery(seed)
            pattern = 0
            for e in elements:
                pattern = (pattern << 1) | s.value(e)
            counts[pattern] += 1
        result = stats.chisquare(counts)
        assert result.pvalue > 0.001

    def test_bits_equal_value(self):
        lattice40 = GroupSpec.lattice(40)
        cases = {
            GroupSpec.lattice(1): [(0,), (7,), (-12345,)],
            lattice40: [(0,) * 40, tuple(range(-20, 20)), (-123456789,) * 40],
            GroupSpec.free(2): [(), (1,), (-2,), (1, -2, -2, 1)],
            GroupSpec.free(11): [(), (10,), (-11, 3, 10, -10), (11,) * 5],
            GroupSpec.heisenberg(): [(0, 0, 0), (-12, 34, 10**6 + 7), (3, -45, -(10**9))],
        }
        rng = np.random.default_rng(6)
        elements = [
            e
            for spec, datas in cases.items()
            for e in [GroupElement(spec, d) for d in datas] + [random_element(spec, rng) for _ in range(20)]
        ]
        # the longest key spans more than one 128-byte BLAKE2b block
        assert max(len(e.norm_key()) for e in elements if e.spec == lattice40) > 128
        for seed in (0, 1, 99, -5, 1 << 63):
            s = Scenery(seed)
            assert s.bits([e.norm_key() for e in elements]) == [s.value(e) for e in elements]
        assert Scenery(3).bits([]) == []

    def test_dict_scenery_hook(self):
        spec = GroupSpec.lattice(1)
        s = DictScenery({(0,): 1}, default=0)
        assert s.value(identity(spec)) == 1
        assert s.value(GroupElement(spec, (3,))) == 0


class TestMeetingDiagnostic:
    def test_alternating_walk_meets_early(self):
        # g, g^-1, g, g^-1, ...: the product is the identity at every even n,
        # so the first qualifying n in [2, 32] is 2
        spec = GroupSpec.lattice(1)
        u = np.array([0, 1] * 20)
        result = meeting_diagnostic(spec, u, u, h=2, c=0.5)
        assert result.found and result.n == 2

    def test_infinite_threshold_returns_h(self):
        spec = GroupSpec.lattice(1)
        u = sample_increments(spec, 50, seed=0)
        v = sample_increments(spec, 50, seed=1)
        result = meeting_diagnostic(spec, u, v, h=3, c=float("inf"))
        assert result.n == 3

    def test_adversarial_linear_growth_absent(self):
        spec = GroupSpec.lattice(1)
        u = np.zeros(10**5, dtype=int)  # g, g, g, ...: norm n, normalized sqrt(n)
        result = meeting_diagnostic(spec, u, u, h=10, c=0.1)
        assert not result.found

    def test_heisenberg_conservative(self):
        spec = GroupSpec.heisenberg()
        u = sample_increments(spec, 200, seed=5)
        v = sample_increments(spec, 200, seed=6)
        result = meeting_diagnostic(spec, u, v, h=2, c=2.0, cap=200)
        if result.found:
            n = result.n
            assert result.norm_bound_u < 2.0 * np.sqrt(n)
            assert result.norm_bound_v < 2.0 * np.sqrt(n)


class TestArrayBrackets:
    def test_closed_form_matches_scalar_on_spheres_around_the_cap(self):
        rows = np.array([e.data for r in (19, 20, 21) for e in heisenberg_spheres(21)[r]], dtype=np.int64)
        assert bracket_pairs(_heisenberg_brackets(rows)) == [_heisenberg_bounds(d) for d in rows.tolist()]

    def test_closed_form_matches_scalar_on_random_rows(self):
        # |c| up to 2^40, then near squares up to 2^58, where the float
        # square root of 4|c| - 1 or |c| can round up to the next integer
        rng = np.random.default_rng(13)
        plane = rng.integers(-(1 << 30), 1 << 30, size=(3000, 2))
        central = rng.integers(-(1 << 40), (1 << 40) + 1, size=3000)
        roots = rng.integers(1 << 26, 1 << 29, size=3000)
        near_squares = roots * roots + rng.integers(-2, 3, size=3000)
        small = rng.integers(-50, 51, size=3000)
        rows = np.concatenate([
            np.column_stack([plane, central]),
            np.column_stack([plane % 7, near_squares * rng.choice([-1, 1], size=3000)]),
            np.column_stack([small, small[::-1], small * 3]),
        ])
        assert bracket_pairs(_heisenberg_brackets(rows)) == [_heisenberg_bounds(d) for d in rows.tolist()]

    def test_norm_bounds_exact_inside_lifted_outside(self):
        spheres = heisenberg_spheres(21)
        rows = np.array([e.data for r in (0, 7, 20, 21) for e in spheres[r]], dtype=np.int64)
        radii = [r for r in (0, 7, 20, 21) for _ in spheres[r]]
        expected = [
            (r, r) if r <= HEISENBERG_EXACT_NORM_CAP else (max(lo, HEISENBERG_EXACT_NORM_CAP + 1), hi)
            for r, (lo, hi) in zip(radii, map(_heisenberg_bounds, rows.tolist()))
        ]
        assert bracket_pairs(_heisenberg_norm_bounds(rows)) == expected


def rescanned_meeting(spec, u, v, h, c, cap=None):
    """The meeting search as a scalar scan over brackets from replayed products."""
    top = min(h**5 if cap is None else min(h**5, cap), len(u), len(v))
    brackets_u = [word_norm_bounds(e) for e in replayed_products(spec, u[:top])]
    brackets_v = [word_norm_bounds(e) for e in replayed_products(spec, v[:top])]
    uncertain = 0
    for n in range(h, top + 1):
        (lo_u, hi_u), (lo_v, hi_v) = brackets_u[n - 1], brackets_v[n - 1]
        threshold = c * np.sqrt(n)
        if hi_u < threshold and hi_v < threshold:
            return n, hi_u, hi_v, uncertain
        uncertain += (lo_u < threshold <= hi_u) or (lo_v < threshold <= hi_v)
    return None, None, None, uncertain


class TestMeetingRescan:
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.describe())
    def test_matches_scalar_rescan(self, spec):
        rng = np.random.default_rng(14)
        outcomes = set()
        for trial in range(40):
            u = rng.integers(0, spec.alphabet_size, int(rng.integers(0, 300)))
            v = u.copy() if trial % 4 == 0 else rng.integers(0, spec.alphabet_size, 300)
            h = int(rng.integers(1, 5))
            c = float(rng.choice([0.3, 0.6, 1.0, 1.5, 2.5]))
            result = meeting_diagnostic(spec, u, v, h, c, cap=256)
            n, hi_u, hi_v, uncertain = rescanned_meeting(spec, u, v, h, c, cap=256)
            assert result.n == n
            assert result.uncertain_skips == uncertain
            if result.found:
                assert (result.norm_bound_u, result.norm_bound_v) == (hi_u, hi_v)
                assert type(result.norm_bound_u) is int and type(result.norm_bound_v) is int
            outcomes.add((result.found, uncertain > 0))
        assert {found for found, _ in outcomes} == {True, False}

    def test_heisenberg_straddles_are_counted(self):
        # past the ball the brackets are wide, so a threshold between their
        # ends is skipped and counted
        spec = GroupSpec.heisenberg()
        for seed in range(3):
            u = sample_increments(spec, 1024, seed=2 * seed)
            v = sample_increments(spec, 1024, seed=2 * seed + 1)
            result = meeting_diagnostic(spec, u, v, h=4, c=1.0)
            n, _, _, uncertain = rescanned_meeting(spec, u, v, 4, 1.0)
            assert result.n is n is None
            assert result.uncertain_skips == uncertain > 0

    def test_skips_before_a_found_meeting_are_counted(self):
        spec = GroupSpec.heisenberg()
        u = sample_increments(spec, 1024, seed=43, stream=20)
        v = sample_increments(spec, 1024, seed=43, stream=21)
        result = meeting_diagnostic(spec, u, v, h=4, c=1.0, cap=1024)
        assert (result.n, result.uncertain_skips) == (958, 367)
        n, _, _, uncertain = rescanned_meeting(spec, u, v, 4, 1.0, cap=1024)
        assert (n, uncertain) == (958, 367)
