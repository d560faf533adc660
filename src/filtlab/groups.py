"""Group arithmetic, word norms, walk increments, and binary sceneries.

Three group families are supported through one element interface:

* integer lattices Z^d (normal form: coordinate tuple),
* free groups F_s (normal form: reduced word of signed generator letters),
* the discrete Heisenberg group (normal form: upper-unitriangular integer
  triple (a, b, c) with (a,b,c)(a',b',c') = (a+a', b+b', c+c'+a*b')).

Normal forms are unique, so equality and hashing are structural.  The walk
alphabet always has 2s symbols (generators then inverses), even for
self-inverse structure, keeping the branching factor r = 2s uniform.

Beside the scalar `multiply`, one int64 array kernel (:func:`step_rows`, and
:func:`_free_levels` for free words) steps walks for the scenery reader, the
meeting diagnostic and the Heisenberg norm ball, built once by BFS on it.
The meeting diagnostic brackets the norms of all prefix products at once:
ball lookups and the closed-form Heisenberg bracket run on whole arrays.

A scenery is a deterministic fair-bit labeling of the group realized lazily:
the bit at an element is a keyed hash of its normal form, so a walk can read
arbitrarily far without materializing anything.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
# loaded with filtlab: numpy would load it lazily inside the first _philox call
import numpy.random  # noqa: F401

from .errors import SizeCapError, StructuralError

HEISENBERG_EXACT_NORM_CAP = 20


@dataclass(frozen=True)
class GroupSpec:
    """Group family plus its generator count."""

    kind: str
    d: int = 0  # lattice dimension (kind == "lattice")
    s: int = 0  # free generator count (kind == "free")

    def __post_init__(self):
        if self.kind == "lattice":
            if self.d < 1:
                raise StructuralError("lattice dimension must be >= 1")
        elif self.kind == "free":
            if self.s < 1:
                raise StructuralError("free group needs at least one generator")
        elif self.kind != "heisenberg":
            raise StructuralError(f"unknown group kind {self.kind!r}")

    @classmethod
    def lattice(cls, d: int) -> "GroupSpec":
        return cls(kind="lattice", d=d)

    @classmethod
    def free(cls, s: int) -> "GroupSpec":
        return cls(kind="free", s=s)

    @classmethod
    def heisenberg(cls) -> "GroupSpec":
        return cls(kind="heisenberg")

    @property
    def n_generators(self) -> int:
        if self.kind == "lattice":
            return self.d
        if self.kind == "free":
            return self.s
        return 2

    @property
    def alphabet_size(self) -> int:
        return 2 * self.n_generators

    def describe(self) -> str:
        if self.kind == "lattice":
            return f"Z^{self.d}"
        if self.kind == "free":
            return f"F_{self.s}"
        return "Heisenberg"


@dataclass(frozen=True)
class GroupElement:
    spec: GroupSpec
    data: tuple

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return multiply(self, other)

    def norm_key(self) -> bytes:
        """Canonical byte encoding of the normal form (stable across processes)."""
        return repr((self.spec.kind, self.data)).encode("ascii")


def identity(spec: GroupSpec) -> GroupElement:
    if spec.kind == "lattice":
        return GroupElement(spec, (0,) * spec.d)
    if spec.kind == "free":
        return GroupElement(spec, ())
    return GroupElement(spec, (0, 0, 0))


@lru_cache(maxsize=None)
def _generator_rows(spec: GroupSpec) -> np.ndarray:
    """Normal forms of the walk symbols' generators as int64 rows: the s
    generators, then their inverses (a free generator's row is its letter)."""
    if spec.kind == "free":
        gens = np.arange(1, spec.s + 1, dtype=np.int64)[:, None]
    else:
        gens = np.eye(spec.n_generators, len(identity(spec).data), dtype=np.int64)
    return np.concatenate([gens, -gens])


def symbol_element(spec: GroupSpec, symbol: int) -> GroupElement:
    """Walk symbol -> element: symbols 0..s-1 are generators, s..2s-1 inverses."""
    s = spec.n_generators
    if not (0 <= symbol < 2 * s):
        raise StructuralError(f"symbol {symbol} outside alphabet of size {2 * s}")
    return GroupElement(spec, tuple(_generator_rows(spec)[symbol].tolist()))


def multiply(a: GroupElement, b: GroupElement) -> GroupElement:
    if a.spec != b.spec:
        raise StructuralError("cannot multiply elements of different groups")
    spec = a.spec
    if spec.kind == "lattice":
        return GroupElement(spec, tuple(x + y for x, y in zip(a.data, b.data)))
    if spec.kind == "free":
        word = list(a.data)
        _reduce_onto(word, b.data)
        return GroupElement(spec, tuple(word))
    a1, b1, c1 = a.data
    a2, b2, c2 = b.data
    return GroupElement(spec, (a1 + a2, b1 + b2, c1 + c2 + a1 * b2))


def inverse(a: GroupElement) -> GroupElement:
    spec = a.spec
    if spec.kind == "lattice":
        return GroupElement(spec, tuple(-x for x in a.data))
    if spec.kind == "free":
        return GroupElement(spec, tuple(-letter for letter in reversed(a.data)))
    x, y, z = a.data
    return GroupElement(spec, (-x, -y, -z + x * y))


def _reduce_onto(word: list, letters) -> list[int]:
    """Append free-group letters to a reduced word in place, each cancelling
    the last letter when it is that letter's inverse; the word's length after
    each letter."""
    lengths = []
    for letter in letters:
        if word and word[-1] == -letter:
            word.pop()
        else:
            word.append(letter)
        lengths.append(len(word))
    return lengths


# ---------------------------------------------------------------------------
# Array step kernel
# ---------------------------------------------------------------------------


def step_rows(spec: GroupSpec, rows: np.ndarray, symbols: np.ndarray) -> np.ndarray:
    """Row i times the generator of walk symbol symbols[i].

    Rows are int64 lattice coordinates or Heisenberg triples; a Heisenberg
    step adds a*b' to the central coordinate.  Free-group words have no fixed
    width and step through :func:`_free_levels`.
    """
    if spec.kind == "free":
        raise StructuralError("free-group words step through _free_levels, not step_rows")
    steps = _generator_rows(spec)[symbols]
    out = rows + steps
    if spec.kind == "heisenberg":
        out[:, 2] += rows[:, 0] * steps[:, 1]
    return out


def prefix_products(spec: GroupSpec, symbols) -> np.ndarray:
    """Row k: the product of the generators of lattice or Heisenberg symbols[:k+1].

    A step's increment depends on the product only through its lattice
    coordinates, plain prefix sums, so the products are prefix sums of the
    increments `step_rows` makes on those."""
    symbols = np.asarray(symbols, dtype=np.int64)
    lattice = np.cumsum(_generator_rows(spec)[symbols], axis=0)
    before = np.concatenate([np.zeros_like(lattice[:1]), lattice[:-1]])
    return np.cumsum(step_rows(spec, before, symbols) - before, axis=0)


def _free_levels(spec: GroupSpec, tail: tuple, depth: int):
    """Free-group walk levels from a tail word: each row is (popped, code).

    The reduced word is the tail with its last `popped` letters removed,
    followed by a suffix coded in base 2s+1 with digit sym+1 per walk symbol
    (generators 1..s, inverses s+1..2s; 0 marks no letter).  Stepping by a
    symbol pops the last letter when the symbol is its inverse and appends
    otherwise.  Only the last `depth` tail letters can be popped, so the rows
    do not grow with the tail: a level-j row has popped <= j and
    code < (2s+1)^j, which fits int64 long before (2s)^j rows fit in memory.
    """
    s, r = spec.s, spec.alphabet_size
    base = r + 1
    digit_of = {g: g if g > 0 else s - g for g in range(-s, s + 1) if g}
    # tail_digits[k]: digit of the last letter once k have been popped; 0 if none is left
    tail_digits = np.array([digit_of[g] for g in reversed(tail[-depth:])] + [0], dtype=np.int64)
    digits = np.arange(1, r + 1, dtype=np.int64)
    inverse_digits = np.where(digits > s, digits - s, digits + s)
    popped = np.zeros(1, dtype=np.int64)
    code = np.zeros(1, dtype=np.int64)
    levels = []
    for _ in range(depth):
        last = np.repeat(np.where(code > 0, code % base, tail_digits[popped]), r)
        popped, code = np.repeat(popped, r), np.repeat(code, r)
        pop = last == np.tile(inverse_digits, len(code) // r)
        popped = popped + (pop & (code == 0))
        code = np.where(pop, code // base, code * base + np.tile(digits, len(code) // r))
        levels.append(np.stack([popped, code], axis=1))

    def elements(rows):
        powers = base ** np.arange(depth - 1, -1, -1, dtype=np.int64)
        suffix = (rows[:, 1:] // powers) % base  # most significant digit first, zero-padded
        letters = np.where(suffix > s, s - suffix, suffix).tolist()
        lengths = np.count_nonzero(suffix, axis=1).tolist()
        for k, word, n in zip(rows[:, 0].tolist(), letters, lengths):
            yield tail[: len(tail) - k] + tuple(word[depth - n :])

    return levels, elements


# ---------------------------------------------------------------------------
# Word norms
# ---------------------------------------------------------------------------


def _ball_keys(rows: np.ndarray) -> np.ndarray:
    # one int64 per triple, distinct while |b| and |c| stay below 2^19; a row
    # clipped to 2^19 lies outside the ball, so its key matches no ball key
    return np.clip(rows, -(1 << 19), 1 << 19) @ np.array([1 << 40, 1 << 20, 1])


@lru_cache(maxsize=None)
def _heisenberg_ball() -> tuple[np.ndarray, np.ndarray]:
    """`_ball_keys` of the Heisenberg elements within HEISENBERG_EXACT_NORM_CAP
    of the identity, sorted, and their word norms; built once, by
    breadth-first search over `step_rows`."""
    spec = GroupSpec.heisenberg()
    symbols = np.arange(spec.alphabet_size)
    frontier = np.zeros((1, 3), dtype=np.int64)
    seen, sizes = _ball_keys(frontier), [1]
    for _ in range(HEISENBERG_EXACT_NORM_CAP):
        rows = step_rows(spec, np.repeat(frontier, len(symbols), axis=0), np.tile(symbols, len(frontier)))
        keys, first = np.unique(_ball_keys(rows), return_index=True)
        fresh = ~np.isin(keys, seen, assume_unique=True)
        frontier = rows[first[fresh]]
        seen = np.concatenate([seen, keys[fresh]])
        sizes.append(len(frontier))
    order = np.argsort(seen)
    return seen[order], np.repeat(np.arange(len(sizes)), sizes)[order]


def _isqrt(x: np.ndarray) -> np.ndarray:
    """Exact floor square roots of nonnegative int64 values below 2^62."""
    root = np.sqrt(x.astype(np.float64)).astype(np.int64)
    root -= root * root > x  # the float root is off by at most one either way
    return root + ((root + 1) * (root + 1) <= x)


def _heisenberg_brackets(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_heisenberg_bounds` of each int64 triple, as two int64 arrays;
    exact for entries below 2^60 in absolute value."""
    a, b, c = np.abs(rows).T
    plane = a + b
    lower = np.maximum(plane, np.where(c > 0, _isqrt(np.maximum(4 * c - 1, 0)) + 1, 0))
    root = _isqrt(c)
    p = np.maximum(root + (root * root < c), 1)  # ceil(sqrt(c)), and 1 where c == 0
    q, rem = np.divmod(c, p)
    central = np.where(c > 0, 2 * (p + q) + np.where(rem > 0, 2 * rem + 2, 0), 0)
    return lower, np.maximum(lower, plane + central)


def _heisenberg_norm_bounds(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Certified (lower, upper) word norms of int64 Heisenberg triples as two
    int64 arrays: exact inside the ball, else the closed-form bracket lifted
    above its radius.  Exact for entries below 2^60 in absolute value."""
    keys, norms = _heisenberg_ball()
    wanted = _ball_keys(rows)
    at = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
    exact = np.where(keys[at] == wanted, norms[at], -1)
    lower, upper = _heisenberg_brackets(rows)
    lower = np.maximum(lower, HEISENBERG_EXACT_NORM_CAP + 1)
    return np.where(exact >= 0, exact, lower), np.where(exact >= 0, exact, upper)


def _heisenberg_bounds(data: tuple) -> tuple[int, int]:
    """Certified [lower, upper] word-length bracket for a Heisenberg element.

    Lower: the abelianization forces |a|+|b| letters, and the central
    coordinate grows at most quadratically in the word length (|c| <= (L/2)^2),
    so L >= 2 sqrt(|c|).  Upper: realize (a, b, 0) directly, then the central
    part via commutators [x^p, y^q] = z^{pq}.
    """
    a, b, c = data
    lower = max(abs(a) + abs(b), math.isqrt(max(4 * abs(c) - 1, 0)) + 1 if c else 0)
    cost_z = 0
    c_abs = abs(c)
    if c_abs:
        p = math.isqrt(c_abs)
        if p * p < c_abs:
            p += 1
        q, rem = divmod(c_abs, p)
        cost_z = 2 * (p + q)
        if rem:
            cost_z += 2 * rem + 2
    upper = abs(a) + abs(b) + cost_z
    return lower, max(lower, upper)


def word_norm_bounds(a: GroupElement) -> tuple[int, int]:
    """Certified bounds on the word norm; equal entries mean the norm is exact."""
    if a.spec.kind == "lattice":
        n = sum(abs(x) for x in a.data)
        return n, n
    if a.spec.kind == "free":
        n = len(a.data)
        return n, n
    lower, upper = _heisenberg_bounds(a.data)
    if lower > HEISENBERG_EXACT_NORM_CAP:  # outside the ball, and perhaps outside int64
        return lower, upper
    lower, upper = _heisenberg_norm_bounds(np.array([a.data], dtype=np.int64))
    return int(lower[0]), int(upper[0])


def word_norm(a: GroupElement) -> int:
    """Exact word length w.r.t. the symmetric generating set.

    Lattice and free norms are closed form; the Heisenberg norm is looked up
    in a ball built once by breadth-first search on the array kernel, exact up
    to length HEISENBERG_EXACT_NORM_CAP (20), beyond which only the bracket
    from :func:`word_norm_bounds` is certified and this raises.
    """
    lower, upper = word_norm_bounds(a)
    if lower == upper:
        return lower
    raise SizeCapError(
        f"exact Heisenberg norm exceeds the BFS cap {HEISENBERG_EXACT_NORM_CAP}; "
        f"bracket is [{lower}, {upper}]"
    )


# ---------------------------------------------------------------------------
# Walk increments and sceneries
# ---------------------------------------------------------------------------


def _philox(seed: int, stream: int) -> np.random.Generator:
    # counter-based: the (seed, stream) pair fully determines the sequence,
    # independent of process or thread layout
    return np.random.Generator(np.random.Philox(key=((seed & 0xFFFFFFFFFFFFFFFF) << 64) | (stream & 0xFFFFFFFFFFFFFFFF)))


def sample_increments(spec: GroupSpec, n: int, seed: int, stream: int = 0) -> np.ndarray:
    """n i.i.d. walk symbols, uniform over the 2s-letter alphabet."""
    if n < 0:
        raise StructuralError("length must be nonnegative")
    gen = _philox(seed, stream)
    return gen.integers(0, spec.alphabet_size, size=n, dtype=np.int64)


class Scenery:
    """Deterministic fair-bit labeling of group elements, keyed by a seed.

    The bit at an element is a keyed blake2b hash of its normal form: the
    infinite configuration exists exactly as far as it is ever read, and two
    processes with the same seed read identical bits.  Nothing is cached:
    `bits` hashes many `norm_key`s from one keyed state, `value` one element.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._key = (self.seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")

    def value(self, element: GroupElement) -> int:
        return self.bits([element.norm_key()])[0]

    def bits(self, keys) -> list[int]:
        """`value` at each of these `norm_key`s, hashed from copies of one keyed state."""
        keyed = hashlib.blake2b(key=self._key, digest_size=1)
        out = []
        for key in keys:
            digest = keyed.copy()
            digest.update(key)
            out.append(digest.digest()[0] & 1)
        return out

    def __eq__(self, other):
        return isinstance(other, Scenery) and other.seed == self.seed

    def __hash__(self):
        return hash(("scenery", self.seed))


class DictScenery:
    """Explicit scenery for tests: bit values from a dict of normal forms."""

    def __init__(self, values: dict, default: int = 0):
        self.values = dict(values)
        self.default = int(default)

    def value(self, element: GroupElement) -> int:
        return self.values.get(element.data, self.default)


# ---------------------------------------------------------------------------
# Meeting diagnostic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MeetingResult:
    """Outcome of the two-trajectory small-norm search on [h, h^5];
    `uncertain_skips` counts the straddled steps before `n`."""

    n: int | None
    norm_bound_u: float = float("nan")
    norm_bound_v: float = float("nan")
    uncertain_skips: int = 0

    @property
    def found(self) -> bool:
        return self.n is not None


def _prefix_norm_bounds(spec: GroupSpec, symbols) -> tuple[np.ndarray, np.ndarray]:
    """Certified (lower, upper) word norms of all running products of the
    symbols' generators, in order, as two int64 arrays.  Every prefix is
    bracketed; a Heisenberg prefix of k symbols has |c| <= k^2 / 4, inside the
    range of :func:`_heisenberg_norm_bounds` for any walk that fits in memory."""
    if spec.kind == "heisenberg":
        return _heisenberg_norm_bounds(prefix_products(spec, symbols))
    if spec.kind == "free":
        norms = np.array(_reduce_onto([], _generator_rows(spec)[symbols, 0].tolist()), dtype=np.int64)
    else:
        norms = np.abs(prefix_products(spec, symbols)).sum(axis=1)
    return norms, norms


def meeting_diagnostic(
    spec: GroupSpec,
    u: np.ndarray,
    v: np.ndarray,
    h: int,
    c: float,
    cap: int | None = None,
) -> MeetingResult:
    """Smallest n in [h, h^5] with both running products of norm < c sqrt(n).

    Whenever the exact Heisenberg norm is out of BFS range, the certified
    upper bound is used, so a returned n is always a true qualifier; steps
    before the returned n (every step, when none qualifies) whose bracket
    straddles the threshold are skipped and counted in `uncertain_skips`.
    Absence is a value, not an error.

    The brackets of all prefixes up to the search's end are computed at once
    as int64 arrays, exact for walks shorter than 2^31 steps; the returned
    bounds are Python ints.
    """
    if h < 1:
        raise StructuralError("h must be >= 1")
    top = h**5 if cap is None else min(h**5, cap)
    top = min(top, len(u), len(v))
    lo_u, hi_u = (bound[h - 1 :] for bound in _prefix_norm_bounds(spec, u[:top]))
    lo_v, hi_v = (bound[h - 1 :] for bound in _prefix_norm_bounds(spec, v[:top]))
    threshold = c * np.sqrt(np.arange(h, h + len(hi_u), dtype=np.float64))
    met = np.flatnonzero((hi_u < threshold) & (hi_v < threshold))
    straddles = ((lo_u < threshold) & (threshold <= hi_u)) | ((lo_v < threshold) & (threshold <= hi_v))
    if met.size:
        i = int(met[0])
        skips = int(np.count_nonzero(straddles[:i]))
        return MeetingResult(h + i, int(hi_u[i]), int(hi_v[i]), uncertain_skips=skips)
    return MeetingResult(n=None, uncertain_skips=int(np.count_nonzero(straddles)))
