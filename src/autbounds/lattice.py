"""Exact machinery for finite sets of integer lattice points.

Everything here is integer/rational exact. Mid-points of two integer points
are stored *doubled* (as the sum p+q), so sets of mid-points stay integral
and hashable; all mid-point counts are counts of the doubled set, which is in
bijection with the set of actual mid-points. numpy appears only as int64
point arrays, bulk integer codes, bitmaps and difference arrays for pair
sums, chains and arrangements; there is no floating point in this module.

Every coordinate of a lattice set must fit in int64: a set is its int64
array, and a coordinate past int64 raises InvariantViolation where the set is
built. A frame past int64 encodes its points as python ints, from one
object-array product, so its codes and sums stay exact.

The rows of a set's array are distinct, as are the arranged points of rule
2.4's kernel, so a set with as many points as its bounding box is that full
product box. Pair sums, chains and subset tests read this from the bounds
they compute anyway, and answer a full box in closed form, in O(dim) python
ints: the sums of two boxes are a box, a box's longest chain runs along its
longest side, and a box holds every point inside its bounds.

Main objects
    LatticeSet      deduplicated finite set of integer points, fixed ambient dim,
                    held as a lex-sorted int64 array
    ConvexTriple    nested sets a1 <= a2 <= a3 (convexity validated on demand)

Main operations
    midpoint_count / union_midpoint_count
                           (full boxes: the union of their sum boxes, by
                            inclusion-exclusion; otherwise int64 codes in one
                            sum frame, counted by runs of consecutive codes or
                            a bitmap of every pair up to a 2**25-cell frame,
                            by sorting up to an int64 frame, and past it in a
                            set of python-int sums)
    dimension, longest_chain, arrangement
                           (longest_chain scans the directions of each cap box
                            from _centred_box, the cached read-only block of
                            a centred box's offsets, which the gauge draw of
                            rules 2.5-2.7 also reads)
    arranged_union_counts, arranged_block_counts
                           (rule 2.4's dim+1 union counts, a block of trials at a
                            time in one int64 code space, each trial framed by
                            its own box; a trial whose frame does not fit in
                            int64 is sorted and ranked alone on python-int
                            codes)
    in_convex_hull (exact rational simplex), is_integrally_convex,
    is_relatively_convex, lattice_points_in_hull
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, prod
from operator import index
from typing import Iterable, Iterator, Optional

import numpy as np

from .errors import InvariantViolation

# Dense bitmap counting is used while the sum-box has at most this many cells
# (2**25 bools = 32 MiB worst case; typical instances are a few hundred KiB).
_DENSE_CELL_LIMIT = 1 << 25
_OUTER_CHUNK = 1 << 22
_INT64_MAX = (1 << 63) - 1
# arranged_block_counts counts trials in chunks of at most this many ordered
# point pairs of a3 (about 17 rule-2.4 trials of 12-44 points); at 2**15 the
# suite ran 4% faster, but held about 0.5 MiB more at its peak
_BLOCK_PAIRS = 1 << 14
# _count_sums marks run pairs (an int64 difference array, 32 MiB at the cell
# limit) in place of point pairs on calls of at least _RUN_MIN_PAIRS pairs
# with fewer run pairs than pairs / _RUN_PAIR_COST. Measured on the suites'
# calls (2-core Xeon, numpy 2.4): finding and marking runs costs 55-90 us at
# 1,500-65,000 pairs, which the bitmap marks at 3-5 ns each (even near 25,000
# pairs); at 2.6 scale a run pair costs 9.4-12.7 ns, a point pair 2.8-3.5 ns.
# Rule 2.4's calls, under 4,000 pairs, never look for runs.
_RUN_MIN_PAIRS = 1 << 15
_RUN_CELL_LIMIT = _DENSE_CELL_LIMIT // 8
_RUN_PAIR_COST = 4
# (start, step) pairs followed at once by longest_chain (2 MiB of int64 codes)
_WALK_CHUNK = 1 << 18
# longest_chain's pair walk costs about this many bitmap (start, step) moves
# per pair of points: 5.5-5.8 us per pair against 9.7-11.4 ns per move
# (ratios 480-600) on random sets of 20-40 points in 2-4 dims, spread so
# widely that the whole level-3 box is scanned
_PAIR_WALK_COST = 500
# lattice_points_in_hull scans a bounding box of at most this many points
_HULL_SCAN_LIMIT = 200_000
# _centred_box keeps at most this many rows in all (768 KiB in dim 3), so it
# never keeps a larger block, as a w = 12 gauge scan in dim 4 (12 MiB) would
# be; `reproduce-all --full` keeps 26 blocks, 4,918 rows in all (117 KiB)
_BOX_CACHE_ROWS = 1 << 15
_centred_boxes: dict[tuple[int, ...], np.ndarray] = {}


class LatticeSet:
    """A deduplicated finite set of integer points with a fixed ambient dim.

    Immutable; safe to share across workers, and pickled as its array. The
    set is its `array`, a lex-sorted, deduplicated, read-only (n, dim) int64
    array, filled where the set is built: a coordinate that is not an
    integer, or that does not fit in int64, raises InvariantViolation there.
    The array is column-major, so that the per-axis reductions of the frames
    run along contiguous columns. Iteration, membership and the hash all read
    the array; a function that needs int tuples (the hull predicates, the
    sparse chain walk, `arrangement`) builds them itself.
    """

    __slots__ = ("dim", "array", "_rank")

    def __init__(self, points: Iterable[tuple[int, ...]], dim: Optional[int] = None):
        try:
            pts = frozenset(tuple(map(index, p)) for p in points)
        except TypeError as exc:
            raise InvariantViolation(f"lattice points need integer coordinates: {exc}") from None
        if pts:
            dims = {len(p) for p in pts}
            if len(dims) != 1:
                raise InvariantViolation("all points in a LatticeSet must share one dimension")
            inferred = dims.pop()
            if dim is not None and dim != inferred:
                raise InvariantViolation(f"declared dim {dim} != point dim {inferred}")
            dim = inferred
        elif dim is None:
            raise InvariantViolation("an empty LatticeSet needs an explicit dim")
        try:
            arr = np.array(sorted(pts), dtype=np.int64, order="F").reshape(len(pts), dim, order="F")
        except OverflowError:
            raise InvariantViolation("lattice coordinates must fit in int64") from None
        arr.flags.writeable = False
        self._fill(int(dim), arr)

    @classmethod
    def from_array(cls, arr, dim: int) -> "LatticeSet":
        """The set of the rows of an (n, dim) integer array, in any order and
        with any repeats; the array is copied, never kept."""
        arr = np.asarray(arr)
        if arr.ndim != 2 or arr.shape[1] != dim or not np.can_cast(arr.dtype, np.int64):
            raise InvariantViolation(f"from_array needs an (n, {dim}) int64 array, "
                                     f"not {arr.dtype} of shape {arr.shape}")
        arr = arr.astype(np.int64, order="F")  # a copy, even of an int64 array
        if len(arr) > 1 and not _lex_increasing(arr):
            arr = arr[np.lexsort(arr.T[::-1])]
            arr = np.asfortranarray(arr[np.r_[True, (arr[1:] != arr[:-1]).any(axis=1)]])
        arr.flags.writeable = False
        self = cls.__new__(cls)
        self._fill(int(dim), arr)
        return self

    def _fill(self, dim: int, arr: np.ndarray) -> None:
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "array", arr)
        object.__setattr__(self, "_rank", None)

    def __setattr__(self, name, value):
        raise AttributeError("LatticeSet is immutable")

    def __reduce__(self):
        return LatticeSet.from_array, (self.array, self.dim)

    # -- container protocol -------------------------------------------------
    def __len__(self) -> int:
        return len(self.array)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.sorted_points())

    def __contains__(self, p) -> bool:
        """Whether p is a point of the set; anything but dim integers is not."""
        try:
            return LatticeSet([p], self.dim).issubset(self)
        except InvariantViolation:
            return False

    def __eq__(self, other) -> bool:
        return (isinstance(other, LatticeSet) and self.dim == other.dim
                and np.array_equal(self.array, other.array))

    def __hash__(self) -> int:
        return hash((self.dim, self.array.tobytes()))

    def __repr__(self) -> str:
        return f"LatticeSet(dim={self.dim}, n={len(self)})"

    def sorted_points(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.array.tolist()))

    def issubset(self, other: "LatticeSet") -> bool:
        """Every point of self lies in other: self's points, once inside other's
        box, are encoded in its frame and looked up in other's sorted codes.
        A set's rows are distinct, so an other with as many points as its
        bounding box is that full box, and holds every point inside it."""
        mine, theirs = self.array, other.array
        if not len(mine):
            return True
        if self.dim != other.dim or len(mine) > len(theirs):
            return False
        lo, hi = theirs.min(axis=0), theirs.max(axis=0)
        if ((mine < lo) | (mine > hi)).any():
            return False
        lo, hi = lo.tolist(), hi.tolist()
        if len(theirs) == _box_cells(lo, hi):
            return True
        frame = (lo, *_frame_strides(lo, hi))
        codes, within = (_encode(arr, *frame) for arr in (mine, theirs))
        at = np.minimum(np.searchsorted(within, codes), len(within) - 1)
        return bool((within[at] == codes).all())

    # -- serialization ------------------------------------------------------
    def to_json(self):
        return self.array.tolist()

    @classmethod
    def from_json(cls, data, dim: Optional[int] = None) -> "LatticeSet":
        return cls((tuple(row) for row in data), dim)


def _lex_increasing(arr: np.ndarray) -> bool:
    """Whether each row of the array is lex-greater than the row before."""
    rising = np.zeros(len(arr) - 1, dtype=bool)
    tied = np.ones(len(arr) - 1, dtype=bool)
    for col in arr.T:
        rising |= tied & (col[1:] > col[:-1])
        tied &= col[1:] == col[:-1]
    return bool(rising.all())


def _require_same_dim(*sets: LatticeSet) -> int:
    dims = {s.dim for s in sets}
    if len(dims) != 1:
        raise InvariantViolation(f"dimension mismatch between sets: {sorted(dims)}")
    return dims.pop()


@dataclass(frozen=True, slots=True, repr=False)
class ConvexTriple:
    """Nested sets a1 <= a2 <= a3 in one ambient dimension.

    Nesting is enforced at construction. Integral convexity and relative
    convexity are *properties of the generated instances*, checked by
    :meth:`validate_convexity` (exact hull tests) where a test needs them.
    Equality and the hash read the three sets, not `witness_regions`.
    """

    a1: LatticeSet
    a2: LatticeSet
    a3: LatticeSet
    witness_regions: Optional[str] = field(default=None, compare=False)

    def __post_init__(self):
        _require_same_dim(self.a1, self.a2, self.a3)
        if not self.a1.issubset(self.a2) or not self.a2.issubset(self.a3):
            raise InvariantViolation("ConvexTriple requires a1 <= a2 <= a3")

    @property
    def dim(self) -> int:
        return self.a3.dim

    def sizes(self) -> tuple[int, int, int]:
        return (len(self.a1), len(self.a2), len(self.a3))

    def __repr__(self) -> str:
        return f"ConvexTriple(dim={self.dim}, sizes={self.sizes()})"

    def validate_convexity(self) -> None:
        """Exact check of all invariants; raises InvariantViolation on failure.

        Desk scale only: enumerates lattice points of each hull.
        """
        for name, s in (("a1", self.a1), ("a2", self.a2), ("a3", self.a3)):
            if not is_integrally_convex(s):
                raise InvariantViolation(f"{name} is not integrally convex")
        if not is_relatively_convex(self.a1, self.a2):
            raise InvariantViolation("a1 is not relatively convex in a2")
        if not is_relatively_convex(self.a2, self.a3):
            raise InvariantViolation("a2 is not relatively convex in a3")

    def to_json_dict(self):
        return {
            "dim": self.dim,
            "a1": self.a1.to_json(),
            "a2": self.a2.to_json(),
            "a3": self.a3.to_json(),
            "witness_regions": self.witness_regions,
        }

    @classmethod
    def from_json_dict(cls, data) -> "ConvexTriple":
        dim = data["dim"]
        return cls(
            LatticeSet.from_json(data["a1"], dim),
            LatticeSet.from_json(data["a2"], dim),
            LatticeSet.from_json(data["a3"], dim),
            data.get("witness_regions"),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


# ---------------------------------------------------------------------------
# mid-point counts
# ---------------------------------------------------------------------------

def _sum_frame(bounds):
    """Common integer frame for encoding pair sums of points in the boxes
    [lo, hi] of `bounds`, given as python-int lists.

    Returns (mins, strides, cells) where index(p+q) = dot(p+q, strides) - base
    is injective over the sum box.
    """
    mins = list(map(min, zip(*(lo for lo, _ in bounds))))
    maxs = list(map(max, zip(*(hi for _, hi in bounds))))
    return (mins, *_frame_strides(mins, maxs))


def _bounds(arr: np.ndarray) -> tuple[list[int], list[int]]:
    """(lo, hi): the least and greatest coordinates of a nonempty array's
    rows along each axis, as python ints."""
    return arr.min(axis=0).tolist(), arr.max(axis=0).tolist()


def _box_cells(lo, hi) -> int:
    """The number of integer points of the box [lo, hi], 0 if it is empty."""
    return prod(max(h - l + 1, 0) for l, h in zip(lo, hi))


def _box_union_cells(boxes) -> int:
    """#(B_1 u ... u B_k) of integer boxes (lo, hi), by inclusion-exclusion:
    an intersection of boxes is the box of the largest lo and least hi."""
    total = 0
    for k in range(1, len(boxes) + 1):
        for group in itertools.combinations(boxes, k):
            lo = map(max, zip(*(b[0] for b in group)))
            hi = map(min, zip(*(b[1] for b in group)))
            total += (-1) ** (k + 1) * _box_cells(lo, hi)
    return total


def _frame_strides(mins, maxs) -> tuple[list[int], int]:
    """(strides, cells) of the box of sums of two points of [mins, maxs]:
    coordinate c of a sum, less 2*mins[c], is a digit in base 2*span_c + 1.
    A point's own digit is at most span_c, so the codes of a lex-sorted set
    increase, and a step of +1 between two codes is a step along the last
    axis."""
    strides = [0] * len(mins)
    acc = 1
    for c in reversed(range(len(mins))):
        strides[c] = acc
        acc *= 2 * (maxs[c] - mins[c]) + 1
    return strides, acc


def _encode(arr: np.ndarray, mins, strides, cells: int) -> np.ndarray:
    """The codes of the rows of an int64 array in a frame of `cells` cells,
    increasing on a lex-sorted array: int64 in a frame that fits int64, and
    python ints in an object array past it."""
    dtype = np.int64 if cells <= _INT64_MAX else object
    return (arr - np.array(mins, dtype=dtype)) @ np.array(strides, dtype=dtype)


def _count_sums(code_pairs, cells: int) -> int:
    """Distinct sums a+b over code-array pairs whose sums lie in [0, cells).

    In a frame of at most `_DENSE_CELL_LIMIT` cells each point pair is marked
    in a bitmap, unless the codes fall into so few runs of consecutive
    integers that marking each run pair's interval of sums costs less; calls
    of under `_RUN_MIN_PAIRS` point pairs never look for runs. A wider frame
    sorts the sums: at once in a call of at most `_OUTER_CHUNK` of them, as
    a merge would sort most of them twice, and otherwise a chunk at a time,
    merging each chunk's distinct sums into those of the chunks before it.
    A code array that appears more than once is split into runs once. Past
    `_INT64_MAX` cells the codes are python ints in object arrays, and their
    sums are counted in a set.
    """
    if cells > _INT64_MAX:
        rows = ((code + codes_b).tolist() for codes_a, codes_b in code_pairs for code in codes_a)
        return len(set(itertools.chain.from_iterable(rows)))
    pairs = sum(len(a) * len(b) for a, b in code_pairs)
    if cells > _DENSE_CELL_LIMIT and pairs <= _OUTER_CHUNK:
        return len(_distinct(np.concatenate([np.add.outer(a, b).ravel() for a, b in code_pairs])))
    if cells > _DENSE_CELL_LIMIT:
        seen = np.empty(0, dtype=np.int64)
        for sums in _pair_sum_chunks(code_pairs):
            seen = np.concatenate((seen, _distinct(sums)))
            del sums
            seen = _distinct(seen, kind="stable")  # two sorted runs: one merge
        return len(seen)
    if pairs >= _RUN_MIN_PAIRS and cells <= _RUN_CELL_LIMIT:
        arrays = {id(codes): codes for pair in code_pairs for codes in pair}
        runs = {key: _runs(codes) for key, codes in arrays.items()}
        run_pairs = [(runs[id(a)], runs[id(b)]) for a, b in code_pairs]
        if _RUN_PAIR_COST * sum(len(ra[0]) * len(rb[0]) for ra, rb in run_pairs) < pairs:
            return _count_runs(run_pairs, cells)
    return _count_bitmap(code_pairs, cells)


def _distinct(values: np.ndarray, kind=None) -> np.ndarray:
    """The distinct values of an int64 array, which it sorts in place, in
    increasing order: np.sort is 50-60 times faster here than np.unique,
    which hashes in numpy 2.4. A stable sort merges presorted runs."""
    values.sort(kind=kind)
    first = np.ones(len(values), dtype=bool)
    first[1:] = values[1:] != values[:-1]
    return values[first]


def _pair_sum_chunks(code_pairs) -> Iterator[np.ndarray]:
    """The sums a+b of each code-array pair, at most `_OUTER_CHUNK` (or one
    row of a) at a time. A caller drops each chunk before it takes the next."""
    for codes_a, codes_b in code_pairs:
        if len(codes_b):
            rows = max(1, _OUTER_CHUNK // len(codes_b))
            for start in range(0, len(codes_a), rows):
                yield np.add.outer(codes_a[start:start + rows], codes_b).ravel()


def _count_bitmap(code_pairs, cells: int) -> int:
    bitmap = np.zeros(cells, dtype=bool)
    for sums in _pair_sum_chunks(code_pairs):
        bitmap[sums] = True
        del sums
    return int(np.count_nonzero(bitmap))


def _runs(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(firsts, lasts) of the maximal runs of consecutive integers in the codes."""
    codes = np.sort(codes)
    gap = np.diff(codes) != 1
    first, last = np.ones(len(codes), dtype=bool), np.ones(len(codes), dtype=bool)
    first[1:], last[:-1] = gap, gap
    return codes[first], codes[last]


def _count_runs(run_pairs, cells: int) -> int:
    """Distinct sums over pairs of runs: the sums of runs [s_a, e_a] and
    [s_b, e_b] are every integer of [s_a + s_b, e_a + e_b]. Each interval
    adds 1 at its first sum and -1 past its last on a difference array,
    `_OUTER_CHUNK` run pairs at a time, and a sum is reached exactly where
    the running total is positive."""
    diff = np.zeros(cells + 1, dtype=np.int64)
    for firsts in _pair_sum_chunks([(fa, fb) for (fa, _), (fb, _) in run_pairs]):
        diff += np.bincount(firsts, minlength=cells + 1)
        del firsts
    for lasts in _pair_sum_chunks([(la, lb) for (_, la), (_, lb) in run_pairs]):
        diff[1:] -= np.bincount(lasts, minlength=cells)
        del lasts
    return int(np.count_nonzero(np.cumsum(diff, out=diff)))


def _pair_sum_codes(pairs: list[tuple[np.ndarray, np.ndarray]]) -> int:
    """Count distinct sums p+q over the union of the given pairs of int64
    point arrays, by `_count_sums` in the frame of their box. An array that
    appears more than once, as A2 in (A2, A2), is framed and encoded once.

    Each array's rows are distinct, as in a `LatticeSet` array and the
    arranged points of rule 2.4's kernel, so an array with as many rows as
    its bounding box has points is that full box. When every array of a pair
    with sums is a full box, the sums of each pair are the box [lo_a + lo_b,
    hi_a + hi_b], and their union is counted in closed form in python ints,
    with no frame or codes.
    """
    pairs = [(a, b) for a, b in pairs if len(a) and len(b)]
    arrays = {id(arr): arr for pair in pairs for arr in pair}
    if not arrays:
        return 0
    bounds = {key: _bounds(arr) for key, arr in arrays.items()}
    if all(len(arr) == _box_cells(*bounds[key]) for key, arr in arrays.items()):
        return _box_union_cells([
            tuple([x + y for x, y in zip(ends_a, ends_b)]
                  for ends_a, ends_b in zip(bounds[id(a)], bounds[id(b)]))
            for a, b in pairs])
    frame = _sum_frame(list(bounds.values()))
    codes = {key: _encode(arr, *frame) for key, arr in arrays.items()}
    return _count_sums([(codes[id(a)], codes[id(b)]) for a, b in pairs], frame[2])


def midpoint_count(a: LatticeSet, b: LatticeSet) -> int:
    """#(a.b) without materializing the doubled set."""
    _require_same_dim(a, b)
    return _pair_sum_codes([(a.array, b.array)])


def union_midpoint_count(a1: LatticeSet, a3: LatticeSet, a2: LatticeSet) -> int:
    """#(a1.a3 union a2.a2), the quantity every counting rule bounds below."""
    _require_same_dim(a1, a2, a3)
    return _pair_sum_codes([(a1.array, a3.array), (a2.array, a2.array)])


# ---------------------------------------------------------------------------
# dimension and chains
# ---------------------------------------------------------------------------

def integer_rank(rows: Iterable[tuple[int, ...]]) -> int:
    """Rank over Q of integer row vectors, by fraction-free elimination.

    Rows are reduced one at a time against the pivot rows kept so far, and
    the scan stops as soon as the rank equals the column count.
    """
    basis: list[tuple[int, list[int]]] = []  # (pivot column, row)
    for row in rows:
        row = list(row)
        for col, head in basis:
            if row[col] != 0:
                g = gcd(head[col], row[col])
                f_head, f_row = row[col] // g, head[col] // g
                row = [f_row * x - f_head * y for x, y in zip(row, head)]
        pivot = next((c for c, x in enumerate(row) if x != 0), None)
        if pivot is not None:
            basis.append((pivot, row))
            if len(basis) == len(row):
                break
    return len(basis)


def dimension(a: LatticeSet) -> int:
    """Dimension of the affine space generated by the set, cached on it.

    The points that are least and greatest along each axis lead the rows:
    `integer_rank` stops at full rank, which they usually reach on a
    full-dimensional set.
    """
    if not len(a):
        raise InvariantViolation("dimension of an empty set is undefined")
    if a._rank is None:
        arr = a.array
        extremes = np.concatenate((arr.argmin(axis=0), arr.argmax(axis=0)))
        pts = arr[extremes].tolist() + arr.tolist()
        p0 = pts[0]
        object.__setattr__(a, "_rank", integer_rank(tuple(c - d for c, d in zip(p, p0))
                                                    for p in pts[1:]))
    return a._rank


def longest_chain(a: LatticeSet) -> int:
    """Length (point count) of the longest arithmetic progression inside a.

    A singleton is a chain of length 1 and any two points form a chain of
    length 2. Steps need not be primitive ({0, 2, 4} is a 3-chain); on an
    integrally convex set the two notions agree, but arranged or arbitrary
    sets can have gappy chains.

    A chain of length L with step v forces (L-1)|v_c| <= R_c, the range of
    coordinate c, so only the cap box |v_c| <= R_c // (L-1) can host it.
    Levels L are taken from max R_c + 1 down; each level scans its shell,
    the directions of its cap box that are not in the box of the level
    above, so every direction is scanned once. The scan stops once the best
    run reaches the next level whose box grows, since a longer chain would
    need a direction not yet scanned.

    The set is marked in a dense bitmap of its bounding box, padded on every
    side by half a range (the longest step a level >= 3 scans), and the runs
    of a whole shell are followed at once: each (start, step) pair still
    alive moves one step and is kept if it lands on the set. Sets whose
    padded box exceeds the dense limit walk each maximal run once from its
    first pair of points instead. So does a spread-out set whose n(n-1)/2
    pairs cost less to walk than the n starts of every direction in its
    level-3 cap box would cost to scan. All of it is exact.

    A set's rows are distinct, so a set with as many points as its bounding
    box is that full box, whose longest chain runs along its longest side:
    max R_c + 1, read before any bitmap is built.
    """
    n = len(a)
    if n == 0:
        raise InvariantViolation("longest_chain of an empty set is undefined")
    if n == 1:
        return 1
    pts = a.array
    lo = pts.min(axis=0)
    r = [int(hi) - int(low) for hi, low in zip(pts.max(axis=0), lo)]  # hi - lo may pass int64
    if n == prod(x + 1 for x in r):
        return max(r) + 1
    pads = [x // 2 for x in r]
    spans = [x + 2 * pad + 1 for x, pad in zip(r, pads)]
    if prod(spans) > _DENSE_CELL_LIMIT:
        return _sparse_longest_chain(a)
    level3_steps = (prod(2 * (x // 2) + 1 for x in r) - 1) // 2
    if _PAIR_WALK_COST * n * (n - 1) // 2 < level3_steps * n:
        return _sparse_longest_chain(a)
    strides = np.array([prod(spans[c + 1:]) for c in range(a.dim)], dtype=np.int64)
    codes = (pts - lo + np.array(pads, dtype=np.int64)) @ strides
    bitmap = np.zeros(prod(spans), dtype=bool)
    bitmap[codes] = True

    best = 2
    caps = [0] * a.dim
    level = max(r) + 1
    while level > 2:
        prev, caps = caps, [x // (level - 1) for x in r]
        best = max(best, _longest_run(bitmap, codes, _cap_shell_steps(caps, prev, strides)))
        # the next level whose cap box grows; a longer chain than `best`
        # would need a direction outside the boxes scanned so far
        level = max(x // (c + 1) + 1 for x, c in zip(r, caps))
        if best >= level:
            return best
    return best


def _centred_box(radii: tuple[int, ...]) -> np.ndarray:
    """The offsets of the box of [-r_c, r_c] over the radii, as a read-only
    (rows, dim) int64 array in lex order.

    Built on first use and cached per radii tuple while the cache holds at
    most `_BOX_CACHE_ROWS` rows in all; a block past that is built on each
    call and not kept, and so is any block of more rows. Every caller
    shares a cached block, so it is read-only: shift a copy of it, as
    `offsets + mid` makes, never the block in place.
    """
    box = _centred_boxes.get(radii)
    if box is None:
        box = (np.indices([2 * r + 1 for r in radii], dtype=np.int64).reshape(len(radii), -1).T
               - np.array(radii, dtype=np.int64))
        box.flags.writeable = False
        if len(box) + sum(map(len, _centred_boxes.values())) <= _BOX_CACHE_ROWS:
            _centred_boxes[radii] = box
    return box


def _cap_shell_steps(caps: list[int], prev: list[int], strides: np.ndarray) -> np.ndarray:
    """Codes of the directions in the cap box `caps` but not in `prev`.

    One per +/- pair: a code is positive exactly when the first nonzero
    entry of its direction is. Non-primitive directions are kept, since
    gappy progressions are real chains on non-convex sets. The cap box is
    `_centred_box(caps)`, cached (up to its row bound) and read-only.
    """
    box = _centred_box(tuple(caps))
    new = (np.abs(box) > np.array(prev, dtype=np.int64)).any(axis=1)
    steps = box[new] @ strides
    return steps[steps > 0]


def _longest_run(bitmap: np.ndarray, codes: np.ndarray, steps: np.ndarray) -> int:
    """Longest run (point count) of the set along any of the steps.

    Every start is a point of the set and every step is at most half a
    range long in each coordinate, so a position one step past a point of
    the set stays inside the padded box and its code is exact.
    """
    best = 1
    rows = max(1, _WALK_CHUNK // len(codes))
    for start in range(0, len(steps), rows):
        chunk = steps[start:start + rows]
        step = np.repeat(chunk, len(codes))
        pos = np.add.outer(chunk, codes).ravel()
        length = 1
        while True:
            alive = bitmap[pos]
            if not alive.any():
                break
            length += 1
            step = step[alive]
            pos = pos[alive] + step
        best = max(best, length)
    return best


def _sparse_longest_chain(a: LatticeSet) -> int:
    """longest_chain for sets too spread out for the bitmap: every maximal
    run is walked once, from the pair of its first two points, in exact
    python ints."""
    ordered = a.sorted_points()
    pts = set(ordered)
    best = 2
    for i, p in enumerate(ordered):
        for q in ordered[i + 1:]:
            v = tuple(y - x for x, y in zip(p, q))
            if tuple(x - d for x, d in zip(p, v)) not in pts:
                best = max(best, _run_length(pts, p, v))
    return best


def _run_length(points: set, start: tuple[int, ...], v: tuple[int, ...]) -> int:
    n = 1
    p = tuple(a + b for a, b in zip(start, v))
    while p in points:
        n += 1
        p = tuple(a + b for a, b in zip(p, v))
    return n


# ---------------------------------------------------------------------------
# arrangement (axis-wise compression)
# ---------------------------------------------------------------------------

def arrangement(a: LatticeSet, axis: int) -> LatticeSet:
    """Compress each fiber along `axis` to the prefix {0, ..., s-1}.

    Cardinality is preserved exactly; nested sets stay nested. Rule 2.4's
    kernel arranges codes in place of it, so nothing here calls it.
    """
    if not 0 <= axis < a.dim:
        raise InvariantViolation(f"axis {axis} out of range for dim {a.dim}")
    fibers = Counter(p[:axis] + p[axis + 1:] for p in a)
    return LatticeSet([key[:axis] + (i,) + key[axis:] for key, size in fibers.items()
                       for i in range(size)], a.dim)


def arranged_union_counts(a1: LatticeSet, a2: LatticeSet, a3: LatticeSet) -> list[int]:
    """#(a1.a3 u a2.a2) of nested a1 <= a2 <= a3, then the same count after
    arranging all three sets along axis 0, 1, ..., dim-1 in turn: dim+1 counts,
    from `arranged_block_counts` on a block of this one triple."""
    _require_same_dim(a1, a2, a3)
    if not a1.issubset(a2) or not a2.issubset(a3):
        raise InvariantViolation("arranged_union_counts requires a1 <= a2 <= a3")
    in1, in2 = set(a1), set(a2)
    level = np.array([3 - (p in in1) - (p in in2) for p in a3.sorted_points()], dtype=np.int8)
    return arranged_block_counts([(a3.array, level)])[0]


def arranged_block_counts(block) -> list[list[int]]:
    """The dim+1 counts of `arranged_union_counts` for each trial (a3, level)
    of a block: a3's points as an (n, dim) int64 array, and a level per point,
    1 in a1, 2 in a2 - a1 and 3 in the rest.

    A trial's sum frame is that of its own box [lo, hi]. Arranging commutes
    with translation, so a step may move the r-th point of a fiber to lo_c + r
    in place of r; a fiber holds at most hi_c - lo_c + 1 points, so the frame
    fits every step. Trials are counted in chunks of at most `_BLOCK_PAIRS`
    point pairs whose shared code space fits int64; a larger trial, and one
    whose own frame does not fit in int64, is a chunk of its own.
    """
    counts, chunk, chunk_pairs, chunk_cells = [], [], 0, 0
    for arr, level in block:
        dim = arr.shape[1]
        lo, hi = _bounds(arr) if len(arr) else ([0] * dim,) * 2
        strides, cells = _frame_strides(lo, hi)
        if chunk and (chunk_pairs + len(arr) ** 2 > _BLOCK_PAIRS or 2 * chunk_cells + cells > _INT64_MAX):
            counts += _arranged_chunk_counts(chunk)
            chunk, chunk_pairs, chunk_cells = [], 0, 0
        chunk.append((arr, level, lo, strides, cells))
        chunk_pairs, chunk_cells = chunk_pairs + len(arr) ** 2, chunk_cells + cells
    return counts + (_arranged_chunk_counts(chunk) if chunk else [])


def _arranged_chunk_counts(trials) -> list[list[int]]:
    """The arranged counts of a chunk of trials (a3, level, lo, strides,
    cells), in one code space where trial t is offset by the cells of those
    before it, so that its sums lie in [2 O_t, 2 O_t + cells_t); a lone trial
    past int64 keeps its frame and codes in python ints. Arranged nested sets
    stay nested: a step sorts the points by (trial, fiber, level), and the
    r-th point of a fiber moves to lo_c + r and keeps its level. The points
    lie in (trial, level) order and a fiber's key holds its trial's offset,
    so a stable sort on the key alone gives that order. So the union's pairs,
    inside a2 and in a1 x (a3 - a2), are listed once, unless the chunk is one
    trial past `_BLOCK_PAIRS` point pairs, which `_pair_sum_codes` counts at
    each step in the frame of its arranged box."""
    arrs, levels, lo, strides, cells = zip(*trials)
    sizes = np.array([len(arr) for arr in arrs])
    n, dim = int(sizes.sum()), arrs[0].shape[1]
    offsets = np.cumsum((0,) + cells[:-1]).astype(np.int64)
    dtype = np.int64 if cells[0] <= _INT64_MAX else object

    def per_point(values, dtype=np.int64):
        return np.repeat(np.array(values, dtype=dtype), sizes, axis=0)

    # each trial's points in level order: a1, then a2 - a1, then the rest
    member, level = np.repeat(np.arange(len(trials)), sizes), np.concatenate(levels)
    order = np.lexsort((level, member))
    level, index = level[order], np.arange(n)
    offset, lo, strides = (per_point(values, dtype) for values in (offsets, lo, strides))
    pts = np.concatenate(arrs)[order]
    codes = ((pts - lo) * strides).sum(axis=1) + offset
    if n ** 2 <= _BLOCK_PAIRS or len(trials) > 1:
        # the pairs (p, q >= p) inside a2, then a1 x (a3 - a2), as runs of q
        first = per_point(np.cumsum(sizes) - sizes)
        k1, k2 = (np.bincount(member[level <= top], minlength=len(trials))[member] for top in (1, 2))
        lengths = np.r_[np.maximum(k2 - index + first, 0),
                        np.where(index - first < k1, per_point(sizes) - k2, 0)]
        left = np.repeat(np.r_[index, index], lengths)
        right = np.repeat(np.r_[index, first + k2] - (np.cumsum(lengths) - lengths),
                          lengths) + np.arange(len(left))

        def union_counts():
            sums = codes[left]
            sums += codes[right]
            distinct = _distinct(sums)
            return np.diff(np.searchsorted(distinct, 2 * offsets[1:]),
                           prepend=0, append=len(distinct)).tolist()
    else:
        def union_counts():
            mid = pts[level <= 2]
            return [_pair_sum_codes([(pts[level == 1], pts[level == 3]), (mid, mid)])]

    steps, rank = [union_counts()], np.empty(n, dtype=np.int64)
    for c in range(dim):
        key = codes - (pts[:, c] - lo[:, c]) * strides[:, c]
        by_fiber = np.argsort(key, kind="stable")
        sorted_key = key[by_fiber]
        start = np.zeros(n, dtype=np.int64)
        start[1:] = np.where(sorted_key[1:] != sorted_key[:-1], index[1:], 0)
        rank[by_fiber] = index - np.maximum.accumulate(start)
        pts[:, c] = lo[:, c] + rank
        codes = key + rank * strides[:, c]
        steps.append(union_counts())
    return [list(trial_counts) for trial_counts in zip(*steps)]


# ---------------------------------------------------------------------------
# exact convexity predicates
# ---------------------------------------------------------------------------

def in_convex_hull(point: tuple[int, ...], pts: Iterable[tuple[int, ...]]) -> bool:
    """Exact test: is `point` a convex combination of `pts`?

    Phase 1 of the simplex over Fractions with Bland's rule. The rows are
    the coordinate equations and sum(l) = 1, negated where the right side is
    negative, each with an artificial basic variable (numbered m, m+1, ...).
    Only the m original columns enter, so no artificial column is kept and
    the objective row starts as their column sums. Phase 1 is bounded below
    by 0, so an entering column (reduced cost > 0) has a positive entry.
    """
    pts = list(pts)
    if not pts:
        return False
    d = len(pts[0])
    point = tuple(point)
    if point in set(pts):
        return True
    if any(not min(p[c] for p in pts) <= point[c] <= max(p[c] for p in pts) for c in range(d)):
        return False  # outside the bounding box
    m = len(pts)
    tab = [[Fraction(p[i]) for p in pts] + [Fraction(point[i])] for i in range(d)]
    tab.append([Fraction(1)] * (m + 1))
    for i, row in enumerate(tab):
        if row[-1] < 0:
            tab[i] = [-x for x in row]
    basis = list(range(m, m + d + 1))
    obj = [sum(column) for column in zip(*tab)]
    while True:
        enter = next((j for j in range(m) if obj[j] > 0), None)
        if enter is None:
            return obj[-1] == 0
        ratios = [(row[-1] / row[enter], basis[i], i) for i, row in enumerate(tab) if row[enter] > 0]
        _, _, leave = min(ratios)
        piv = tab[leave][enter]
        tab[leave] = [x / piv for x in tab[leave]]
        for i, row in enumerate(tab):
            if i != leave and row[enter] != 0:
                f = row[enter]
                tab[i] = [x - f * y for x, y in zip(row, tab[leave])]
        f = obj[enter]
        obj = [x - f * y for x, y in zip(obj, tab[leave])]
        basis[leave] = enter


def lattice_points_in_hull(a: LatticeSet) -> LatticeSet:
    """All integer points of conv(a). Desk scale: scans the bounding box."""
    if not len(a):
        return a
    pts = a.sorted_points()
    lo, hi = _bounds(a.array)
    count = prod(h - l + 1 for l, h in zip(lo, hi))
    if count > _HULL_SCAN_LIMIT:
        raise InvariantViolation(
            f"bounding box has {count} lattice points; hull scan is desk-scale only"
        )
    members = set(pts)
    return LatticeSet([p for p in itertools.product(*(range(l, h + 1) for l, h in zip(lo, hi)))
                       if p in members or in_convex_hull(p, pts)], a.dim)


def is_integrally_convex(a: LatticeSet) -> bool:
    """True iff a equals the set of lattice points of its own convex hull."""
    return lattice_points_in_hull(a) == a


def is_relatively_convex(b: LatticeSet, a: LatticeSet) -> bool:
    """True iff no point of a - b lies in the convex hull of b."""
    if not b.issubset(a):
        raise InvariantViolation("is_relatively_convex requires b <= a")
    hull_pts = b.sorted_points()
    return not any(in_convex_hull(p, hull_pts) for p in set(a) - set(hull_pts))
