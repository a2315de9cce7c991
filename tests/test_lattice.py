import copy
import itertools
import pickle
import random
from collections import Counter
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autbounds import lattice, lemmas
from autbounds.errors import InvariantViolation
from autbounds.lattice import (
    _DENSE_CELL_LIMIT,
    ConvexTriple,
    LatticeSet,
    arranged_union_counts,
    arrangement,
    dimension,
    in_convex_hull,
    integer_rank,
    is_integrally_convex,
    is_relatively_convex,
    lattice_points_in_hull,
    longest_chain,
    midpoint_count,
    union_midpoint_count,
)
from autbounds.lemmas import triple_for_rule
from tests_oracles import (
    box_sum_count,
    naive_arrangement_by_definition,
    naive_centred_box,
    naive_chain,
    naive_in_hull,
    naive_midpoints,
    naive_rank,
    naive_shell_directions,
    naive_staircase,
    naive_sum_count,
    naive_union_count,
)

# ---------------------------------------------------------------------------
# naive oracles, kept deliberately independent of the implementation
# ---------------------------------------------------------------------------

def naive_arrangement(a, axis):
    pts = set(a)
    lo = [min(p[c] for p in pts) for c in range(a.dim)]
    hi = [max(p[c] for p in pts) for c in range(a.dim)]
    lo[axis], hi[axis] = 0, len(pts)
    out = set()

    def keys():
        ranges = [range(lo[c], hi[c] + 1) for c in range(a.dim)]
        ranges[axis] = range(0, len(pts) + 1)
        def rec(i):
            if i == a.dim:
                yield ()
                return
            for c in ranges[i]:
                for rest in rec(i + 1):
                    yield (c,) + rest
        yield from rec(0)

    for cand in keys():
        if cand[axis] < 0:
            continue
        fiber = sum(
            1 for p in pts
            if all(p[j] == cand[j] for j in range(a.dim) if j != axis)
        )
        if fiber >= cand[axis] + 1:
            out.add(cand)
    return LatticeSet(out, a.dim)


def random_set(rng, dim, max_points=50, spread=6):
    n = rng.randint(1, max_points)
    pts = {tuple(rng.randint(-spread, spread) for _ in range(dim)) for _ in range(n)}
    return LatticeSet(pts, dim)


# ---------------------------------------------------------------------------
# LatticeSet basics
# ---------------------------------------------------------------------------

def test_lattice_set_dedup_and_dim():
    s = LatticeSet([(1, 2), (1, 2), (0, 0)])
    assert len(s) == 2 and s.dim == 2
    assert s == LatticeSet([(0, 0), (1, 2)]) and s != LatticeSet([(0, 0), (1, 3)])


def test_lattice_set_mixed_dims_rejected():
    with pytest.raises(InvariantViolation):
        LatticeSet([(1, 2), (1, 2, 3)])


def test_empty_set_needs_dim():
    with pytest.raises(InvariantViolation):
        LatticeSet([])
    assert len(LatticeSet([], dim=3)) == 0


def test_json_round_trip():
    s = LatticeSet([(3, -1, 4), (0, 5, -2), (0, 0, 0)])
    assert s.to_json() == [[0, 0, 0], [0, 5, -2], [3, -1, 4]]
    assert LatticeSet.from_json(s.to_json()) == s


def test_round_trip_is_bit_exact():
    rng = random.Random(7)
    for _ in range(50):
        s = random_set(rng, rng.randint(1, 4))
        assert LatticeSet.from_json(s.to_json()) == s


def _agree(x, y):
    """x and y hold the same points, by every view and comparison."""
    assert x == y and y == x and hash(x) == hash(y) and len(x) == len(y)
    assert set(x) == set(y) and x.sorted_points() == y.sorted_points()
    assert x.to_json() == y.to_json() and x.issubset(y) and y.issubset(x)


def _twins(rng, dim, n, spread):
    """The same random points (with repeats, in random order) as a set built
    from tuples and as one built from an array."""
    rows = [[rng.randint(-spread, spread) for _ in range(dim)] for _ in range(n)]
    rows += rng.sample(rows, n // 3)
    rng.shuffle(rows)
    return (LatticeSet(map(tuple, rows), dim),
            LatticeSet.from_array(np.array(rows, dtype=np.int64), dim))


def test_from_array_agrees_with_tuples():
    rng = random.Random(31)
    for _ in range(120):
        dim = rng.randint(1, 4)
        spread = rng.choice((2, 5, 10 ** 6, 2 ** 40))  # 2**40 puts the frame past int64
        tup, arr = _twins(rng, dim, rng.randint(1, 30), spread)
        _agree(tup, arr)
        _agree(arr, LatticeSet.from_array(arr.array[::-1], dim))  # array vs array
        assert arr.array.tolist() == [list(p) for p in sorted(set(tup))]
        # subsets drawn from the set, and random sets that are mostly not subsets
        sub = rng.sample(tup.sorted_points(), rng.randint(0, len(tup)))
        for other in (sub, sub + [tuple(rng.randint(-spread, spread) for _ in range(dim))]):
            pair = LatticeSet(other, dim), LatticeSet.from_array(np.array(other, dtype=np.int64)
                                                               .reshape(-1, dim), dim)
            expected = set(other) <= set(tup)
            for small in pair:
                for big in (tup, arr):
                    assert small.issubset(big) == expected
                    assert (small == big) == (set(other) == set(tup))


def test_set_contract_reads_the_array():
    # equal sets hash equal, iterate as int tuples in lex order, and hold
    # exactly the points they iterate; a point that is not dim integers, or
    # that passes int64, is not a member, even when its values equal one
    rng = random.Random(18)
    for _ in range(60):
        dim = rng.randint(1, 4)
        spread = rng.choice((3, 2 ** 40))  # 2**40 puts the frame past int64
        for s in _twins(rng, dim, rng.randint(1, 20), spread):
            points = list(s)
            assert points == list(s.sorted_points()) == sorted(set(points))
            assert all(type(p) is tuple and len(p) == dim and all(type(c) is int for c in p)
                       for p in points)
            assert hash(s) == hash(LatticeSet(points, dim)) == hash(LatticeSet.from_array(s.array, dim))
            probes = [tuple(rng.randint(-spread, spread) for _ in range(dim)) for _ in range(20)]
            for p in probes + points:
                assert (p in s) == (p in set(points)) == (list(p) in s)
            p = points[0]
            assert s.array[0] in s and np.array(p) in s
            for bad in (p + (0,), p[:-1], tuple(map(float, p)), tuple(map(str, p)),
                        (None,) * dim, (2 ** 63,) * dim, p[0], None):
                assert bad not in s


def test_from_array_subset_test_outside_the_box():
    inner = LatticeSet.from_array(np.array([[0, 0], [0, 1], [1, 0], [1, 1]]), 2)
    # (0, 3) and (1, -2) would take the codes of (1, 0) and (0, 1) in the
    # frame of the 2 x 2 box
    for point in ([2, 0], [0, -1], [-1, 5], [1, 2], [0, 3], [1, -2]):
        outer = LatticeSet.from_array(np.array([point]), 2)
        mixed = LatticeSet.from_array(np.array([[0, 0], point]), 2)
        assert not outer.issubset(inner) and not mixed.issubset(inner)
        assert not mixed.issubset(LatticeSet([(0, 0), (1, 1), (0, 5)]))
    # inside the box but not a member: the code falls between two codes
    assert not LatticeSet.from_array(np.array([[1, 1]]), 2).issubset(
        LatticeSet.from_array(np.array([[0, 0], [2, 2], [0, 2]]), 2))
    empty = LatticeSet.from_array(np.zeros((0, 2), dtype=np.int64), 2)
    assert empty.issubset(inner) and not inner.issubset(empty) and len(empty) == 0


def test_from_array_sorts_and_drops_repeats():
    rows = np.array([[3, -1], [0, 5], [3, -1], [-2, 7], [0, 5], [0, 4]])
    s = LatticeSet.from_array(rows, 2)
    assert s.array.tolist() == [[-2, 7], [0, 4], [0, 5], [3, -1]]
    assert s.sorted_points() == ((-2, 7), (0, 4), (0, 5), (3, -1))
    assert len(s) == 4 and (0, 5) in s and (5, 0) not in s
    rows[0, 0] = 99  # the set keeps its own copy
    assert s.array.tolist()[3] == [3, -1]


def test_stored_array_is_read_only():
    for s in (LatticeSet.from_array(np.array([[1, 2], [3, 4]]), 2), LatticeSet([(1, 2), (3, 4)])):
        with pytest.raises(ValueError):
            s.array[0, 0] = 7
        assert s.sorted_points() == ((1, 2), (3, 4))


def test_from_array_rejects_bad_input():
    for bad, dim in ((np.zeros((2, 3)), 3), (np.zeros(4, dtype=np.int64), 1),
                     (np.zeros((2, 3), dtype=np.uint64), 3), (np.zeros((2, 3), dtype=np.int64), 2),
                     (np.zeros((0, 2), dtype=np.int64), None)):
        with pytest.raises(InvariantViolation):
            LatticeSet.from_array(bad, dim)
    with pytest.raises(InvariantViolation):
        LatticeSet([])  # an empty set still needs a dim


def test_coordinates_past_int64_are_rejected():
    # a coordinate past int64 is refused where the set is built, from tuples
    # and from JSON, so no count ever sees one
    good = {"dim": 2, "a1": [[0, 0]], "a2": [[0, 0], [1, 0]], "a3": [[0, 0], [1, 0], [0, 1]]}
    for far in (2 ** 63, -2 ** 63 - 1):
        with pytest.raises(InvariantViolation, match="must fit in int64"):
            LatticeSet([(far, 0), (0, 0), (1, 0)])
        with pytest.raises(InvariantViolation, match="must fit in int64"):
            LatticeSet.from_json([[0, far]], 2)
        with pytest.raises(InvariantViolation, match="must fit in int64"):
            ConvexTriple.from_json_dict({**good, "a3": good["a3"] + [[far, 0]]})
    edge = LatticeSet([(2 ** 63 - 1, 0), (-2 ** 63, 0)])  # int64's own extremes fit
    assert edge.sorted_points() == ((-2 ** 63, 0), (2 ** 63 - 1, 0))


def test_coordinates_must_be_integers():
    good = {"dim": 2, "a1": [[0, 0]], "a2": [[0, 0], [1, 0]], "a3": [[0, 0], [1, 0], [0, 1]]}
    assert ConvexTriple.from_json_dict(good).a3.sorted_points() == ((0, 0), (0, 1), (1, 0))
    ints = LatticeSet([(np.int64(3), True)])  # anything with __index__ is an integer
    assert ints.sorted_points() == ((3, 1),) and type(ints.sorted_points()[0][0]) is int
    for bad in ([2.7, 0], [2.0, 0], ["3", 1], [None, 1], 5):
        with pytest.raises(InvariantViolation):
            ConvexTriple.from_json_dict({**good, "a3": good["a3"] + [bad]})


def test_sets_and_triples_survive_pickle_and_deepcopy():
    tup = LatticeSet([(3, -1), (0, 5), (-2, 7)])
    arr = LatticeSet.from_array(np.array([[3, -1], [0, 5], [-2, 7], [0, 4]]), 2)
    empty = LatticeSet([], 3)
    triple = ConvexTriple(LatticeSet([(0, 0)]), LatticeSet([(0, 0), (1, 0)]),
                          LatticeSet.from_array(np.array([[0, 0], [1, 0], [0, 1]]), 2), "regions")
    for obj in (tup, arr, empty, triple):
        for back in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
            assert type(back) is type(obj) and back is not obj
            assert back == obj and repr(back) == repr(obj)
    assert copy.deepcopy(triple).witness_regions == "regions"


def test_triples_compare_by_their_sets_and_are_immutable():
    a1, a2, a3 = LatticeSet([(0, 0)]), LatticeSet([(0, 0), (1, 0)]), LatticeSet([(0, 0), (1, 0), (0, 1)])
    drawn, described = ConvexTriple(a1, a2, a3), ConvexTriple(a1, a2, a3, "regions")
    assert drawn == described and hash(drawn) == hash(described)
    assert drawn != ConvexTriple(a1, a1, a3)
    for name in ("a1", "witness_regions"):
        with pytest.raises(AttributeError):
            setattr(drawn, name, a3)
    # a name that is no field has no slot; CPython 3.10-3.13's frozen slots
    # dataclass raises TypeError for it
    with pytest.raises((AttributeError, TypeError)):
        drawn.extra = a3
    assert drawn.a1 == a1 and drawn.witness_regions is None and not hasattr(drawn, "extra")
    for sets in ((a2, a1, a3), (a1, a3, a2)):
        with pytest.raises(InvariantViolation, match="a1 <= a2 <= a3"):
            ConvexTriple(*sets)
    with pytest.raises(InvariantViolation, match="dimension mismatch"):
        ConvexTriple(LatticeSet([], 3), a2, a3)


# ---------------------------------------------------------------------------
# mid-point counts
# ---------------------------------------------------------------------------

def test_midpoint_singleton():
    a = LatticeSet([(0, 0)])
    assert midpoint_count(a, a) == 1


def test_midpoint_collinear_pair():
    a = LatticeSet([(0, 0), (2, 0)])
    assert midpoint_count(a, a) == 3


def test_midpoint_dimension_mismatch_rejected():
    with pytest.raises(InvariantViolation):
        midpoint_count(LatticeSet([(0, 0)]), LatticeSet([(0, 0, 0)]))


def test_midpoint_counts_match_bruteforce():
    rng = random.Random(101)
    for _ in range(120):
        dim = rng.randint(1, 4)
        a = random_set(rng, dim, max_points=40)
        b = random_set(rng, dim, max_points=40)
        assert midpoint_count(a, b) == len(naive_midpoints(a, b))


def test_sparse_counting_path_matches_dense(monkeypatch):
    # scaled by 1,000, a configuration has a frame of 1e16 cells, past the
    # bitmap but inside int64, so np.unique sorts its sums; scaled by 10,000
    # its frame of 1e20 cells passes int64 and is counted in python ints;
    # the configuration itself goes through the dense bitmap
    rng = random.Random(17)
    base = [tuple(rng.randint(0, 5) for _ in range(4)) for _ in range(18)]
    base += [(0,) * 4, (5,) * 4]  # the frame spans 2 * 5 * scale + 1 cells per axis
    near, sub = LatticeSet(base), LatticeSet(base[:7])
    expected = midpoint_count(near, near), union_midpoint_count(sub, near, sub)

    def no_dense(*args):
        raise AssertionError("counted in a dense frame")

    monkeypatch.setattr(lattice, "_count_bitmap", no_dense)
    monkeypatch.setattr(lattice, "_runs", no_dense)
    for scale in (1_000, 10_000):
        far = LatticeSet([tuple(c * scale for c in p) for p in base])
        sub_far = LatticeSet([tuple(c * scale for c in p) for p in base[:7]])
        cells = frame_cells(far)
        assert cells == (10 * scale + 1) ** 4 and _DENSE_CELL_LIMIT < cells
        assert (cells <= lattice._INT64_MAX) == (scale == 1_000)
        assert (midpoint_count(far, far), union_midpoint_count(sub_far, far, sub_far)) == expected


def test_sorted_sums_merge_across_chunks(monkeypatch):
    # a frame past the bitmap sorts its sums a chunk at a time: chunks of 1-7
    # sums end inside and at the end of rows, and sums repeat across chunks
    # and across the two pairs of a union
    def no_dense(*args):
        raise AssertionError("counted in a dense frame")

    monkeypatch.setattr(lattice, "_count_bitmap", no_dense)
    monkeypatch.setattr(lattice, "_runs", no_dense)
    rng = random.Random(41)
    for chunk in (1, 3, 7):
        monkeypatch.setattr(lattice, "_OUTER_CHUNK", chunk)
        for _ in range(20):
            dim = rng.randint(1, 3)
            scale = {1: 10 ** 7, 2: 10 ** 4, 3: 10 ** 3}[dim]
            a, b = (LatticeSet([tuple(c * scale for c in p) for p in random_set(rng, dim, 12)], dim)
                    for _ in range(2))
            both = LatticeSet(set(a) | set(b), dim)
            assert _DENSE_CELL_LIMIT < frame_cells(both) <= lattice._INT64_MAX
            assert midpoint_count(a, b) == len(naive_midpoints(a, b))
            assert union_midpoint_count(a, b, a) == naive_union_count(a, b, a)


def test_pair_sums_past_int64_are_exact(monkeypatch):
    # points that fit in int64 but whose pair sums pass it are encoded from
    # the frame's minimum, so their sums are exact; so are the python-int
    # sums of a frame wider than int64, which go to a set and are never
    # sorted (sorting python ints made a rule-2.4 trial at the work cap in
    # dims 24 and 350 about twice as slow)
    for base in (2 ** 63 - 4, -2 ** 63):
        a = LatticeSet([(base, 0), (base + 1, 0), (base + 3, 1)])
        b = LatticeSet([(base, 0)])
        assert midpoint_count(a, a) == len(naive_midpoints(a, a)) == 6
        assert union_midpoint_count(b, a, a) == naive_union_count(b, a, a)
    wide = LatticeSet([(-2 ** 62, 0), (0, 1), (2 ** 62, 0), (2 ** 62, 1)])
    assert frame_cells(wide) > lattice._INT64_MAX

    def no_sort(*args, **kwargs):
        raise AssertionError("python-int sums sorted")

    monkeypatch.setattr(lattice, "_distinct", no_sort)
    assert midpoint_count(wide, wide) == len(naive_midpoints(wide, wide))


def test_pair_sums_with_an_empty_set_are_none():
    a, empty = LatticeSet([(0, 0), (1, 0)]), LatticeSet([], 2)
    assert midpoint_count(empty, a) == midpoint_count(a, empty) == 0
    assert union_midpoint_count(empty, a, a) == 3


def test_union_count_matches_bruteforce():
    rng = random.Random(55)
    for _ in range(80):
        dim = rng.randint(2, 4)
        a3 = random_set(rng, dim, max_points=40)
        sub = rng.sample(a3.sorted_points(), rng.randint(1, len(a3)))
        a2 = LatticeSet(sub, dim)
        a1 = LatticeSet(rng.sample(sub, rng.randint(1, len(sub))), dim)
        expected = len(naive_midpoints(a1, a3) | naive_midpoints(a2, a2))
        assert union_midpoint_count(a1, a3, a2) == expected


@settings(deadline=None)
@given(st.lists(st.tuples(st.integers(-8, 8), st.integers(-8, 8)),
                min_size=1, max_size=14),
       st.lists(st.tuples(st.integers(-8, 8), st.integers(-8, 8)),
                min_size=1, max_size=14))
def test_midpoint_symmetric(pa, pb):
    a, b = LatticeSet(pa), LatticeSet(pb)
    assert midpoint_count(a, b) == midpoint_count(b, a) == len(naive_midpoints(a, b))


@settings(deadline=None)
@given(st.lists(st.tuples(st.integers(-8, 8), st.integers(-8, 8)),
                min_size=2, max_size=16))
def test_selfsum_floor(points):
    a = LatticeSet(points)
    if dimension(a) >= 1:
        assert midpoint_count(a, a) >= 2 * len(a) - 1


def _both_paths(pairs):
    """(bitmap count, run count) of the distinct sums over the set pairs."""
    mins, strides, cells = lattice._sum_frame([lattice._bounds(s.array)
                                               for pair in pairs for s in pair if len(s)])
    code_pairs = [(lattice._encode(a.array, mins, strides, cells),
                   lattice._encode(b.array, mins, strides, cells)) for a, b in pairs]
    runs = [(lattice._runs(a), lattice._runs(b)) for a, b in code_pairs]
    return lattice._count_bitmap(code_pairs, cells), lattice._count_runs(runs, cells)


def _staircase(rng, dim, gens, top):
    """A fully arranged set: the union of the boxes between 0 and a few points."""
    corners = [[rng.randint(0, top) for _ in range(dim)] for _ in range(gens)]
    return LatticeSet({p for c in corners for p in itertools.product(*(range(x + 1) for x in c))},
                      dim)


def _runs_set(rng, dim, rows, spread):
    """Random runs along the last axis, from random starts and of random lengths."""
    pts = set()
    for _ in range(rows):
        head = tuple(rng.randint(-spread, spread) for _ in range(dim - 1))
        start = rng.randint(-spread, spread)
        pts.update(head + (x,) for x in range(start, start + rng.randint(1, 3 * spread)))
    return LatticeSet(pts, dim)


def _edge_set(rng, dim, spread):
    """Runs that end on one face of the frame and start again on the opposite
    face one row on, plus the frame's two corners; dim >= 2."""
    pts = {(spread,) * dim, (-spread,) * dim}
    for _ in range(rng.randint(1, 4)):
        head = [rng.randint(-spread, spread - 1) for _ in range(dim - 1)]
        cut = rng.randint(-spread, spread)
        pts.update(tuple(head) + (x,) for x in range(cut, spread + 1))
        pts.update(tuple(head[:-1] + [head[-1] + 1]) + (x,) for x in range(-spread, cut + 1))
    return LatticeSet(pts, dim)


@pytest.mark.parametrize("kind", ["boxes", "staircases", "runs", "frame-edges", "empty-side"])
def test_run_and_bitmap_paths_match_the_oracle(kind, monkeypatch):
    monkeypatch.setattr(lattice, "_OUTER_CHUNK", 5)  # many chunks per pair
    rng = random.Random(kind)
    for _ in range(40):
        dim = rng.randint(1, 4)
        if kind == "boxes":
            a, b = (_box([rng.randint(1, 5) for _ in range(dim)],
                         [rng.randint(-3, 3) for _ in range(dim)]) for _ in range(2))
        elif kind == "staircases":
            a, b = (_staircase(rng, dim, rng.randint(1, 4), 3) for _ in range(2))
        elif kind == "runs":
            a, b = (_runs_set(rng, dim, rng.randint(1, 6), 4) for _ in range(2))
        elif kind == "frame-edges":
            spread = rng.randint(1, 4)
            a, b = _edge_set(rng, max(dim, 2), spread), _edge_set(rng, max(dim, 2), spread)
        else:
            a, b = LatticeSet([], dim), _runs_set(rng, dim, rng.randint(1, 6), 4)
        sub = LatticeSet(rng.sample(b.sorted_points(), rng.randint(0, len(b))), b.dim)
        for pairs in ([(a, b)], [(b, a)], [(a, b), (sub, sub)], [(sub, b), (a, a)]):
            expected = naive_sum_count(pairs)
            assert _both_paths(pairs) == (expected, expected), (kind, pairs)


def test_run_path_counts_two_boxes_by_their_closed_form():
    rng = random.Random(36)
    for _ in range(60):
        dim = rng.randint(1, 5)
        sides = [[rng.randint(1, 6) for _ in range(dim)] for _ in range(2)]
        a, b = (_box(s, [rng.randint(-4, 4) for _ in range(dim)]) for s in sides)
        assert _both_paths([(a, b)]) == (box_sum_count(*sides),) * 2


def _less_a_corner(box):
    """A box less its greatest corner: with every side at least 2 it keeps
    the box's bounds, so it is no full box, and its codes keep the box's runs."""
    return LatticeSet.from_array(box.array[:-1], box.dim)


def test_rule_2_6_boxes_less_a_corner_take_the_run_path(monkeypatch):
    # rule 2.6's own boxes are counted in closed form, so the run path is
    # reached here on the same boxes less a corner each
    def no_bitmap(*args):
        raise AssertionError("marked a bitmap")

    t = triple_for_rule("2.6", 3)
    a1, a2, a3 = map(_less_a_corner, (t.a1, t.a2, t.a3))
    empty = LatticeSet([], 4)
    expected = [_both_paths([(a1, a3), (a2, a2)])[0], _both_paths([(a2, a2)])[0]]
    monkeypatch.setattr(lattice, "_count_bitmap", no_bitmap)
    assert union_midpoint_count(a1, a3, a2) == expected[0]
    assert union_midpoint_count(empty, a3, a2) == expected[1]


def test_a_set_in_several_pairs_is_framed_encoded_and_split_once(monkeypatch):
    # the (A2, A2) pair of a union count encodes A2 once, and on the run
    # path splits its codes into runs once; the counts are the oracle's.
    # Full boxes take the closed form, so each set is a box less a corner
    t = triple_for_rule("2.6", 3)
    a1, a2, a3 = map(_less_a_corner, (t.a1, t.a2, t.a3))
    encoded, split = [], []
    real_encode, real_runs = lattice._encode, lattice._runs
    monkeypatch.setattr(lattice, "_encode", lambda arr, *frame: encoded.append(len(arr))
                        or real_encode(arr, *frame))
    monkeypatch.setattr(lattice, "_runs", lambda codes: split.append(len(codes)) or real_runs(codes))
    assert union_midpoint_count(a1, a3, a2) == naive_sum_count([(a1, a3), (a2, a2)])
    assert sorted(encoded) == sorted(split) == sorted(map(len, (a1, a2, a3)))
    encoded.clear()
    a = _less_a_corner(_box([3, 4]))
    assert midpoint_count(a, a) == naive_sum_count([(a, a)]) and encoded == [len(a)]


def _no_codes(*args):
    raise AssertionError("encoded, split, marked or scanned a full box")


def test_rule_2_6_triples_take_no_codes_runs_or_bitmap(monkeypatch):
    # every set of a rule-2.6 triple is a full box: its nesting, its union
    # count and its chains are read from the boxes' bounds
    t = triple_for_rule("2.6", 3)
    expected = _both_paths([(t.a1, t.a3), (t.a2, t.a2)])[0]
    for name in ("_encode", "_runs", "_count_bitmap", "_longest_run", "_sparse_longest_chain"):
        monkeypatch.setattr(lattice, name, _no_codes)
    for seed in range(4):
        drawn = triple_for_rule("2.6", seed)
        checks = {c.name: c.detail for c in lemmas.hypothesis_report("2.6", drawn).checks}
        assert checks["chain_a3_lt_eps"].startswith(f"{max(_sides(drawn.a3))} vs ")
        assert lemmas.verify_lemma("2.6", drawn).lhs_count == union_midpoint_count(
            drawn.a1, drawn.a3, drawn.a2)
    assert t == triple_for_rule("2.6", 3) and union_midpoint_count(t.a1, t.a3, t.a2) == expected
    assert longest_chain(t.a3) == max(_sides(t.a3))


# the largest side of a random box per dim, so that the naive oracles stay quick
_MAX_SIDE = {1: 9, 2: 5, 3: 4, 4: 3, 5: 2}


def _sides(box):
    return [h - l + 1 for l, h in zip(*lattice._bounds(box.array))]


def _random_box(rng, dim):
    """A box with sides of 1 to _MAX_SIDE[dim], a side of 1 about half the time."""
    return _box([rng.choice((1, rng.randint(1, _MAX_SIDE[dim]))) for _ in range(dim)],
                [rng.randint(-3, 3) for _ in range(dim)])


def _sub_box(rng, box):
    lo, hi = lattice._bounds(box.array)
    los = [rng.randint(l, h) for l, h in zip(lo, hi)]
    return _box([rng.randint(1, h - l + 1) for l, h in zip(los, hi)], los)


def _box_unions(rng, kind):
    """Boxes (a1, a3, a2) in dims 1-5 whose sum boxes a1 + a3 and a2 + a2
    are disjoint, overlap, or nest, or with a1 empty."""
    dim = rng.randint(1, 5)
    a1, a3, a2 = (_random_box(rng, dim) for _ in range(3))
    if kind == "disjoint":  # 2 * 20 passes every sum of a1 + a3
        a2 = LatticeSet.from_array(a2.array + np.eye(1, dim, dtype=np.int64) * 20, dim)
    elif kind == "nested":  # a2 inside a1 = a3
        a1, a2 = a3, _sub_box(rng, a3)
    elif kind == "empty-a1":
        a1 = LatticeSet([], dim)
    return a1, a3, a2


@pytest.mark.parametrize("kind", ["disjoint", "overlapping", "nested", "empty-a1"])
def test_full_box_pair_sums_match_the_oracles(kind, monkeypatch):
    rng = random.Random(kind)
    cases = [_box_unions(rng, kind) for _ in range(40)]
    expected = [(naive_sum_count([(a1, a3), (a2, a2)]), naive_sum_count([(a3, a2)]))
                for a1, a3, a2 in cases]
    monkeypatch.setattr(lattice, "_encode", _no_codes)
    for (a1, a3, a2), (union, pair) in zip(cases, expected):
        assert union_midpoint_count(a1, a3, a2) == union, (kind, a1, a3, a2)
        assert midpoint_count(a3, a2) == pair == box_sum_count(_sides(a3), _sides(a2))
        assert midpoint_count(a2, a2) == box_sum_count(_sides(a2), _sides(a2))
        if kind == "empty-a1":
            assert union == box_sum_count(_sides(a2), _sides(a2))
        elif kind == "nested":
            assert union == box_sum_count(_sides(a1), _sides(a3))


def test_full_box_chains_and_subsets_match_the_oracles(monkeypatch):
    rng = random.Random(93)
    cases = []
    for _ in range(60):
        box = _random_box(rng, rng.randint(1, 5))
        others = [_sub_box(rng, box), _random_box(rng, box.dim)]
        cases.append((box, others, naive_chain(box)))
    for name in ("_encode", "_longest_run", "_sparse_longest_chain"):
        monkeypatch.setattr(lattice, name, _no_codes)
    for box, others, chain in cases:
        assert longest_chain(box) == chain == max(_sides(box))
        for other in others:
            assert other.issubset(box) == (set(other) <= set(box)), (box, other)


def test_near_boxes_take_the_general_paths():
    # a box less one point and a box plus one point outside its bounds are
    # no full boxes (unless the point removed ends a line); every count,
    # chain and subset test on them agrees with the oracles
    rng = random.Random(94)
    for _ in range(60):
        box = _random_box(rng, rng.randint(1, 5))
        if len(box) == 1:
            continue
        points = box.sorted_points()
        gone = points[-1] if rng.random() < 0.5 else rng.choice(points)
        less = LatticeSet([p for p in points if p != gone], box.dim)
        far = [h + rng.randint(1, 2) for h in lattice._bounds(box.array)[1]]
        outside = tuple(rng.choice((f, x)) for f, x in zip(far, points[0]))
        outside = outside if outside != points[0] else tuple(far)
        more = LatticeSet(points + (outside,), box.dim)
        for s in (less, more):
            assert longest_chain(s) == naive_chain(s), s.sorted_points()
            # the point taken out and the point put in, each alone, are no
            # larger than the sets they are tested against
            for a, b in ((s, box), (box, s), (s, s), (LatticeSet([gone]), less),
                         (LatticeSet([outside]), box), (LatticeSet([outside]), s)):
                assert midpoint_count(a, b) == naive_sum_count([(a, b)])
                assert a.issubset(b) == (set(a) <= set(b)), (a.sorted_points(), b.sorted_points())
            for a1, a3, a2 in ((s, box, s), (box, s, box), (s, s, box)):
                assert union_midpoint_count(a1, a3, a2) == naive_sum_count([(a1, a3), (a2, a2)])


def test_rule_2_4_sized_calls_never_look_for_runs(monkeypatch):
    from autbounds.lemmas import triple_for_rule, verify_lemma

    def no_runs(*args):
        raise AssertionError("looked for runs")

    monkeypatch.setattr(lattice, "_runs", no_runs)
    for dim in (3, 4):
        for seed in range(20):
            t = triple_for_rule("2.4", seed, dim, 44, 44)  # rule 2.4's largest size
            verify_lemma("2.4", t)
            union_midpoint_count(t.a1, t.a3, t.a2)


# ---------------------------------------------------------------------------
# dimension and chains
# ---------------------------------------------------------------------------

def test_dimension_examples():
    assert dimension(LatticeSet([(5, 7)])) == 0
    assert dimension(LatticeSet([(0, 0), (1, 0), (0, 1)])) == 2
    assert dimension(LatticeSet([(0, 0, 0), (1, 1, 1), (2, 2, 2)])) == 1


def test_dimension_empty_rejected():
    with pytest.raises(InvariantViolation):
        dimension(LatticeSet([], dim=2))


def test_dimension_matches_rational_elimination():
    # points on a random affine subspace, so every rank from 0 to dim occurs
    rng = random.Random(37)
    for _ in range(150):
        dim = rng.randint(1, 5)
        basis = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(rng.randint(0, dim))]
        origin = [rng.randint(-5, 5) for _ in range(dim)]
        rows = [[o + sum(rng.randint(-2, 2) * b[c] for b in basis) for c, o in enumerate(origin)]
                for _ in range(rng.randint(1, 20))]
        expected = naive_rank([[x - y for x, y in zip(r, rows[0])] for r in rows])
        assert dimension(LatticeSet(map(tuple, rows), dim)) == expected
        assert dimension(LatticeSet.from_array(np.array(rows, dtype=np.int64), dim)) == expected


def test_dimension_is_computed_once_per_set(monkeypatch):
    ranks = []
    real = lattice.integer_rank
    monkeypatch.setattr(lattice, "integer_rank", lambda rows: ranks.append(1) or real(rows))
    t = triple_for_rule("2.6", 3)
    calls = len(ranks)  # the draw's own check of dim a1
    assert dimension(t.a1) == 4 and dimension(t.a1) == 4 and len(ranks) == calls


def test_chain_examples():
    assert longest_chain(LatticeSet([(0, 0)])) == 1
    assert longest_chain(LatticeSet([(0, 0), (1, 0), (2, 0), (0, 1)])) == 3
    assert longest_chain(LatticeSet([(0,), (2,), (4,)])) == 3  # gappy step


def test_chain_matches_bruteforce():
    rng = random.Random(2024)
    for _ in range(120):
        dim = rng.randint(1, 4)
        a = random_set(rng, dim, max_points=35, spread=5)
        assert longest_chain(a) == naive_chain(a)


def _box(sides, offsets=None):
    offsets = offsets or [0] * len(sides)
    return LatticeSet(itertools.product(*[range(o, o + s) for o, s in zip(offsets, sides)]),
                      len(sides))


def test_chain_matches_oracle_in_dims_1_to_6():
    rng = random.Random(90)
    max_side = {1: 9, 2: 9, 3: 6, 4: 4, 5: 3}
    for _ in range(30):
        for dim in range(1, 6):
            # sparse: few points in a wide box, so most of the scanned
            # directions join no two points
            sparse = random_set(rng, dim, max_points=10, spread=60 if dim == 1 else 6)
            # dense: a box with a fifth of its points removed
            box = _box([rng.randint(1, max_side[dim]) for _ in range(dim)])
            dense = LatticeSet([p for p in box.sorted_points() if rng.random() < 0.8]
                               or box.sorted_points()[:1], dim)
            # gappy: points on a coarse sublattice plus a few strays, so
            # the longest chains have non-primitive steps
            step = rng.randint(2, 4)
            gappy = LatticeSet({tuple(step * rng.randint(-3, 3) + (rng.random() < 0.1)
                                      for _ in range(dim)) for _ in range(rng.randint(1, 40))}, dim)
            for a in (sparse, dense, gappy):
                assert longest_chain(a) == naive_chain(a), (dim, sorted(a))
    # the convex generator's sets in six dimensions
    for seed in range(4):
        t = triple_for_rule("2.7", seed, dim=6)
        for a in (t.a2, t.a3):
            assert longest_chain(a) == naive_chain(a), seed


def test_chain_sparse_fallback_matches_oracle():
    # coordinates 10^8 apart put the padded bounding box past the dense
    # limit; the chain is unchanged by the scaling
    rng = random.Random(91)
    for _ in range(30):
        dim = rng.randint(1, 4)
        a = random_set(rng, dim, max_points=20, spread=3)
        far = LatticeSet([tuple(10**8 * c for c in p) for p in a], dim)
        assert longest_chain(far) == longest_chain(a) == naive_chain(a)


def test_chain_of_wide_sparse_sets_walks_pairs(monkeypatch):
    # a few points spread over a box that fits the bitmap: the level-3 cap
    # box holds about 2 M (square) and 1.7 M (cube) directions, so walking
    # the pairs is far cheaper than scanning every direction from each point
    rng = random.Random(94)
    square = LatticeSet({(rng.randint(0, 2000), rng.randint(0, 2000)) for _ in range(40)}, 2)
    cube = LatticeSet({tuple(rng.randint(0, 150) for _ in range(3)) for _ in range(30)}, 3)

    def no_scan(*args):
        raise AssertionError("scanned the bitmap")

    monkeypatch.setattr(lattice, "_longest_run", no_scan)
    for a in (square, cube):
        assert longest_chain(a) == lattice._sparse_longest_chain(a) == naive_chain(a)


def test_chain_of_a_box_is_its_longest_side():
    # 2.6-scale product boxes of 5,000-9,900 points
    rng = random.Random(92)
    checked = 0
    while checked < 12:
        sides = [rng.randint(6, 13) for _ in range(4)]
        if not 5_000 <= prod(sides) <= 9_900:
            continue
        box = _box(sides, [rng.randint(-3, 3) for _ in range(4)])
        assert longest_chain(box) == max(sides)
        checked += 1


def test_centred_box_matches_the_product_box(monkeypatch):
    # every radii tuple up to 4 in dims 1-3, and a sample of them in dim 4;
    # each block is built into an empty cache, then read from it
    rng = random.Random(95)
    radii = [r for dim in (1, 2, 3) for r in itertools.product(range(5), repeat=dim)]
    radii += [tuple(rng.randint(0, 4) for _ in range(4)) for _ in range(40)]
    for r in radii:
        monkeypatch.setattr(lattice, "_centred_boxes", {})
        box = lattice._centred_box(r)
        assert box.dtype == np.int64 and box.shape == (prod(2 * x + 1 for x in r), len(r))
        assert box.tolist() == naive_centred_box(r), r
        assert lattice._centred_box(r) is box, r


def test_centred_box_is_read_only_and_kept_up_to_its_row_bound(monkeypatch):
    monkeypatch.setattr(lattice, "_centred_boxes", {})
    box = lattice._centred_box((2, 3))
    with pytest.raises(ValueError):
        box += 1
    with pytest.raises(ValueError):
        box[0, 0] = 7
    assert lattice._centred_box((2, 3)) is box and box.tolist() == naive_centred_box((2, 3))
    # a block past the bound (a w = 12 gauge scan in dim 4, 25**4 rows) is
    # built on each call, read-only all the same
    scan = lattice._centred_box((12,) * 4)
    assert lattice._centred_box((12,) * 4) is not scan and not scan.flags.writeable
    assert scan.tolist() == naive_centred_box((12,) * 4)
    # dim 1 at the bound: 2 * 16366 + 1 rows and the 35 above fill it
    # exactly; then nothing more is kept
    kept = lattice._centred_box((16366,))
    assert len(kept) + len(box) == lattice._BOX_CACHE_ROWS and lattice._centred_box((16366,)) is kept
    late = lattice._centred_box((1,))
    assert lattice._centred_box((1,)) is not late and late.tolist() == [[-1], [0], [1]]
    assert set(lattice._centred_boxes) == {(2, 3), (16366,)}
    monkeypatch.setattr(lattice, "_centred_boxes", {})
    assert len(lattice._centred_box((16384,))) == lattice._BOX_CACHE_ROWS + 1
    assert lattice._centred_boxes == {}


def test_cap_shell_steps_match_the_naive_shells(monkeypatch):
    # each cap box is reused with several inner boxes, as longest_chain's
    # levels reach the same caps from different boxes above
    monkeypatch.setattr(lattice, "_centred_boxes", {})
    rng = random.Random(96)
    for _ in range(150):
        dim = rng.randint(1, 4)
        caps = [rng.randint(0, 4) for _ in range(dim)]
        # mixed-radix strides: a code is positive exactly when the first
        # nonzero entry of its direction is
        strides = np.array([prod(2 * c + 1 for c in caps[i + 1:]) for i in range(dim)],
                           dtype=np.int64) * rng.randint(1, 3)
        for _ in range(3):
            prev = [rng.randint(0, c) for c in caps]
            want = [int(np.dot(d, strides)) for d in naive_shell_directions(caps, prev)]
            assert lattice._cap_shell_steps(caps, prev, strides).tolist() == want, (caps, prev)


def test_integer_rank_matches_rational_elimination():
    rng = random.Random(93)
    for _ in range(200):
        ncols = rng.randint(1, 5)
        basis = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(rng.randint(1, ncols))]
        rows = [tuple(sum(rng.randint(-2, 2) * b[c] for b in basis) for c in range(ncols))
                for _ in range(rng.randint(0, 12))]
        rows += [tuple(rng.randint(-3, 3) for _ in range(ncols)) for _ in range(rng.randint(0, 2))]
        rng.shuffle(rows)
        assert integer_rank(rows) == naive_rank(rows)


# ---------------------------------------------------------------------------
# arrangement
# ---------------------------------------------------------------------------

def test_arrangement_example():
    out = arrangement(LatticeSet([(0, 0), (2, 0), (2, 1)]), 0)
    assert out == LatticeSet([(0, 0), (1, 0), (0, 1)])


def test_arrangement_fixed_point():
    a = LatticeSet([(0, 0), (1, 0), (0, 1), (1, 1), (2, 0)])
    assert arrangement(a, 0) == a


def test_arrangement_axis_out_of_range():
    with pytest.raises(InvariantViolation):
        arrangement(LatticeSet([(0, 0)]), 2)


def test_arrangement_matches_definition_oracle():
    rng = random.Random(11)
    for _ in range(80):
        dim = rng.randint(2, 3)
        a = random_set(rng, dim, max_points=30, spread=4)
        axis = rng.randrange(dim)
        assert arrangement(a, axis) == naive_arrangement(a, axis)


def test_arrangement_preserves_cardinality_and_monotone():
    rng = random.Random(12)
    for _ in range(60):
        dim = rng.randint(2, 4)
        big = random_set(rng, dim, max_points=40)
        small = LatticeSet(rng.sample(big.sorted_points(), rng.randint(1, len(big))), dim)
        axis = rng.randrange(dim)
        arr_big, arr_small = arrangement(big, axis), arrangement(small, axis)
        assert len(arr_big) == len(big) and len(arr_small) == len(small)
        assert arr_small.issubset(arr_big)


def test_arrangement_dimension_can_drop():
    # Dimension preservation fails in general, even for integrally convex
    # sets: this 2-dimensional set has singleton fibers along axis 1, so its
    # arrangement flattens onto the axis. Cardinality is still preserved.
    a = LatticeSet([(0, 0), (1, 1), (2, 3)])
    assert is_integrally_convex(a)
    assert dimension(a) == 2
    arr = arrangement(a, 1)
    assert len(arr) == 3
    assert dimension(arr) == 1


def test_arrangement_usually_preserves_dimension_on_fat_sets():
    from autbounds.lemmas import generate_nested_triple
    for seed in range(8):
        t = generate_nested_triple(3, 40, seed=seed)
        for s in (t.a1, t.a2, t.a3):
            arr = s
            for axis in range(s.dim):
                arr = arrangement(arr, axis)
            assert len(arr) == len(s)
            assert dimension(arr) == dimension(s)


def test_full_arrangement_gives_staircase():
    rng = random.Random(31)
    for _ in range(60):
        dim = rng.randint(2, 4)
        a = random_set(rng, dim, max_points=35)
        out = a
        for axis in range(dim):
            out = arrangement(out, axis)
        assert len(out) == len(a)
        assert naive_staircase(out)


# ---------------------------------------------------------------------------
# arranged union counts (rule 2.4's steps)
# ---------------------------------------------------------------------------

def naive_arranged_counts(a1, a2, a3):
    """The union count of the triple, then after each single-axis step."""
    sets = [a1, a2, a3]
    counts = [naive_union_count(a1, a3, a2)]
    for axis in range(a3.dim):
        sets = [naive_arrangement_by_definition(s, axis) for s in sets]
        counts.append(naive_union_count(sets[0], sets[2], sets[1]))
    return counts


def random_nested(rng, dim, n3, spreads, base=0):
    """A nested triple of random sets; a1 or a2 may be empty or all of a3."""
    a3 = sorted({tuple(base + rng.randint(-s, s) for s in spreads) for _ in range(n3)})
    a2 = rng.sample(a3, rng.choice((0, len(a3), rng.randint(0, len(a3)))))
    a1 = rng.sample(a2, rng.choice((0, len(a2), rng.randint(0, len(a2)))))
    return LatticeSet(a1, dim), LatticeSet(a2, dim), LatticeSet(a3, dim)


@pytest.fixture
def arrangement_calls(monkeypatch):
    """Count the calls of `lattice.arrangement`, which the rule-2.4 counts never
    make: the block kernel arranges every trial, one whose frame passes int64
    included."""
    real, calls = lattice.arrangement, []

    def counted(a, axis):
        calls.append(axis)
        return real(a, axis)

    monkeypatch.setattr(lattice, "arrangement", counted)
    return calls


def test_arranged_union_counts_match_the_oracle_step_by_step(arrangement_calls):
    # non-convex sets with negative coordinates; per-axis spreads from 0 to 5
    # give fibers from one point to the whole set
    rng = random.Random(24)
    for _ in range(150):
        dim = rng.randint(1, 5)
        spreads = [rng.choice((0, 1, 2, 5)) for _ in range(dim)]
        a1, a2, a3 = random_nested(rng, dim, rng.randint(1, 18), spreads, base=rng.randint(-4, 2))
        assert arranged_union_counts(a1, a2, a3) == naive_arranged_counts(a1, a2, a3)
    assert arrangement_calls == []


@pytest.mark.parametrize("which", ["empty-a1", "all-equal"])
def test_arranged_union_counts_at_the_nesting_extremes(which):
    rng = random.Random(25)
    for _ in range(30):
        dim = rng.randint(1, 4)
        _, _, a3 = random_nested(rng, dim, rng.randint(1, 16), [3] * dim)
        if which == "empty-a1":
            a1 = LatticeSet([], dim)
            a2 = LatticeSet(rng.sample(a3.sorted_points(), rng.randint(0, len(a3))), dim)
        else:
            a1 = a2 = a3
        assert arranged_union_counts(a1, a2, a3) == naive_arranged_counts(a1, a2, a3)
    empty = LatticeSet([], 3)
    assert arranged_union_counts(empty, empty, empty) == [0, 0, 0, 0]


def test_arranged_union_counts_past_the_dense_limit(arrangement_calls):
    rng = random.Random(26)
    for _ in range(20):
        dim = rng.randint(2, 4)
        spread = {2: 10 ** 5, 3: 10 ** 4, 4: 2000}[dim]  # the arranged frame still fits int64
        a1, a2, a3 = random_nested(rng, dim, rng.randint(4, 14), [spread] * dim)
        spans = [max(p[c] for p in a3) - min(p[c] for p in a3) for c in range(dim)]
        assert prod(2 * s + 1 for s in spans) > _DENSE_CELL_LIMIT
        assert arranged_union_counts(a1, a2, a3) == naive_arranged_counts(a1, a2, a3)
    assert arrangement_calls == []


def far_apart(triple, start):
    """The nested triple with two points 2**62 apart along axis 0 joined to
    a3, whose own sum frame then passes int64."""
    a1, a2, a3 = triple
    p = (start,) * a3.dim
    return a1, a2, LatticeSet(set(a3) | {p, (start + 2 ** 62,) + p[1:]}, a3.dim)


def frame_cells(a3):
    """The cells of the sum frame of a3's box, as `arranged_block_counts`
    frames a3's trial and `_pair_sum_codes` a3's self sums."""
    return lattice._frame_strides(*lattice._bounds(a3.array))[1]


@pytest.mark.parametrize("base", [2 ** 63 - 8, -2 ** 63 + 4, 2 ** 63 + 5],
                         ids=["near-max", "near-min", "past-max"])
def test_arranged_union_counts_near_int64_take_the_loop(arrangement_calls, base):
    # near +-2**63 the points and each trial's own frame fit in int64; a trial
    # whose own span passes int64 is counted by the kernel too, alone, on
    # python-int codes. Past 2**63 the points do not fit, and are refused
    # where the sets are built.
    rng = random.Random(27)
    for _ in range(10):
        dim = rng.randint(1, 3)
        if base > lattice._INT64_MAX:
            with pytest.raises(InvariantViolation, match="must fit in int64"):
                random_nested(rng, dim, rng.randint(1, 10), [3] * dim, base=base)
            continue
        triple = random_nested(rng, dim, rng.randint(1, 10), [3] * dim, base=base)
        assert arranged_union_counts(*triple) == naive_arranged_counts(*triple)
        assert arrangement_calls == []
        wide = far_apart(triple, base - 2 ** 62 if base > 0 else base)
        assert frame_cells(wide[2]) > lattice._INT64_MAX
        assert arranged_union_counts(*wide) == naive_arranged_counts(*wide)
        assert arrangement_calls == []


def test_arranged_union_counts_need_nested_sets_of_one_dim():
    a = LatticeSet([(0, 0), (1, 0)])
    with pytest.raises(InvariantViolation):
        arranged_union_counts(a, LatticeSet([(0, 0)]), a)
    with pytest.raises(InvariantViolation):
        arranged_union_counts(LatticeSet([(0,)]), a, a)


def leveled(a1, a2, a3):
    """A triple as a block trial: a3's array and a level per point."""
    return a3.array, np.array([1 if p in a1 else 2 if p in a2 else 3
                               for p in a3.sorted_points()], dtype=np.int8)


@pytest.fixture
def oversized_calls(monkeypatch):
    """Count the `_count_sums` calls, which only a trial of more than
    `_BLOCK_PAIRS` pairs makes in `arranged_block_counts`."""
    real, calls = lattice._count_sums, []

    def counted(code_pairs, cells):
        calls.append(cells)
        return real(code_pairs, cells)

    monkeypatch.setattr(lattice, "_count_sums", counted)
    return calls


@pytest.mark.parametrize("budget", [lattice._BLOCK_PAIRS, 40], ids=["one-chunk", "chunk-edges"])
def test_arranged_block_counts_match_the_oracle(monkeypatch, oversized_calls, arrangement_calls,
                                                budget):
    # blocks of 1-12 trials of mixed sizes, dims 1-6, negative minimums; at a
    # budget of 40 pairs the blocks cross chunk edges, and the larger trials
    # are chunks of their own
    monkeypatch.setattr(lattice, "_BLOCK_PAIRS", budget)
    rng = random.Random(28)
    for _ in range(40):
        dim = rng.randint(1, 6)
        triples = [random_nested(rng, dim, rng.randint(1, 14),
                                 [rng.choice((0, 1, 2, 4)) for _ in range(dim)],
                                 base=rng.randint(-5, 2))
                   for _ in range(rng.randint(1, 12))]
        got = lattice.arranged_block_counts([leveled(*t) for t in triples])
        assert got == [naive_arranged_counts(*t) for t in triples]
    assert arrangement_calls == []
    assert (oversized_calls != []) == (budget == 40)


def test_arranged_block_counts_at_the_nesting_extremes(monkeypatch):
    # empty a1, empty a2, a1 = a2 = a3 and empty a3 in one block, one chunk
    # and then one trial per chunk
    rng = random.Random(29)
    for budget in (lattice._BLOCK_PAIRS, 1):
        monkeypatch.setattr(lattice, "_BLOCK_PAIRS", budget)
        for dim in range(1, 5):
            triples = []
            for which in ("empty-a1", "empty-a2", "all-equal", "empty-a3", "random"):
                a1, a2, a3 = random_nested(rng, dim, rng.randint(1, 12), [2] * dim, base=-1)
                empty = LatticeSet([], dim)
                triples.append({"empty-a1": (empty, a2, a3), "empty-a2": (empty, empty, a3),
                                "all-equal": (a3, a3, a3), "empty-a3": (empty, empty, empty),
                                "random": (a1, a2, a3)}[which])
            got = lattice.arranged_block_counts([leveled(*t) for t in triples])
            assert got == [naive_arranged_counts(*t) for t in triples]
            assert got[3] == [0] * (dim + 1)


def test_arranged_block_counts_mix_past_int64_and_oversized_trials(
        monkeypatch, arrangement_calls, oversized_calls):
    # a block of small trials, trials whose own frame is past int64 (each a
    # chunk of its own, on python-int codes), and trials past a 60-pair budget
    # (counted alone by _pair_sum_codes, and so by _count_sums)
    monkeypatch.setattr(lattice, "_BLOCK_PAIRS", 60)
    rng = random.Random(30)
    for _ in range(6):
        dim = rng.randint(1, 3)
        kinds = [rng.choice(("small", "past-int64", "oversized")) for _ in range(8)]
        kinds[:3] = ["small", "past-int64", "oversized"]
        rng.shuffle(kinds)
        triples = [random_nested(rng, dim, {"small": 6, "past-int64": 6, "oversized": 40}[kind],
                                 [20 if kind == "oversized" else 3] * dim, base=-3)
                   for kind in kinds]
        triples = [far_apart(t, -3) if kind == "past-int64" else t
                   for t, kind in zip(triples, kinds)]
        got = lattice.arranged_block_counts([leveled(*t) for t in triples])
        assert got == [naive_arranged_counts(*t) for t in triples]
    assert arrangement_calls == []
    assert oversized_calls != []


def arranged_counts_by_steps(a1, a2, a3):
    """naive_arranged_counts through `arrangement` and tuple sums, for sets
    of a hundred points and more, where the definition's oracle is cubic."""
    sets = [a1, a2, a3]
    counts = [naive_sum_count([(a1, a3), (a2, a2)])]
    for axis in range(a3.dim):
        sets = [arrangement(s, axis) for s in sets]
        counts.append(naive_sum_count([(sets[0], sets[2]), (sets[1], sets[1])]))
    return counts


def test_arranged_block_counts_of_drawn_trials_past_int64(arrangement_calls, oversized_calls):
    # rule 2.4's own draws in dims 23-40, whose frames pass int64, at sizes on
    # both sides of the 128 points of a _BLOCK_PAIRS chunk, each between
    # int64 trials of the same dim, two of which share a chunk
    rng = random.Random(32)
    for dim, size in ((23, 128), (40, 129), (31, 60)):
        a3, level = lemmas._draw_trial(dim, size, size, rng.randrange(1 << 30))
        drawn = tuple(LatticeSet.from_array(a3[level <= top], dim) for top in (1, 2, 3))
        assert len(a3) == size and frame_cells(drawn[2]) > lattice._INT64_MAX
        spreads = rng.sample([1] * 20 + [0] * (dim - 20), dim)
        triples = [random_nested(rng, dim, rng.randint(4, 30), spreads) for _ in range(3)]
        triples.insert(1, drawn)
        assert [frame_cells(t[2]) > lattice._INT64_MAX for t in triples] == [False, True, False, False]
        calls = len(oversized_calls)
        got = lattice.arranged_block_counts([leveled(*t) for t in triples])
        assert got == [arranged_counts_by_steps(*t) for t in triples]
        assert len(oversized_calls) - calls == (dim + 1) * (size ** 2 > lattice._BLOCK_PAIRS)
    assert arrangement_calls == []


def test_arranged_block_counts_split_chunks_at_the_int64_code_space(monkeypatch):
    # trials whose own frames each hold about 2**60 cells: their shared code
    # space would pass int64 from the fifth trial of a chunk, so chunks split
    # there
    real, chunks = lattice._arranged_chunk_counts, []

    def counted(trials):
        chunks.append(len(trials))
        return real(trials)

    monkeypatch.setattr(lattice, "_arranged_chunk_counts", counted)
    rng = random.Random(31)
    for dim in (1, 2, 3):
        side = 2 ** (60 // dim - 1)  # a frame of (2 * side + 1) ** dim cells
        triples = []
        for _ in range(9):
            a1, a2, a3 = random_nested(rng, dim, 6, [side // 2] * dim, base=side // 2)
            triples.append((a1, a2, LatticeSet(set(a3) | {(0,) * dim, (side,) * dim}, dim)))
            assert 2 ** 59 < frame_cells(triples[-1][2]) <= lattice._INT64_MAX
        chunks.clear()
        got = lattice.arranged_block_counts([leveled(*t) for t in triples])
        assert got == [naive_arranged_counts(*t) for t in triples]
        assert sum(chunks) == 9 and max(chunks) < 9


# ---------------------------------------------------------------------------
# convexity predicates
# ---------------------------------------------------------------------------

def test_hull_membership_simple():
    tri = [(0, 0), (4, 0), (0, 4)]
    assert in_convex_hull((1, 1), tri)
    assert in_convex_hull((0, 4), tri)
    assert not in_convex_hull((3, 3), tri)
    assert not in_convex_hull((-1, 0), tri)


def test_hull_membership_matches_random_rational_combinations():
    rng = random.Random(5)
    for _ in range(30):
        pts = [tuple(rng.randint(-5, 5) for _ in range(3)) for _ in range(6)]
        weights = [rng.randint(0, 4) for _ in pts]
        if sum(weights) == 0:
            weights[0] = 1
        total = sum(weights)
        comb = tuple(sum(w * p[c] for w, p in zip(weights, pts)) for c in range(3))
        if all(x % total == 0 for x in comb):
            inner = tuple(x // total for x in comb)
            assert in_convex_hull(inner, pts)


def _hull_points(rng):
    """Up to 7 points in dims 1-4, collinear 30% of the time."""
    dim, n = rng.randint(1, 4), rng.randint(1, 7)
    if rng.random() < 0.3:
        base = [rng.randint(-3, 3) for _ in range(dim)]
        step = [rng.randint(-2, 2) for _ in range(dim)]
        return [tuple(b + t * s for b, s in zip(base, step)) for t in (rng.randint(-2, 2) for _ in range(n))]
    return [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(n)]


def _box_point(rng, pts):
    """A point of the bounding box of pts (widened by 1 for 15% of the
    draws), one of pts only when five draws give no other."""
    widen = rng.random() < 0.15
    for _ in range(5):
        point = tuple(rng.randint(min(p[c] for p in pts) - widen, max(p[c] for p in pts) + widen)
                      for c in range(len(pts[0])))
        if point not in pts:
            break
    return point


def test_hull_membership_matches_the_caratheodory_oracle():
    rng = random.Random(25)
    outcomes = Counter()
    for _ in range(150):
        pts = _hull_points(rng)
        point = _box_point(rng, pts)
        inside = naive_in_hull(point, pts)
        assert in_convex_hull(point, pts) == inside, (point, pts)
        outcomes[inside, point in pts] += 1
    # members that are no vertex, and non-members, are most of the draws
    assert outcomes[True, False] >= 20 and outcomes[False, False] >= 80


def test_relative_convexity_matches_the_caratheodory_oracle():
    rng = random.Random(26)
    outcomes = Counter()
    for _ in range(60):
        pts = _hull_points(rng)
        b = LatticeSet(pts)
        a = LatticeSet(pts + [_box_point(rng, pts) for _ in range(rng.randint(1, 3))])
        want = not any(naive_in_hull(p, pts) for p in set(a) - set(b))
        assert is_relatively_convex(b, a) == want, (b, a)
        outcomes[want, a == b] += 1
    assert outcomes[True, False] >= 10 and outcomes[False, False] >= 10


def test_lattice_points_in_hull_triangle():
    tri = LatticeSet([(0, 0), (2, 0), (0, 2)])
    hull = lattice_points_in_hull(tri)
    assert hull == LatticeSet([(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (0, 2)])


def test_relative_convexity():
    a = LatticeSet([(0, 0), (1, 0), (2, 0)])
    assert is_relatively_convex(a, a)
    b = LatticeSet([(0, 0), (2, 0)])
    assert not is_relatively_convex(b, a)
    with pytest.raises(InvariantViolation):
        is_relatively_convex(LatticeSet([(5, 5)]), a)


def test_generated_triples_pass_exact_convexity():
    from autbounds.lemmas import generate_nested_triple
    for seed in (0, 1, 2):
        t = generate_nested_triple(2, 25, seed=seed)
        t.validate_convexity()
        assert is_relatively_convex(t.a1, t.a2)
        assert is_relatively_convex(t.a2, t.a3)


# ---------------------------------------------------------------------------
# convex triples
# ---------------------------------------------------------------------------

def _triple(a1, a2, a3):
    return ConvexTriple(LatticeSet(a1), LatticeSet(a2), LatticeSet(a3))


def test_convex_triple_requires_nesting():
    with pytest.raises(InvariantViolation):
        _triple([(0, 0), (5, 5)], [(0, 0)], [(0, 0), (1, 1)])


def test_convex_triple_json_round_trip():
    t = _triple([(0, 0)], [(0, 0), (1, 0)], [(0, 0), (1, 0), (0, 1)])
    back = ConvexTriple.from_json_dict(t.to_json_dict())
    assert back == t
