"""Instance generators and verifiers for the mid-point counting rules.

The lab checks four counting rules on nested triples A1 <= A2 <= A3 of
integer point sets, identified by the rule ids "2.4", "2.5", "2.6", "2.7":

  2.4  arranging all three sets along a coordinate axis never increases
       #(A1.A3 u A2.A2); no side hypotheses, any nested integral sets.
  2.5  dim A1 = 3, chain(A3) < #A3/6, chain(A2) < #A2/4, #A2 >= 21, #A3 <= 2#A2
  2.6  dim A1 >= 4, chain(A3) < eps*#A3 with eps = 1/530, 4#A2 >= #A3
  2.7  dim A1 >= 2, dim A2 >= 3, chain(A3) < #A3/10, chain(A2) < #A2/5

Under these hypotheses rules 2.5-2.7 bound #(A1.A3 u A2.A2) below by the
least of the linear forms in #A3, #A2 that their `rules.RULES` entry lists.

Violations are first-class findings: a failing trial serializes a replayable
witness triple instead of crashing the run. All comparisons are exact
(integer counts against Fraction bounds).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, islice
from math import prod
from typing import Optional

import numpy as np

from .errors import InvariantViolation
from .lattice import (
    ConvexTriple,
    LatticeSet,
    _centred_box,
    arranged_block_counts,
    arranged_union_counts,
    dimension,
    longest_chain,
    union_midpoint_count,
)
from .reports import Check, HypothesisReport
from .rules import CHAIN_RATIO_EPSILON, RULES, _forms_at, _rule, bound_formula  # re-exports _forms_at

# Below ~8 points a box of positive volume in dim 4 cannot exist, and the
# rejection loops in the drivers are bounded; both limits are plain caps.
_MAX_DRAWS = 80
_MAX_GENERATOR_ATTEMPTS = 50
# Cap on a rule-2.5-2.7 suite's largest size times its dim. A box-draw rule at
# the cap is drawn and checked, one trial, in 0.25-0.3 s at 62 MiB peak for 2.6
# in dim 4 (262,144 points) and in 0.3-0.6 s at 81-84 MiB for 2.5 or 2.7 in dim
# 3 (349,525 points), CLI start included, on a 2-core Xeon: the full boxes of
# such a draw are counted, chained and nested in closed form.
MAX_COORDINATES = 1 << 20
# Cap on a rule-2.4 suite's work per trial, n * (dim + 1) * (n + dim) with
# n = max(size, 3) at its largest size, the most points its draw can hold:
# each of its dim+1 counts sums about n**2 point pairs, and each arranging
# step sorts n codes of dim digits. It implies n * dim <= 2**20 (n + dim
# >= 32, or else n * dim < 1024), so the draw's getrandbits(128 * size * dim)
# fits a C int. One trial at the largest admitted size took, as a CLI run on
# a 2-core Xeon: 0.2-0.8 s in dims 1-24 (at most 79 MiB, in dim 24), at most
# 3.8 s in the dims sampled from 25 to 450, whose frames pass int64, 1.1-1.6 s
# in dim 500 (109 points) and 0.3-0.4 s from dim 1000 (32) to 3342 (3 points).
MAX_ARRANGED_WORK = 1 << 25
# Rule 2.4's suite draws as many trials per `arranged_block_counts` call as
# fit this many coordinates at its largest size: 496 in dim 3 at 12-44 points
_BLOCK_COORDINATES = 1 << 16
# `_randints` reads its last this many values one 32-bit output at a time: a
# numpy round costs a few microseconds, about as much as that many scalar
# reads, and the rule-2.4 suite's draw time is flat from 8 to 32
_SCALAR_TAIL = 16


def derive_seed(master_seed: int, index: int) -> int:
    """Deterministic per-trial seed; identical regardless of scheduling."""
    return (master_seed * 0x9E3779B1 + index * 0x85EBCA77) & 0x7FFFFFFFFFFFFFFF


# ---------------------------------------------------------------------------
# hypothesis checks
# ---------------------------------------------------------------------------

def hypothesis_report(lemma_id: str, triple: ConvexTriple,
                      verify_convexity: bool = False) -> HypothesisReport:
    """Check one rule's side hypotheses (rule 2.4 has none) on a triple; `verify_lemma` counts."""
    _rule(lemma_id)
    n1, n2, n3 = triple.sizes()
    checks: list[Check] = [Check("nested", True, "enforced by ConvexTriple")]
    if lemma_id == "2.4":
        return HypothesisReport("2.4", tuple(checks))
    if verify_convexity:
        try:
            triple.validate_convexity()
            checks.append(Check("integrally_convex", True, "verified by hull scan"))
        except InvariantViolation as exc:
            checks.append(Check("integrally_convex", False, str(exc)))
    else:
        checks.append(Check("integrally_convex", True, "by construction (generator)"))

    d1 = dimension(triple.a1) if n1 else -1
    if lemma_id == "2.5":
        c3, c2 = longest_chain(triple.a3), longest_chain(triple.a2)
        checks += [
            Check("dim_a1_eq_3", d1 == 3, d1),
            Check("chain_a3_lt_sixth", 6 * c3 < n3, f"{c3} vs {n3}/6"),
            Check("chain_a2_lt_quarter", 4 * c2 < n2, f"{c2} vs {n2}/4"),
            Check("a2_at_least_21", n2 >= 21, n2),
            Check("a3_at_most_2a2", n3 <= 2 * n2, f"{n3} vs 2*{n2}"),
        ]
    elif lemma_id == "2.6":
        c3 = longest_chain(triple.a3)
        checks += [
            Check("dim_a1_ge_4", d1 >= 4, d1),
            Check("chain_a3_lt_eps", Fraction(c3) < CHAIN_RATIO_EPSILON * n3,
                  f"{c3} vs {CHAIN_RATIO_EPSILON}*{n3}"),
            Check("4a2_ge_a3", 4 * n2 >= n3, f"4*{n2} vs {n3}"),
        ]
    elif lemma_id == "2.7":
        d2 = dimension(triple.a2) if n2 else -1
        c3, c2 = longest_chain(triple.a3), longest_chain(triple.a2)
        checks += [
            Check("dim_a1_ge_2", d1 >= 2, d1),
            Check("dim_a2_ge_3", d2 >= 3, d2),
            Check("chain_a3_lt_tenth", 10 * c3 < n3, f"{c3} vs {n3}/10"),
            Check("chain_a2_lt_fifth", 5 * c2 < n2, f"{c2} vs {n2}/5"),
        ]
    return HypothesisReport(lemma_id, tuple(checks))


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def union_count(triple: ConvexTriple) -> int:
    """#(a1.a3 u a2.a2); counts the doubled mid-point union exactly."""
    return union_midpoint_count(triple.a1, triple.a3, triple.a2)


@dataclass(frozen=True)
class VerificationOutcome:
    """One rule counted on one triple; `checks` holds rule 2.4's per-axis steps."""

    lhs_count: int
    rhs_bound: Fraction
    satisfied: bool
    checks: tuple[Check, ...] = ()


def verify_lemma(lemma_id: str, triple: ConvexTriple) -> VerificationOutcome:
    """Count one rule on one triple; its hypotheses are `hypothesis_report`'s.

    For "2.4" the outcome compares the mid-point union count before and after
    arranging along every axis in order; each single-axis step is a check.
    `arranged_union_counts` gives the dim+1 counts as a block of one triple;
    the 2.4 suite counts its draws a block at a time, without triples.
    For the other rules the count is compared against the closed-form bound;
    on an inadmissible triple the comparison makes no claim.
    """
    if lemma_id == "2.4":
        counts = arranged_union_counts(triple.a1, triple.a2, triple.a3)
        return VerificationOutcome(counts[0], Fraction(counts[-1]), all(_axis_steps(counts)),
                                   _axis_checks(counts))
    lhs = union_count(triple)
    rhs = bound_formula(lemma_id, len(triple.a2), len(triple.a3))
    return VerificationOutcome(lhs, rhs, lhs >= rhs)


def _axis_steps(counts: list[int]) -> list[bool]:
    """Per axis, whether arranging along it kept the union count from rising."""
    return [after <= before for before, after in zip(counts, counts[1:])]


def _axis_checks(counts: list[int]) -> tuple[Check, ...]:
    """`_axis_steps` as checks, each with the count before and after its axis."""
    return tuple(Check(f"nonincreasing_axis_{axis}", held, f"{before} -> {after}")
                 for axis, (held, before, after) in enumerate(zip(_axis_steps(counts), counts,
                                                                  counts[1:])))


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

class _Degenerate(Exception):
    pass


def generate_nested_triple(dim: int, size_target: int, seed: int,
                           shape: str = "auto",
                           ratios: Optional[tuple[float, float]] = None,
                           inner_dim: Optional[int] = None) -> ConvexTriple:
    """Sample a nested triple of integrally convex sets, deterministically.

    The three sets are sublevel sets of one random convex gauge (an exact
    integer quadratic form or a weighted box gauge) at three thresholds, so
    nesting, integral convexity and relative convexity hold by construction.
    size_target steers #a3 (ties at the threshold may add a few points).
    Large targets (> 1500) switch to a product-box profile, which is the
    regime where the 1/530 chain-ratio hypothesis can hold at all.

    Deterministic under `seed`; degenerate draws (a1 of too-low dimension)
    are resampled internally, and exhaustion raises InvariantViolation.
    """
    if dim < 2:
        raise InvariantViolation("generator needs dim >= 2")
    if size_target < dim + 1:
        raise InvariantViolation(f"size_target must be at least dim+1 = {dim + 1}")
    rng = random.Random(seed)
    want_dim = dim if inner_dim is None else inner_dim
    for _ in range(_MAX_GENERATOR_ATTEMPTS):
        try:
            if shape == "box" or (shape == "auto" and size_target > 1500):
                triple = _box_triple(rng, dim, size_target)
            else:
                triple = _gauge_triple(rng, dim, size_target, shape, ratios)
        except _Degenerate:
            continue
        if dimension(triple.a1) >= want_dim:
            return triple
    raise InvariantViolation(
        f"could not sample a nondegenerate triple (dim={dim}, size={size_target}, seed={seed})"
    )


def _gauge_triple(rng: random.Random, dim: int, size_target: int,
                  shape: str, ratios) -> ConvexTriple:
    if shape == "auto":
        shape = rng.choice(("ellipsoid", "ellipsoid", "box"))
    center = tuple(rng.choice((-1, 0, 0, 1)) for _ in range(dim))  # doubled coords
    if shape == "ellipsoid":
        m = [[rng.choice((-1, 0, 0, 0, 1)) for _ in range(dim)] for _ in range(dim)]
        k = rng.randint(1, 3)
        quad = [
            [sum(m[r][i] * m[r][j] for r in range(dim)) + (k if i == j else 0)
             for j in range(dim)]
            for i in range(dim)
        ]
        quad_arr = np.array(quad, dtype=np.int64)

        def gauge(v):
            return np.einsum("ni,ij,nj->n", v, quad_arr, v)

        desc = f"ellipsoid quad={quad} center/2={center}"
    else:
        weights = tuple(rng.randint(2, 4) for _ in range(dim))
        weights_arr = np.array(weights, dtype=np.int64)

        def gauge(v):
            return (weights_arr * np.abs(v)).max(axis=1)

        desc = f"box weights={weights} center/2={center}"

    pts, vals = _scan_sublevel(gauge, dim, center, size_target)
    ordered = np.sort(vals)
    f2 = rng.uniform(*(ratios or (0.55, 0.92)))
    f1 = rng.uniform(0.12, 0.45)
    size3 = min(size_target, len(pts))
    size2 = max(dim + 2, int(round(f2 * size3)))
    size1 = max(dim + 2, int(round(f1 * size3)))
    a3, a2, a1 = (LatticeSet.from_array(pts[vals <= ordered[size - 1]], dim)
                  for size in (size3, min(size2, size3), min(size1, size3)))
    return ConvexTriple(a1, a2, a3, witness_regions=f"{desc} sizes={len(a1)},{len(a2)},{len(a3)}")


def _scan_sublevel(gauge, dim, center, size_target):
    """Enumerate a box guaranteed to contain the needed sublevel set.

    `gauge` maps the rows 2p - center of an int64 array to their gauge
    values. The box of half-width w around center // 2 widens until the
    size_target-th least value inside it is below every value on its
    boundary. Returns the points strictly inside the box, in lexicographic
    order, with their values. Each width's offsets are
    `lattice._centred_box((w,) * dim)`, read-only and cached while the cache
    holds at most 2**15 rows in all: the grid is a shifted copy of it.
    """
    mid = np.array(center, dtype=np.int64) // 2
    for w in range(2, 24):
        if (2 * w + 1) ** dim > 400_000:
            raise _Degenerate
        if (2 * w - 1) ** dim < size_target:
            continue  # the inner box holds (2w - 1)**dim points: too few
        offsets = _centred_box((w,) * dim)
        grid = offsets + mid
        vals = gauge(2 * grid - np.array(center, dtype=np.int64))
        boundary = (np.abs(offsets) == w).any(axis=1)
        inner = vals[~boundary]
        thr = np.partition(inner, size_target - 1)[size_target - 1]
        if vals[boundary].min() <= thr:
            continue  # sublevel not closed inside the box; widen
        return grid[~boundary], inner
    raise _Degenerate


def _box_triple(rng: random.Random, dim: int, size_target: int) -> ConvexTriple:
    """Product boxes a1 < a2 < a3 with #a3 near size_target."""
    side = max(2, round(size_target ** (1.0 / dim)))
    for _ in range(30):
        sides = [max(2, side + rng.randint(-1, 1)) for _ in range(dim)]
        if abs(prod(sides) - size_target) <= max(4, size_target // 3):
            break
    else:
        sides = [side] * dim
    if any(s < 4 for s in sides):
        raise _Degenerate
    offs = [rng.randint(-3, 3) for _ in range(dim)]
    caps = [(sides[c] - 2) // 2 for c in range(dim)]
    shrink2 = [min(rng.randint(1, 2), caps[c]) for c in range(dim)]
    shrink1 = [min(shrink2[c] + rng.randint(0, 2), caps[c]) for c in range(dim)]

    def box(shrink):
        """The box of sides sides[c] - 2*shrink[c] from offs[c] + shrink[c]."""
        shape = [side - 2 * s for side, s in zip(sides, shrink)]
        pts = np.indices(shape, dtype=np.int64).reshape(dim, -1).T
        return LatticeSet.from_array(pts + np.add(offs, shrink), dim)

    return ConvexTriple(
        box(shrink1), box(shrink2), box([0] * dim),
        witness_regions=f"boxes sides={sides} shrink2={shrink2} shrink1={shrink1}",
    )


def _randints(rng: random.Random, lo: int, hi: int, count: int, head=()) -> np.ndarray:
    """`[rng.randint(lo, hi) for _ in range(count)]` as an int64 array, drawn in bulk
    from the 32-bit outputs `head` and then those of `rng`.

    The values and the state `rng` is left in are those of the loop, for a
    width n = hi - lo + 1 below 2**32. This rests on two facts of CPython's
    Mersenne Twister: `randint` draws `getrandbits(k)` with k = n.bit_length()
    until the value is below n, and each `getrandbits(k <= 32)` is one 32-bit
    output shifted right by 32 - k; and `getrandbits(32*m)` is the next m
    outputs, the first one least significant. An output gives at most one
    value. So the head words are read first, one at a time; then each round
    reads as many outputs as values are still missing, and no round reads
    an output the loop would not have read. Once at most `_SCALAR_TAIL`
    values are missing, they are read one output at a time. Head words past
    the `count`-th value are dropped, so a head of at most `count` words is
    always read whole.
    """
    shift, limit = _randint_limit(lo, hi)
    out = np.empty(count, dtype=np.int64)
    kept = [word for word in head if word < limit][:count]
    out[:len(kept)] = kept
    filled = len(kept)
    while count - filled > _SCALAR_TAIL:
        m = count - filled
        words = np.frombuffer(rng.getrandbits(32 * m).to_bytes(4 * m, "little"), dtype="<u4")
        kept = words[words < limit]
        out[filled:filled + len(kept)] = kept
        filled += len(kept)
    while filled < count:
        word = rng.getrandbits(32)
        if word < limit:
            out[filled] = word
            filled += 1
    out >>= shift
    out += lo
    return out


def _randint_words(rng: random.Random, lo: int, hi: int) -> tuple[int, list[int]]:
    """`rng.randint(lo, hi)` and the 32-bit outputs it reads, one per
    `getrandbits(k)` of its rejection loop (see `_randints`)."""
    shift, limit = _randint_limit(lo, hi)
    words = [rng.getrandbits(32)]
    while words[-1] >= limit:
        words.append(rng.getrandbits(32))
    return lo + (words[-1] >> shift), words


def _randint_limit(lo: int, hi: int) -> tuple[int, int]:
    """`randint(lo, hi)` on 32-bit outputs, for a width n = hi - lo + 1 in
    [1, 2**32): (32 - k, n << (32 - k)) with k = n.bit_length(). An output
    below the limit gives lo plus itself shifted right by 32 - k, and a
    larger one is rejected."""
    width = hi - lo + 1
    if not 1 <= width < 1 << 32:
        raise InvariantViolation(f"randint range [{lo}, {hi}] needs a width in [1, 2**32)")
    shift = 32 - width.bit_length()
    return shift, width << shift


def _draw_trial(dim: int, lo: int, hi: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Rule 2.4's draw at a size `random.Random(seed).randint(lo, hi)`, from
    one generator: the size's outputs are the first outputs of the stream
    that `_draw_nested_levels` reads from `random.Random(seed)`, so they are
    its head words. A size that read more outputs than its draw's
    4 * size * dim coordinates may read (possible only at a few points) is
    drawn from a fresh generator."""
    rng = random.Random(seed)
    size, head = _randint_words(rng, lo, hi)
    if len(head) > 4 * size * dim:
        rng, head = random.Random(seed), ()
    return _draw_nested_levels(rng, dim, size, head)


def _draw_nested_levels(rng: random.Random, dim: int, size_target: int,
                        head=()) -> tuple[np.ndarray, np.ndarray]:
    """Rule 2.4's draw from `rng` after the outputs `head`: A3 as a
    lex-sorted (n, dim) int64 array, and an int8 level per point, 1 in A1,
    2 in A2 - A1 and 3 in the rest.

    The box coordinates come from `_randints`, which gives the values and
    the stream of a `rng.randint` call per coordinate. A3 is the first
    max(size_target, 3) distinct points in the order of a set built from
    the points in the order drawn, as `list({p for p in box})` gives them;
    a set built in the same insertion order iterates in the same order. A2
    and A1 are sampled as positions in the sorted A3 and in A2's sample,
    which reads the random numbers that sampling the point lists read.
    `_size_range` has admitted dim and size_target.
    """
    side = max(3, round((2.5 * size_target) ** (1.0 / dim)) + 1)
    columns = _randints(rng, -2, side - 2, 4 * size_target * dim, head).reshape(-1, dim).T.tolist()
    distinct = islice(set(zip(*columns)), max(size_target, 3))
    a3 = np.fromiter(chain.from_iterable(distinct), dtype=np.int64).reshape(-1, dim)
    if len(a3) < 3:
        a3 = np.array([[0] * dim, [1] * dim], dtype=np.int64)
    n3 = len(a3)
    k2 = max(2, int(round(rng.uniform(0.4, 0.9) * n3)))
    in2 = rng.sample(range(n3), k2)
    k1 = max(1, int(round(rng.uniform(0.3, 0.9) * k2)))
    level = np.full(n3, 3, dtype=np.int8)
    level[in2] = 2
    level[[in2[i] for i in rng.sample(range(k2), k1)]] = 1
    return a3[np.lexsort(a3.T[::-1])], level


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def triple_for_rule(lemma_id: str, seed: int, dim: Optional[int] = None,
                    min_size: Optional[int] = None,
                    max_size: Optional[int] = None) -> ConvexTriple:
    """One deterministic draw from the rule's tuned instance distribution."""
    dim, lo, hi = _size_range(lemma_id, dim, min_size, max_size)
    if lemma_id == "2.4":  # any nested sets: rule 2.4 holds for all nested finite integral sets
        a3, level = _draw_trial(dim, lo, hi, seed)
        return ConvexTriple(*(LatticeSet.from_array(a3[level <= top], dim) for top in (1, 2, 3)),
                            witness_regions="random nested subsets")
    size = random.Random(seed).randint(lo, hi)
    rule = RULES[lemma_id]
    return generate_nested_triple(dim, size, seed, ratios=rule.ratios,
                                  inner_dim=rule.inner_dim)


def _size_range(lemma_id: str, dim, min_size, max_size) -> tuple[int, int, int]:
    """The rule's (dim, least size, largest size), admitted before anything is
    drawn, so that the exit does not depend on the draws: a dim below the
    rule's least (1 for 2.4, `inner_dim` for 2.5-2.7) is refused, as is a
    least size that a draw would refuse (a negative one, or below dim + 1 for
    rules 2.5-2.7) and a largest size past the rule's cap."""
    rule = _rule(lemma_id)
    dim = rule.dim if dim is None else dim
    lo = rule.sizes[0] if min_size is None else min_size
    hi = rule.sizes[1] if max_size is None else max_size
    least_dim = rule.inner_dim or 1
    if dim < least_dim:
        raise InvariantViolation(f"rule {lemma_id} in dim {dim} is below its least dim {least_dim}")
    if hi < lo:
        raise InvariantViolation("max_size < min_size")
    if lo < 0:
        raise InvariantViolation("set sizes must be nonnegative")
    if lemma_id == "2.4":
        n = max(hi, 3)
        if n * (dim + 1) * (n + dim) > MAX_ARRANGED_WORK:
            raise InvariantViolation(f"rule 2.4 size {hi} in dim {dim} is past the work cap: n * (dim"
                                     f" + 1) * (n + dim) with n = max(size, 3) may be at most "
                                     f"{MAX_ARRANGED_WORK}")
    elif lo < dim + 1:
        raise InvariantViolation(f"rule {lemma_id} needs min_size at least dim+1 = {dim + 1}")
    elif hi * dim > MAX_COORDINATES:
        raise InvariantViolation(f"rule {lemma_id} size {hi} in dim {dim} is past the cap: "
                                 f"size * dim may be at most {MAX_COORDINATES}")
    return dim, lo, hi


def admissible_triple(lemma_id: str, master_seed: int, trial: int,
                      dim: Optional[int] = None,
                      min_size: Optional[int] = None,
                      max_size: Optional[int] = None,
                      max_draws: int = _MAX_DRAWS):
    """Rejection-sample until the rule's hypotheses hold.

    Returns (triple, report, draws). If no admissible triple appears within
    max_draws, returns the last draw with its failing report; callers decide
    whether inadmissibility is acceptable (it is, for vacuous size ranges).
    """
    base = derive_seed(master_seed, trial)
    triple = report = None
    for draw in range(max_draws):
        seed = derive_seed(base, draw)
        triple = triple_for_rule(lemma_id, seed, dim, min_size, max_size)
        report = hypothesis_report(lemma_id, triple)
        if report.admissible:
            return triple, report, draw + 1
    return triple, report, max_draws


@dataclass
class SuiteResult:
    COLUMNS = ("lemma", "trial", "seed", "admissible", "lhs", "rhs", "satisfied", "n3", "draws")

    lemma: str
    master_seed: int
    trials: int
    rows: list = field(default_factory=list)
    violations: list = field(default_factory=list)

    @property
    def admissible_count(self) -> int:
        return sum(1 for r in self.rows if r["admissible"])

    @property
    def violation_count(self) -> int:
        return len(self.violations)

    def to_json_body(self):
        return {
            "lemma": self.lemma,
            "master_seed": self.master_seed,
            "trials": self.trials,
            "admissible": self.admissible_count,
            "violations": self.violations,
            "rows": self.rows,
        }

    def csv_rows(self):
        yield list(self.COLUMNS)
        for r in self.rows:
            yield [r[k] for k in self.COLUMNS]


def run_lemma_suite(lemma_id: str, trials: int, master_seed: int,
                    dim: Optional[int] = None,
                    min_size: Optional[int] = None,
                    max_size: Optional[int] = None,
                    max_draws: int = _MAX_DRAWS) -> SuiteResult:
    """Run `trials` deterministic instances of one rule.

    Each trial rejection-samples an admissible instance; rule 2.4 has no side
    hypotheses, so its first draw always is. A violated admissible instance
    is recorded as a finding with a replayable witness. `_size_range` refuses
    an unusable dim or size range before anything is drawn.
    """
    if trials < 1:
        raise InvariantViolation("trials must be >= 1")
    result = SuiteResult(lemma_id, master_seed, trials)
    if lemma_id == "2.4":
        _run_arranged_suite(result, *_size_range("2.4", dim, min_size, max_size))
        return result
    for trial in range(trials):
        triple, report, draws = admissible_triple(
            lemma_id, master_seed, trial, dim, min_size, max_size,
            max_draws=max_draws)
        seed = derive_seed(derive_seed(master_seed, trial), draws - 1)
        outcome = verify_lemma(lemma_id, triple)
        _record(result, trial, seed, draws, report.admissible, len(triple.a3), outcome.lhs_count,
                outcome.rhs_bound, outcome.satisfied, lambda: (triple, report.checks))
    return result


def _run_arranged_suite(result: SuiteResult, dim: int, lo: int, hi: int) -> None:
    """Rule 2.4's trials, drawn and counted by `arranged_block_counts` a block
    at a time. Every draw is admissible, so only a violated trial is drawn
    again as a triple, has its hypotheses checked and its axis steps built
    as checks."""
    block = max(1, _BLOCK_COORDINATES // max(1, hi * dim))
    for first in range(0, result.trials, block):
        seeds = [derive_seed(derive_seed(result.master_seed, trial), 0)
                 for trial in range(first, min(first + block, result.trials))]
        drawn = [_draw_trial(dim, lo, hi, seed) for seed in seeds]
        for trial, (seed, (a3, _), counts) in enumerate(
                zip(seeds, drawn, arranged_block_counts(drawn)), first):
            _record(result, trial, seed, 1, True, len(a3), counts[0], counts[-1],
                    all(_axis_steps(counts)),
                    lambda: (t := triple_for_rule("2.4", seed, dim, lo, hi),
                             hypothesis_report("2.4", t).checks + _axis_checks(counts)))


def _record(result: SuiteResult, trial: int, seed: int, draws: int, admissible: bool, n3: int,
            lhs: int, rhs: int | Fraction, satisfied: bool, witness) -> None:
    """Add a trial's row; a violated admissible trial also records the triple
    and hypothesis checks that `witness()` gives."""
    row = dict(zip(SuiteResult.COLUMNS, (result.lemma, trial, seed, admissible, lhs, str(rhs),
                                         satisfied, n3, draws)))
    result.rows.append(row)
    if admissible and not satisfied:
        triple, checks = witness()
        result.violations.append({
            **{k: row[k] for k in ("lemma", "trial", "seed", "lhs", "rhs")},
            "triple": triple.to_json_dict(),
            "hypotheses": HypothesisReport(result.lemma, checks).to_json_dict(),
        })
