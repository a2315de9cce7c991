"""Exact arithmetic for the bound formulas, thresholds, and margins.

Two invariant records drive everything: (K^3, chi) for a minimal 3-fold and
(K^2, chi, geometric flags) for a minimal surface of general type. Geometric
hypotheses (pencils, canonical-image dimension, evenness) are *input flags*,
never computed; every conditional result carries a hypothesis trail naming
exactly what was checked and what was assumed.

All evaluation is in exact rationals. The universal-n search reduces the
"for all admissible (K^3, chi)" quantifier to finitely many exact sign
checks: margins are linear in chi with negative chi-coefficient, so the
integer upper endpoint chi = floor(K^3/6) binds, and splitting even K^3 by
residue mod 6 turns the all-K^3 check into two closed forms. Each closed
form is a cubic in the level n, so the least level is found by exact
integer root isolation rather than by walking the levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import ceil, isqrt, lcm
from typing import Optional

from .errors import InvariantViolation
from .reports import Check, HypothesisReport, jsonable
from .rules import CHAIN_RATIO_EPSILON, RULES, bound_margin


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThreefoldInvariants:
    """K^3 and chi(O) of a minimal 3-fold of general type with nef K.

    K^3 must be even and positive, and chi within `admissible_chi_range`.
    """

    k3: int
    chi: int

    def __post_init__(self):
        if self.k3 <= 0:
            raise InvariantViolation("K^3 must be positive")
        if self.k3 % 2 != 0:
            raise InvariantViolation("K^3 must be even")
        lo, hi = admissible_chi_range(self.k3)
        if not lo <= self.chi <= hi:
            raise InvariantViolation("chi must lie in [-(5/2)K^3 - 1, K^3/6]")


def admissible_chi_range(k3: int) -> tuple[int, int]:
    """Integer chi endpoints for a given even K^3 > 0: chi <= K^3/6, -chi <= (5/2)K^3 + 1."""
    return -(5 * k3) // 2 - 1, k3 // 6


def plurigenus(inv: ThreefoldInvariants, n: int) -> int:
    """p_n = h^0(nK) = (2n-1)n(n-1)/12 K^3 + (1-2n) chi, exact, for n >= 2, as 12*p_n in integers.

    The value is asserted integral, and at least 5 for n >= 3; a failure of
    either marks the inputs as inadmissible rather than being silently kept.
    """
    if n < 2:
        raise InvariantViolation("the plurigenus formula needs n >= 2")
    twelve_p = (2 * n - 1) * n * (n - 1) * inv.k3 + 12 * (1 - 2 * n) * inv.chi
    if twelve_p % 12:
        raise InvariantViolation(f"plurigenus p_{n} = {Fraction(twelve_p, 12)} is not an integer; "
                                 "inputs inadmissible")
    value = twelve_p // 12
    if n >= 3 and value < 5:
        raise InvariantViolation(f"p_{n} = {value} < 5; inputs inadmissible")
    return value


@dataclass(frozen=True)
class SurfaceInvariants:
    """K^2, chi, and the geometric flags the surface bound table consumes.

    chi may be omitted (None) when unknown; rules that need it then simply
    do not apply, except that chi >= max(1, ceil(K^2/9)) is always available
    (general type floor plus the K^2 <= 9 chi inequality).

    known_pencils / no_pencils record genera of pencils certified present /
    certified absent; the two must not overlap. `two_pencils_genus` asserts
    two distinct pencils of that genus. `even_surface_conditions` bundles:
    the intersection form is even (K = 2L), the half-canonical map is
    generically finite, and the 2L-map is birational.
    """

    k2: int
    chi: Optional[int] = None
    known_pencils: frozenset = frozenset()
    no_pencils: frozenset = frozenset()
    canonical_image_dim: Optional[int] = None
    canonical_map_birational: bool = False
    even_surface_conditions: bool = False
    ci_degrees: Optional[tuple[int, ...]] = None
    p3_degree: Optional[int] = None
    two_pencils_genus: Optional[int] = None

    def __post_init__(self):
        for name in ("known_pencils", "no_pencils"):
            if not isinstance(getattr(self, name), frozenset):
                object.__setattr__(self, name, frozenset(getattr(self, name)))
        if self.k2 <= 0:
            raise InvariantViolation("K^2 must be positive")
        if self.chi is not None:
            if self.chi < 1:
                raise InvariantViolation("chi must be at least 1 for a minimal surface of general type")
            if self.k2 > 9 * self.chi:
                raise InvariantViolation(f"K^2 = {self.k2} exceeds 9*chi = {9 * self.chi}")
        overlap = self.known_pencils & self.no_pencils
        if overlap:
            raise InvariantViolation(f"pencil genera both present and absent: {sorted(overlap)}")
        if any(g < 2 for g in self.known_pencils | self.no_pencils):
            raise InvariantViolation("pencil genera must be >= 2")
        if self.canonical_image_dim not in (None, 1, 2):
            raise InvariantViolation("canonical_image_dim must be 1 or 2")
        if self.p3_degree is not None and self.p3_degree < 1:
            raise InvariantViolation("degree must be positive")
        if self.ci_degrees is not None:
            object.__setattr__(self, "ci_degrees", tuple(self.ci_degrees))
            if any(d < 2 for d in self.ci_degrees):
                raise InvariantViolation("complete-intersection degrees must be >= 2")
        if self.two_pencils_genus is not None and self.two_pencils_genus < 2:
            raise InvariantViolation("two_pencils_genus must be >= 2")

    @property
    def chi_floor(self) -> int:
        """Best available lower bound for chi: the given value, else
        max(1, ceil(K^2/9)) from the general-type floor and K^2 <= 9 chi."""
        derived = max(1, -(-self.k2 // 9))
        return derived if self.chi is None else max(self.chi, derived)

    def no_pencils_through(self, lo: int, hi: int) -> bool:
        return self.no_pencils.issuperset(range(lo, hi + 1))


# ---------------------------------------------------------------------------
# the surface bound table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundResult:
    """Minimum applicable bound with the full hypothesis trail.

    value is None when no rule applies; applicable maps rule tags to their
    values, and source lists every tag attaining the minimum. These are
    decided on the rules' pass booleans alone. `trail` keeps every rule's
    checks whether it fired or not; it is built from `_surface_rules(inv)`
    the first time it is read, and then kept.
    """

    value: Optional[Fraction]
    source: tuple[str, ...]
    applicable: dict
    inv: SurfaceInvariants

    @cached_property
    def trail(self) -> dict:
        return {tag: HypothesisReport(tag, tuple(Check(*c) for c in zip(names, passes, details(),
                                                                         strict=True)))
                for tag, _, names, passes, details in _surface_rules(self.inv)}

    def to_json_dict(self):
        return {
            "value": jsonable(self.value),
            "source": list(self.source),
            "applicable": {k: jsonable(v) for k, v in self.applicable.items()},
            "trail": {k: v.to_json_dict() for k, v in self.trail.items()},
        }


# a genus-g pencil is controlled once K^2 >= 12(g-1)/(g+5) * chi, tested in
# integers by `_pencil_controlled`; the slopes' text goes into the trail
_PENCIL_SLOPES = {g: str(Fraction(12 * (g - 1), g + 5)) for g in (3, 4, 5)}
_SMALL_PENCIL_CHECKS = ("k2_at_least_181",
                        *(f"pencil_genus_{g}_controlled" for g in _PENCIL_SLOPES))
_PENCIL_STATUS_TEXT = {"absent": "no such pencil",
                       "unknown": "pencil status unknown; hypothesis not certified"}
# (genus, tag, check names, K^2 floor, value shift) of the genus-3/4/5 pencil rules
_GENUS_PENCIL_RULES = tuple(
    (g, f"genus{g}_pencil", (f"has_genus{g}_pencil", f"k2_exceeds_{k2_floor}",
                             "k2_at_least_slope_times_chi"), k2_floor, shift)
    for g, k2_floor, shift in ((3, 16, 64), (4, 36, 144), (5, 64, 256)))
_CANONICAL_CHECKS = ("canonical_image_is_surface", "chi_at_least_14", "k2_at_least_82",
                     "no_pencils_genus_2_to_5")


def _pencil_controlled(g: int, k2: int, chi: int) -> bool:
    return k2 * (g + 5) >= 12 * (g - 1) * chi


def _surface_rules(inv: SurfaceInvariants):
    """Every rule in the table as (tag, (numerator, denominator) of its value,
    check names, check pass booleans, details), where details() formats the
    checks' details. A rule applies when all its booleans hold; no check is
    built and no text formatted until details() is called."""
    k2, chi, floor = inv.k2, inv.chi, inv.chi_floor
    known, absent = inv.known_pencils, inv.no_pencils

    yield ("global_chi8", (36 * k2 + 24, 1), ("chi_at_least_8",), (floor >= 8,),
           lambda: (f"chi={chi} floor={floor} (floor uses chi>=1 and K^2<=9chi)",))

    # a small pencil genus is certified absent, present with chi known (so its
    # slope can be tested), or unknown
    status = ["absent" if g in absent else "present" if g in known and chi is not None
              else "unknown" for g in _PENCIL_SLOPES]
    yield ("large_k2_small_pencils_controlled", (24 * k2 + 256, 1), _SMALL_PENCIL_CHECKS,
           (k2 >= 181, *(s == "absent" or s == "present" and _pencil_controlled(g, k2, chi)
                         for g, s in zip(_PENCIL_SLOPES, status))),
           lambda: (k2, *(_PENCIL_STATUS_TEXT[s] if s != "present" else
                          f"K^2 >= {slope}*chi needed: {k2} vs {Fraction(12 * (g - 1) * chi, g + 5)}"
                          for (g, slope), s in zip(_PENCIL_SLOPES.items(), status))))

    canonical = (inv.canonical_image_dim == 2, chi is not None and chi >= 14, k2 >= 82,
                 inv.no_pencils_through(2, 5))

    def canonical_details():
        return inv.canonical_image_dim, chi, k2, sorted(absent)

    yield ("canonical_image_surface", (24 * k2 + 16, 1), _CANONICAL_CHECKS, canonical,
           canonical_details)
    yield ("canonical_image_birational", (18 * k2 + 18, 1),
           (*_CANONICAL_CHECKS, "canonical_map_birational"),
           (*canonical, inv.canonical_map_birational), lambda: (*canonical_details(), None))

    g = inv.two_pencils_genus
    yield ("double_pencil", (16 * k2, 1), ("two_pencils_same_genus", "k2_exceeds_4(g-1)^2"),
           (g is not None, g is not None and k2 > 4 * (g - 1) ** 2),
           lambda: (g, None if g is None else f"{k2} vs {4 * (g - 1) ** 2}"))

    for genus, tag, names, k2_floor, shift in _GENUS_PENCIL_RULES:
        # the default binds this rule's genus: details() runs after the loop has moved on
        yield (tag, (24 * k2 + shift, 1), names,
               (genus in known, k2 > k2_floor, chi is not None and _pencil_controlled(genus, k2, chi)),
               lambda genus=genus: (sorted(known), k2, f"{k2} vs {_PENCIL_SLOPES[genus]}*{chi}"))

    yield ("canonical_pencil", (25 * k2 + 938, 2), ("canonical_image_is_curve", "chi_at_least_21"),
           (inv.canonical_image_dim == 1, chi is not None and chi >= 21),
           lambda: (inv.canonical_image_dim, chi))
    yield ("genus2_pencil", (25 * k2 + 200, 2), ("has_genus2_pencil", "k2_at_least_9"),
           (2 in known, k2 >= 9), lambda: (sorted(known), k2))

    def k2_only():
        return (k2,)

    yield "mid_k2", (114 * k2 + 24, 1), ("k2_in_4_63",), (4 <= k2 <= 63,), k2_only
    yield "low_k2", (200 * k2 + 22, 1), ("k2_in_2_3",), (2 <= k2 <= 3,), k2_only
    yield "unit_k2", (270, 1), ("k2_is_1",), (k2 == 1,), k2_only

    yield ("even_surface", (12 * k2 + 24, 1),
           ("even_surface_conditions", "no_pencils_genus_3_to_8", "k2_exceeds_196"),
           (inv.even_surface_conditions, inv.no_pencils_through(3, 8), k2 > 196),
           lambda: ("K=2L, half-canonical map generically finite, 2L-map birational",
                    sorted(absent), k2))

    if inv.ci_degrees is not None:
        total = sum(inv.ci_degrees)
        n_ambient = len(inv.ci_degrees) + 2
        yield ("odd_complete_intersection", (12 * k2 + 24, 1),
               ("degree_sum_minus_ambient_odd", "k2_exceeds_196"),
               ((total - n_ambient) % 2 == 1, k2 > 196),
               lambda: (f"sum={total} ambient={n_ambient}", k2))

    if inv.p3_degree is not None:
        d = inv.p3_degree
        yield ("hypersurface_in_p3", (3 * d * d * (d - 2) + 9, 1), ("degree_at_least_5",),
               (d >= 5,), lambda: (d,))


def surface_bound(inv: SurfaceInvariants) -> BoundResult:
    """Evaluate every rule whose hypotheses hold; return the minimum.

    Overlapping rules are all reported; the sharpest applicable value wins
    and `source` lists every rule attaining it. A value becomes a Fraction
    only once its rule applies.
    """
    applicable = {tag: Fraction(*value) for tag, value, _, passes, _ in _surface_rules(inv)
                  if all(passes)}
    best = min(applicable.values(), default=None)
    source = tuple(sorted(tag for tag, v in applicable.items() if v == best))
    return BoundResult(best, source, applicable, inv)


# ---------------------------------------------------------------------------
# decomposability margins
# ---------------------------------------------------------------------------

MARGIN_VARIANTS = ("prop3.3", "prop6.3", "lemma7.2", "lemma7.4", "lemma7.6-12", "lemma7.6-16")


def _chain_cap(n: int) -> Fraction:
    """12/((6n-1)(3n-2)), the level-n chain cap; the argument needs it <= eps."""
    return Fraction(12, (6 * n - 1) * (3 * n - 2))


@lru_cache(maxsize=64)
def _chain_check(n: int, eps_num: int, eps_den: int) -> Check:
    """prop3.3's check that the level-n chain cap is <= eps = eps_num/eps_den,
    built once per (n, eps); keyed on integers, as a Fraction's hash is slow."""
    cap, epsilon = _chain_cap(n), Fraction(eps_num, eps_den)
    return Check("chain_ratio_implies_eps", cap <= epsilon,
                 f"12/((6n-1)(3n-2)) = {cap} vs eps = {epsilon}")


# rule 2.5 margins: the levels i of #A2, #A3 and the target H^0(iK), and the
# chain control each assumes
_CHAINS_CAPPED = "assumed: chains capped (a genus-1 pencil is impossible on general type)"
_RULE_2_5_LEVELS = {
    "lemma7.4": ((3, 4, 6), "assumed: no genus-2 pencil (chain control), K^2 >= 10"),
    "lemma7.6-12": ((6, 8, 12), _CHAINS_CAPPED),
    "lemma7.6-16": ((8, 11, 16), _CHAINS_CAPPED),
}


def _dim_h(i: int, k2: int, chi: int) -> int:
    """dim H^0(iK) = i(i-1)/2 K^2 + chi for a minimal surface, i >= 2."""
    return i * (i - 1) // 2 * k2 + chi


def decomposability_margin(variant: str, inv, n: Optional[int] = None,
                           epsilon: Fraction = CHAIN_RATIO_EPSILON):
    """LHS - RHS of a unique-decomposability counting argument.

    A positive margin means the mid-point count of the nested basic sets
    strictly exceeds the dimension of the target pluricanonical space, so
    two of its semi-invariants must share a character. The trail records the
    sizes, the checkable size hypotheses, and the geometric chain-control
    assumptions (which are inputs, not theorems, at this layer).
    """
    if variant == "prop3.3":
        if not isinstance(inv, ThreefoldInvariants):
            raise InvariantViolation("prop3.3 needs ThreefoldInvariants")
        if n is None or n < 2:
            raise InvariantViolation("prop3.3 needs the level n >= 2")
        n2, n3 = plurigenus(inv, 2 * n), plurigenus(inv, 3 * n)
        rhs = plurigenus(inv, 4 * n)
        margin = bound_margin("2.6", n2, n3, rhs, epsilon)
        return margin, HypothesisReport(variant, (
            _chain_check(n, epsilon.numerator, epsilon.denominator),
            Check("4a2_ge_a3", 4 * n2 >= n3, f"4*{n2} vs {n3}"),
            Check("dim_at_least_4_assumed", True,
                  "assumed: basic sets are >= 4-dimensional in the birational range"),
        ))

    if not isinstance(inv, SurfaceInvariants):
        raise InvariantViolation(f"{variant} needs SurfaceInvariants")
    if inv.chi is None:
        raise InvariantViolation(f"{variant} needs a known chi")
    k2, chi = inv.k2, inv.chi
    bmy = Check("bmy", k2 <= 9 * chi, f"{k2} vs {9 * chi}")

    if variant == "prop6.3":
        n2, n3 = _dim_h(2, k2, chi), _dim_h(3, k2, chi)
        rhs = _dim_h(4, k2, chi)
        margin = bound_margin("2.7", n2, n3, rhs)
        return margin, HypothesisReport(variant, (
            bmy,
            Check("dims_assumed", True,
                  "assumed: canonical image a surface (dim >= 2) and second basic set of dim >= 3"),
            Check("chains_assumed", True,
                  "assumed: chain ratios controlled (no pencil of genus <= 5, K^2 >= 82 regime)"),
        ))

    if variant == "lemma7.2":
        lhs = 5 * Fraction(_dim_h(3, k2, chi)) - 10
        rhs = _dim_h(6, k2, chi)
        margin = lhs - rhs
        return margin, HypothesisReport(variant, (
            Check("reductio_dim_4_bound", True,
                  "(d+1)(#A - d/2) at d=4 applied to the triple-canonical basic set"),
            bmy,
        ))

    if variant not in _RULE_2_5_LEVELS:
        raise InvariantViolation(f"unknown margin variant {variant!r}")
    levels, assumed = _RULE_2_5_LEVELS[variant]
    n2, n3, rhs = (_dim_h(i, k2, chi) for i in levels)
    margin = bound_margin("2.5", n2, n3, rhs)
    return margin, HypothesisReport(variant, (
        Check("a2_at_least_21", n2 >= 21, n2),
        Check("a3_at_most_2a2", n3 <= 2 * n2, f"{n3} vs {2 * n2}"),
        Check("chains_assumed", True, assumed),
        bmy,
    ))


# ---------------------------------------------------------------------------
# universal-n search (exact, certified)
# ---------------------------------------------------------------------------

def _plurigenus_polynomials(weights: dict) -> tuple[tuple, tuple]:
    """Coefficients (highest degree first) of A(n), B(n) in
    sum_k w_k p_{kn} = A(n)*K^3 + B(n)*chi, for weights {k: w_k}.

    `plurigenus` at m = kn expands p_m to
    (2k^3 n^3 - 3k^2 n^2 + k n)/12 * K^3 + (1 - 2kn) chi.
    """
    a = [Fraction(0)] * 4
    b = [Fraction(0)] * 2
    for k, w in weights.items():
        for i, c in enumerate((2 * k ** 3, -3 * k ** 2, k, 0)):
            a[i] += Fraction(w * c, 12)
        b[0] += w * -2 * k
        b[1] += w
    return tuple(a), tuple(b)


def _margin_polynomials(epsilon: Fraction):
    """A(n), B(n) and the constant c0 in margin(n, k3, chi) = A(n)*K^3 + B(n)*chi + c0:
    rule 2.6's bound c3 p_{3n} + c2 p_{2n} + c0 less p_{4n}."""
    [(c3, c2, c0)] = RULES["2.6"].forms_at(epsilon)
    a, b = _plurigenus_polynomials({3: c3, 2: c2, 4: -1})
    return a, b, c0


def _size_polynomials():
    """4 p_{2n} - p_{3n} = a_sz(n)*K^3 + b_sz(n)*chi."""
    return _plurigenus_polynomials({2: 4, 3: -1})


def _poly(coeffs, n: int):
    """Horner evaluation, highest degree first; exact for int or Fraction coefficients."""
    acc = 0
    for c in coeffs:
        acc = acc * n + c
    return acc


def _cleared(coeffs, strict: bool = True) -> tuple[int, ...]:
    """Integer coefficients q, highest degree first, such that q(n) > 0 at an
    integer n exactly when the rational polynomial `coeffs` is > 0 there
    (>= 0 when not `strict`).

    Scaling by the lcm of the denominators keeps every sign, and an integer
    value v is >= 0 exactly when v + 1 > 0. A leading coefficient that is not
    positive would leave the condition false at arbitrarily large levels, so
    no search could end; it is rejected instead.
    """
    scale = lcm(*(Fraction(c).denominator for c in coeffs))
    q = [int(c * scale) for c in coeffs]
    if not strict:
        q[-1] += 1
    while q and q[0] == 0:
        del q[0]
    if not q or q[0] <= 0 or len(q) > 4:
        raise InvariantViolation(f"level condition {tuple(coeffs)} is not a polynomial of degree "
                                 "at most 3 with a positive leading coefficient")
    return tuple(q)


def _turning_floors(q: tuple[int, ...]) -> list[int]:
    """floor(r) for each real root r of q' at which q' changes sign, ascending.

    q is monotone on the integers of each run (-inf, t1], (t1, t2], ...,
    (tk, inf) and increasing on the last one. A cubic's critical points are
    (-b -+ sqrt(D))/(3a) with D = b^2 - 3ac; sqrt(D) lies in [s, s+1) for
    s = isqrt(D), and no integer lies strictly between two consecutive
    integers, so the floors come out exactly.
    """
    if len(q) == 3:
        a, b, _ = q
        return [-b // (2 * a)]
    if len(q) == 4:
        a, b, c, _ = q
        disc = b * b - 3 * a * c
        if disc <= 0:
            return []
        s = isqrt(disc)
        inexact = s * s != disc
        return [(-b - s - inexact) // (3 * a), (-b + s) // (3 * a)]
    return []


def _next_holding_level(q: tuple[int, ...], n: int) -> int:
    """The least level m >= n with q(m) > 0.

    A decreasing run can only start with a holding level; an increasing one
    is binary-searched when its last level holds, and the unbounded last run
    is galloped first. About 2 log2(m - n) evaluations.
    """
    cuts = _turning_floors(q)
    for j, (after, last) in enumerate(zip([None] + cuts, cuts + [None])):
        lo = n if after is None else max(n, after + 1)
        if last is not None and lo > last:
            continue
        if (len(cuts) - j) % 2:  # decreasing run
            if _poly(q, lo) > 0:
                return lo
            continue
        if last is None:
            hi, step = lo, 1
            while _poly(q, hi) <= 0:
                lo, hi, step = hi + 1, hi + step, 2 * step
        elif _poly(q, last) > 0:
            hi = last
        else:
            continue
        while lo < hi:
            mid = (lo + hi) // 2
            if _poly(q, mid) > 0:
                hi = mid
            else:
                lo = mid + 1
        return lo
    raise AssertionError("the last run increases without bound")


def _chain_floor(eps: Fraction) -> int:
    """The least level n >= 2 whose chain cap is <= eps.

    (6n-1)(3n-2) = 18n^2 - 15n + 2 >= 12/eps from the root
    (15 + sqrt(81 + 864/eps))/36 up; the isqrt of the floor of the radicand
    puts the estimate at most one level low, and _chain_cap corrects it.
    """
    n = max(2, (15 + isqrt(81 + 864 * eps.denominator // eps.numerator)) // 36)
    while _chain_cap(n) > eps:
        n += 1
    return n


def _least_common_level(conditions, n: int) -> int:
    """The least level m >= n at which every integer polynomial in
    `conditions` is positive.

    No level below a failing condition's next holding level can pass, so
    jumping to the largest of them never skips a passing level; each
    condition has at most two failing stretches above n, so this takes a
    handful of rounds.
    """
    while True:
        failing = [q for q in conditions if _poly(q, n) <= 0]
        if not failing:
            return n
        n = max(_next_holding_level(q, n) for q in failing)


def universal_n(epsilon: Fraction = CHAIN_RATIO_EPSILON):
    """The least level n at which the 3-fold counting argument closes for
    *every* admissible (K^3, chi), with an exact certificate.

    Conditions at level n:
      (chain) 12/((6n-1)(3n-2)) <= eps, so the chain cap implies the
              eps-ratio hypothesis;
      (size)  4 p_{2n} >= p_{3n} for all admissible invariants;
      (margin) the counting bound exceeds dim H_{4n} for all admissible
              invariants.

    Margins are linear in chi with negative chi-coefficient, so only the
    integer endpoint chi = floor(K^3/6) can bind; writing even K^3 as 6q+s
    (s in {0,2,4}) collapses the all-K^3 check to the exact closed forms
    min(2A+c0, 6A+B+c0) > 0, with c0 the constant term of rule 2.6 (and
    min(2a_sz, 6a_sz+b_sz) >= 0 for the size condition), all recorded in the
    certificate together with a minimality witness for n-1.

    The levels are not walked. The chain floor comes from an isqrt
    estimate. The seven conditions (B < 0, B_sz < 0, three margins, two
    sizes) are integer polynomials in n of degree <= 3 once their
    denominators are cleared; each is searched over its monotone runs, split
    at isqrt-exact floors of its turning points, and the least level from
    the floor up where all seven hold is reached in a few rounds of jumps.
    This is exact integer sign-change isolation with no float. It takes
    about a millisecond for any eps in (0, 1/529) with a denominator of a
    few dozen digits, and under a second up to the 500-digit limit. Only the
    certificate evaluates the rational conditions, at n* and n*-1.
    """
    eps = Fraction(epsilon)
    if not 0 < eps < Fraction(1, 529):
        raise InvariantViolation("epsilon must lie in (0, 1/529) for the cubic term to stay positive")
    if eps.denominator >= 10 ** 499:
        # n* and the certificate's values grow to about four times as many
        # digits, and Python will not print an int past 4300 digits
        raise InvariantViolation("epsilon's denominator must have fewer than 500 digits")
    a_coeffs, b_coeffs, c0 = _margin_polynomials(eps)
    sz_a, sz_b = _size_polynomials()
    lead = a_coeffs[0]
    assert lead == (1 - 529 * eps) / 18

    n_chain = _chain_floor(eps)

    # every condition is a cubic in n (B, B_sz and c0 padded to degree 3)
    a, b, c = a_coeffs, (0, 0, *b_coeffs), (0, 0, 0, c0)
    asz, bsz = sz_a, (0, 0, *sz_b)

    def cubic(*terms):
        return tuple(sum(w * p[i] for w, p in terms) for i in range(4))

    # the endpoint reduction relies on B < 0 and B_sz < 0
    negated_b = (cubic((-1, b)), cubic((-1, bsz)))
    # each closed form's (K^3, chi), in the order the minimality witness tries them
    points = {"margin_k3_6_chi_1": (6, 1), "margin_k3_2_chi_0": (2, 0),
              "size_k3_6_chi_1": (6, 1), "size_k3_2_chi_0": (2, 0),
              "margin_k3_2_chi_min": (2, -6)}
    closed_forms = {
        name: cubic((k3, a), (chi, b), (1, c)) if name.startswith("margin")
        else cubic((k3, asz), (chi, bsz))
        for name, (k3, chi) in points.items()
    }

    def holds(name, value):
        # margins must be positive, sizes nonnegative
        return value >= 0 if name.startswith("size") else value > 0

    def conditions(n):
        if any(_poly(p, n) <= 0 for p in negated_b):
            return False, {}
        vals = {"A": _poly(a, n), "B": _poly(b, n)}
        vals.update((name, _poly(p, n)) for name, p in closed_forms.items())
        return all(holds(name, vals[name]) for name in closed_forms), vals

    # a condition is strict when a zero value fails it
    n = _least_common_level(
        [_cleared(p) for p in negated_b]
        + [_cleared(p, strict=not holds(name, 0)) for name, p in closed_forms.items()],
        n_chain)
    ok, vals = conditions(n)
    if not ok:
        raise AssertionError(f"the integer search stopped at level {n}, where a condition fails")

    witness = {"n": n - 1}
    if n - 1 < n_chain:
        witness["failed"] = "chain_ratio"
        witness["detail"] = f"(6n-1)(3n-2) = {12 / _chain_cap(n - 1)} < {12 / eps}"
    else:
        _, prev = conditions(n - 1)
        for name, (k3, chi) in points.items():
            if prev and not holds(name, prev[name]):
                witness.update({"failed": name, "value": prev[name], "k3": k3, "chi": chi})
                break
        else:
            witness["failed"] = "endpoint-sign precondition"

    certificate = {
        "epsilon": eps,
        "leading_coefficient": lead,
        "chain_floor": {
            "n": n_chain,
            "value_at_floor": 12 / _chain_cap(n_chain),
            "value_below": 12 / _chain_cap(n_chain - 1),
            "required": 12 / eps,
        },
        "margin_coefficients_A": a_coeffs,
        "margin_coefficients_B": b_coeffs,
        "size_coefficients": (sz_a, sz_b),
        "endpoint_reduction": (
            "chi ranges over [-(5/2)K^3-1, floor(K^3/6)]; the chi-coefficient is negative, "
            "so chi = floor(K^3/6) binds, and K^3 = 6q+s (s in 0,2,4) reduces the all-K^3 "
            f"check to min(2A{c0}, 6A+B{c0}) with the lower chi endpoint checked at K^3=2"
        ),
        "conditions_at_n_star": vals,
        "minimality_witness": witness,
    }
    return n, certificate


def confirm_universal_n(n_star: int, epsilon: Fraction = CHAIN_RATIO_EPSILON,
                        k3_limit: int = 200) -> bool:
    """Independent sampled confirmation: for k3 = 2, 4, ..., k3_limit and
    both integer chi endpoints, the prop3.3 margin at n_star is positive and
    its hypothesis checks hold, recomputed through the plurigenus path."""
    for k3 in range(2, k3_limit + 1, 2):
        lo, hi = admissible_chi_range(k3)
        for chi in (lo, hi):
            inv = ThreefoldInvariants(k3, chi)
            margin, report = decomposability_margin("prop3.3", inv, n=n_star, epsilon=epsilon)
            if margin <= 0 or not report.admissible:
                return False
    return True


# ---------------------------------------------------------------------------
# the assembled 3-fold constant
# ---------------------------------------------------------------------------

def threefold_constant(n_star: Optional[int] = None,
                       epsilon: Fraction = CHAIN_RATIO_EPSILON):
    """An explicit constant c with #G <= c * K^3, assembled from the chain of
    inequalities behind the universal-n argument. This is an upper bound
    produced by one concrete assembly, far from optimal by construction.

    With b = 4 * universal_n():
      branch "small geometric genus":  #G <= 270 * 9 * 34 * b * K^3;
      branch "large geometric genus":  #G <= 335 * p_{b+4}, and p_{b+4} is
      bounded linearly in K^3 by eliminating chi against -chi <= (5/2)K^3+1;
      the additive constant is absorbed using K^3 >= 2.
    The trail records every factor; the product family with #G = 25K^3+1200
    gives the floor c >= 25, which is checked.
    """
    trail: dict = {}
    if n_star is None:
        n_star, cert = universal_n(epsilon)
        trail["universal_n"] = {"n_star": n_star, "chain_floor": cert["chain_floor"]["n"]}
    b = 4 * n_star
    trail["pencil_level"] = {"b": b, "note": "G-fixed pencil inside |bK|"}

    small = Fraction(270 * 9 * 34) * b
    trail["branch_small_pg"] = {
        "factors": {"surface_bound_coefficient": 270, "bmy": 9, "pg_ceiling": 34, "b": b},
        "coefficient": small,
        "note": "#G <= 270*9*34 * d and d <= b*K^3",
    }

    m = b + 4
    a_m, b_m = (_poly(p, m) for p in _plurigenus_polynomials({1: 1}))  # p_m = a_m*K^3 + b_m*chi
    big_coeff = 335 * (a_m - Fraction(5, 2) * b_m)
    big_const = Fraction(-335 * b_m)
    absorbed = big_coeff + big_const / 2
    trail["branch_large_pg"] = {
        "factors": {"per_pg": 335, "plurigenus_level": m,
                    "k3_coefficient_of_p": a_m, "chi_coefficient_of_p": b_m},
        "chi_elimination": "-chi <= (5/2)K^3 + 1",
        "coefficient": big_coeff,
        "constant": big_const,
        "constant_absorbed_with_k3_ge_2": absorbed,
        "note": "#G <= 335 * p_{b+4} via d*p_g(F) <= p_{b+4}",
    }

    c = max(small, absorbed)
    c_int = int(ceil(c))
    trail["result"] = {"c": c_int, "max_of_branches": c}
    floor_ok = c_int >= 25
    trail["product_family_floor"] = {
        "floor": 25,
        "family_order": "25*K^3 + 1200",
        "satisfied": floor_ok,
    }
    if not floor_ok:
        raise AssertionError("assembled constant fell below the product-family floor")
    return c_int, trail
