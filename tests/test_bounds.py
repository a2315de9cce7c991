import hashlib
import json
from collections import deque
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autbounds import bounds
from autbounds.bounds import (
    BoundResult,
    SurfaceInvariants,
    ThreefoldInvariants,
    admissible_chi_range,
    confirm_universal_n,
    decomposability_margin,
    plurigenus,
    surface_bound,
    threefold_constant,
    universal_n,
)
from autbounds.cli import surface_invariants_from_kv
from autbounds.errors import InvariantViolation
from autbounds.lemmas import CHAIN_RATIO_EPSILON
from autbounds.reports import Check, HypothesisReport, jsonable

from tests_oracles import naive_universal_n


@lru_cache(maxsize=None)
def _universal():
    return universal_n()


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def test_threefold_invariants_validation():
    ThreefoldInvariants(2, 0)
    ThreefoldInvariants(2, -6)
    with pytest.raises(InvariantViolation):
        ThreefoldInvariants(3, 0)  # odd
    with pytest.raises(InvariantViolation):
        ThreefoldInvariants(-2, -1)
    with pytest.raises(InvariantViolation):
        ThreefoldInvariants(2, 1)  # chi > k3/6
    with pytest.raises(InvariantViolation):
        ThreefoldInvariants(2, -7)  # -chi > (5/2)k3+1


def test_admissible_chi_range():
    assert admissible_chi_range(2) == (-6, 0)
    assert admissible_chi_range(12) == (-31, 2)


def test_surface_invariants_validation():
    SurfaceInvariants(10, 2)
    with pytest.raises(InvariantViolation):
        SurfaceInvariants(10, 1)  # BMY
    with pytest.raises(InvariantViolation):
        SurfaceInvariants(10, 0)
    with pytest.raises(InvariantViolation):
        SurfaceInvariants(0, 1)
    with pytest.raises(InvariantViolation):
        SurfaceInvariants(10, 2, known_pencils=frozenset({3}), no_pencils=frozenset({3}))


def test_chi_floor_derivation():
    assert SurfaceInvariants(64).chi_floor == 8
    assert SurfaceInvariants(63).chi_floor == 7
    assert SurfaceInvariants(5).chi_floor == 1
    assert SurfaceInvariants(10, 4).chi_floor == 4


# ---------------------------------------------------------------------------
# plurigenus
# ---------------------------------------------------------------------------

def test_plurigenus_values():
    assert plurigenus(ThreefoldInvariants(2, 0), 3) == 5
    assert plurigenus(ThreefoldInvariants(12, 1), 2) == 3
    assert plurigenus(ThreefoldInvariants(2, 0), 2) == 1


def _plurigenus_oracle(k3, chi, n):
    """p_n from the Fraction formula, or the text of the error it must raise."""
    value = Fraction((2 * n - 1) * n * (n - 1), 12) * k3 + (1 - 2 * n) * chi
    if value.denominator != 1:
        return f"plurigenus p_{n} = {value} is not an integer; inputs inadmissible"
    if n >= 3 and value < 5:
        return f"p_{n} = {value} < 5; inputs inadmissible"
    return int(value)


def _plurigenus_outcome(inv, n):
    try:
        return plurigenus(inv, n)
    except InvariantViolation as exc:
        return str(exc)


def test_plurigenus_matches_the_fraction_formula():
    # every admissible (K^3, chi) with K^3 <= 200, where p_n is integral and >= 5
    for k3 in range(2, 201, 2):
        lo, hi = admissible_chi_range(k3)
        for chi in range(lo, hi + 1):
            inv = ThreefoldInvariants(k3, chi)
            for n in (2, 3, 4, 7, 27450):
                assert plurigenus(inv, n) == _plurigenus_oracle(k3, chi, n), (k3, chi, n)
    # inputs outside the admissible range reach both errors, with their exact text
    for k3 in range(-6, 31):
        for chi in range(-8, 9):
            inv = SimpleNamespace(k3=k3, chi=chi)
            for n in range(2, 8):
                assert _plurigenus_outcome(inv, n) == _plurigenus_oracle(k3, chi, n), (k3, chi, n)
    assert _plurigenus_outcome(SimpleNamespace(k3=1, chi=0), 2) == \
        "plurigenus p_2 = 1/2 is not an integer; inputs inadmissible"
    assert _plurigenus_outcome(SimpleNamespace(k3=2, chi=1), 3) == "p_3 = 0 < 5; inputs inadmissible"


def test_plurigenus_needs_n_at_least_2():
    with pytest.raises(InvariantViolation):
        plurigenus(ThreefoldInvariants(2, 0), 1)


def test_plurigenus_floor_holds_on_admissible_grid():
    for k3 in range(2, 40, 2):
        lo, hi = admissible_chi_range(k3)
        for chi in (lo, 0 if lo <= 0 <= hi else hi, hi):
            inv = ThreefoldInvariants(k3, chi)
            for n in (3, 4, 5):
                assert plurigenus(inv, n) >= 5


# ---------------------------------------------------------------------------
# margins
# ---------------------------------------------------------------------------

def test_margin_lemma74_boundary():
    margin, rep = decomposability_margin("lemma7.4", SurfaceInvariants(72, 8))
    assert margin == 1
    assert rep.check("a3_at_most_2a2").passed
    margin, _ = decomposability_margin("lemma7.4", SurfaceInvariants(63, 7))
    assert margin == -3


def test_margin_lemma74_positive_for_chi_ge_8():
    for chi in range(8, 30):
        for k2 in range(1, 9 * chi + 1, 7):
            margin, _ = decomposability_margin("lemma7.4", SurfaceInvariants(k2, chi))
            assert margin > 0, (k2, chi)


def test_margin_prop63_threshold():
    margin, _ = decomposability_margin("prop6.3", SurfaceInvariants(126, 14))
    assert margin == Fraction(4, 5)
    margin, _ = decomposability_margin("prop6.3", SurfaceInvariants(117, 13))
    assert margin == Fraction(-7, 5)
    for chi in range(14, 40):
        for k2 in range(1, 9 * chi + 1, 11):
            margin, _ = decomposability_margin("prop6.3", SurfaceInvariants(k2, chi))
            assert margin > 0


def test_margin_lemma72_threshold():
    assert decomposability_margin("lemma7.2", SurfaceInvariants(9, 1))[0] == -6
    assert decomposability_margin("lemma7.2", SurfaceInvariants(18, 2))[0] == -2
    assert decomposability_margin("lemma7.2", SurfaceInvariants(27, 3))[0] == 2
    # K^2-independence of this margin
    assert decomposability_margin("lemma7.2", SurfaceInvariants(1, 3))[0] == 2


def test_margin_lemma76_values():
    assert decomposability_margin("lemma7.6-12", SurfaceInvariants(4, 1))[0] == 8
    assert decomposability_margin("lemma7.6-16", SurfaceInvariants(2, 1))[0] == 13


def test_margin_variant_mismatch_rejected():
    with pytest.raises(InvariantViolation):
        decomposability_margin("prop3.3", SurfaceInvariants(10, 2), n=20)
    with pytest.raises(InvariantViolation):
        decomposability_margin("lemma7.4", ThreefoldInvariants(2, 0))
    with pytest.raises(InvariantViolation):
        decomposability_margin("nope", SurfaceInvariants(10, 2))


def test_margin_chi_shape_supports_endpoint_reduction():
    # single-form margins are exactly linear in chi; the six-case min is
    # concave (nonincreasing slope), so endpoint positivity still implies
    # positivity across a chi interval -- which the endpoint reductions use
    vals = [decomposability_margin("prop6.3", SurfaceInvariants(9, chi))[0]
            for chi in range(1, 9)]
    diffs = {b - a for a, b in zip(vals, vals[1:])}
    assert len(diffs) == 1
    vals = [decomposability_margin("lemma7.4", SurfaceInvariants(50, chi))[0]
            for chi in range(6, 14)]
    slopes = [b - a for a, b in zip(vals, vals[1:])]
    assert all(s2 <= s1 for s1, s2 in zip(slopes, slopes[1:]))
    # dense scan agrees with endpoint positivity on a sample interval
    lo, hi = 8, 13
    if vals[lo - 6] > 0 and vals[hi - 6] > 0:
        assert all(v > 0 for v in vals[lo - 6:hi - 5])


def test_prop33_chain_check_follows_epsilon_at_one_level():
    # the eps-only check is built once per (n, eps); at n = 30 the cap
    # 12/(179*88) lies between 1/100000 and 1/1000
    cap = Fraction(12, 179 * 88)
    for eps in (Fraction(1, 1000), Fraction(1, 100000), CHAIN_RATIO_EPSILON, Fraction(1, 100000)):
        _, rep = decomposability_margin("prop3.3", ThreefoldInvariants(6, 1), n=30, epsilon=eps)
        assert rep.check("chain_ratio_implies_eps") == (
            "chain_ratio_implies_eps", cap <= eps, f"12/((6n-1)(3n-2)) = {cap} vs eps = {eps}")


def test_margin_prop33_requires_level():
    inv = ThreefoldInvariants(2, 0)
    with pytest.raises(InvariantViolation):
        decomposability_margin("prop3.3", inv)
    margin, rep = decomposability_margin("prop3.3", inv, n=20)
    assert rep.check("chain_ratio_implies_eps").passed
    assert isinstance(margin, Fraction)


# ---------------------------------------------------------------------------
# universal-n
# ---------------------------------------------------------------------------

def test_universal_n_certificate():
    n_star, cert = _universal()
    assert cert["leading_coefficient"] == Fraction(1, 9540)
    assert cert["chain_floor"]["n"] == 20
    assert cert["chain_floor"]["value_at_floor"] == 6902
    assert cert["chain_floor"]["value_below"] == 6215
    assert n_star >= 20
    final = cert["conditions_at_n_star"]
    assert final["margin_k3_2_chi_0"] > 0
    assert final["margin_k3_6_chi_1"] > 0
    assert final["B"] < 0


def test_universal_n_minimality_witness_is_real():
    n_star, cert = _universal()
    wit = cert["minimality_witness"]
    assert wit["n"] == n_star - 1
    assert "failed" in wit
    if "k3" in wit:
        inv = ThreefoldInvariants(wit["k3"], wit["chi"])
        margin, _ = decomposability_margin("prop3.3", inv, n=n_star - 1)
        assert margin <= 0
        assert margin == wit["value"]


def test_universal_n_sampled_confirmation():
    n_star, _ = _universal()
    assert confirm_universal_n(n_star, k3_limit=100)


@pytest.mark.parametrize("epsilon", [CHAIN_RATIO_EPSILON, Fraction(1, 1000)])
def test_margin_and_size_polynomials_match_the_plurigenus_path(epsilon):
    a, b, c0 = bounds._margin_polynomials(epsilon)
    sz_a, sz_b = bounds._size_polynomials()
    assert c0 == -57
    for k3 in (2, 4, 6, 12, 38, 200):
        for chi in admissible_chi_range(k3):
            inv = ThreefoldInvariants(k3, chi)
            for n in range(2, 61):
                margin, _ = decomposability_margin("prop3.3", inv, n=n, epsilon=epsilon)
                assert bounds._poly(a, n) * k3 + bounds._poly(b, n) * chi + c0 == margin
                assert bounds._poly(sz_a, n) * k3 + bounds._poly(sz_b, n) * chi == \
                    4 * plurigenus(inv, 2 * n) - plurigenus(inv, 3 * n)


@pytest.mark.parametrize("epsilon, n_star", [
    (Fraction(1, 540), 2544), (Fraction(1, 560), 937), (Fraction(1, 600), 440),
    (Fraction(1, 1000), 112), (Fraction(1, 5000), 60), (Fraction(1, 10 ** 6), 817),
])
def test_universal_n_matches_the_level_scan(epsilon, n_star):
    result = universal_n(epsilon)
    assert result[0] == n_star
    assert result == naive_universal_n(epsilon)


def test_universal_n_matches_the_level_scan_at_the_paper_epsilon():
    assert _universal() == naive_universal_n(CHAIN_RATIO_EPSILON)


@settings(deadline=None, max_examples=40)
@given(st.integers(560, 10 ** 6))
def test_universal_n_matches_the_level_scan_at_eps_one_over_q(q):
    epsilon = Fraction(1, q)
    assert universal_n(epsilon) == naive_universal_n(epsilon)


def test_universal_n_near_the_epsilon_limit():
    # a level-by-level scan needs about 30 s here
    assert universal_n(Fraction(1000, 529100))[0] == 274014
    # and hours here, so check the five conditions straight from p_m instead
    epsilon = Fraction(10 ** 6 - 1, 529 * 10 ** 6)
    n_star, cert = universal_n(epsilon)
    for k3, chi in ((2, 0), (6, 1), (2, -6)):
        inv = ThreefoldInvariants(k3, chi)
        assert decomposability_margin("prop3.3", inv, n=n_star, epsilon=epsilon)[0] > 0
        if chi >= 0:
            assert 4 * plurigenus(inv, 2 * n_star) >= plurigenus(inv, 3 * n_star)
    wit = cert["minimality_witness"]
    assert wit["n"] == n_star - 1 and "k3" in wit
    below, _ = decomposability_margin("prop3.3", ThreefoldInvariants(wit["k3"], wit["chi"]),
                                      n=n_star - 1, epsilon=epsilon)
    assert below == wit["value"] <= 0


@pytest.mark.parametrize("epsilon", [
    CHAIN_RATIO_EPSILON, Fraction(1, 10 ** 6), Fraction(1, 10 ** 12), Fraction(1, 10 ** 30),
])
def test_universal_n_chain_floor_is_the_least_capped_level(epsilon):
    n = universal_n(epsilon)[1]["chain_floor"]["n"]
    assert bounds._chain_cap(n) <= epsilon < bounds._chain_cap(n - 1)


def _first_holding_by_scan(q, n):
    while bounds._poly(q, n) <= 0:
        n += 1
    return n


# integer polynomials of degree 1..3 with a positive lead, as the search takes them
cubics = st.integers(1, 3).flatmap(
    lambda degree: st.tuples(st.integers(1, 6), *[st.integers(-400, 400)] * degree))


@settings(deadline=None)
@given(st.lists(cubics, min_size=1, max_size=4), st.integers(-60, 60))
def test_integer_search_matches_a_scan_on_any_cubics(conditions, n):
    for q in conditions:
        assert bounds._next_holding_level(q, n) == _first_holding_by_scan(q, n)
    expected = n
    while any(bounds._poly(q, expected) <= 0 for q in conditions):
        expected += 1
    assert bounds._least_common_level(conditions, n) == expected


def test_cleared_conditions_keep_signs_and_reject_a_nonpositive_lead():
    assert bounds._cleared((Fraction(1, 6), Fraction(-1, 4), 0)) == (2, -3, 0)
    assert bounds._cleared((0, Fraction(1, 2), -1), strict=False) == (1, -1)
    for coeffs in ((-1, 0, 0, 5), (0, 0, 0, 0), (0, 0, 0, -3), (1, 0, 0, 0, 0)):
        with pytest.raises(InvariantViolation):
            bounds._cleared(coeffs)


def test_universal_n_epsilon_guard():
    with pytest.raises(InvariantViolation):
        universal_n(Fraction(1, 529))
    with pytest.raises(InvariantViolation):
        universal_n(Fraction(0))


def test_threefold_constant():
    n_star, _ = _universal()
    c, trail = threefold_constant(n_star=n_star)
    assert c >= 25
    assert trail["product_family_floor"]["satisfied"]
    assert trail["branch_small_pg"]["coefficient"] == Fraction(270 * 9 * 34 * 4 * n_star)
    assert trail["result"]["c"] == c


# ---------------------------------------------------------------------------
# surface bound table
# ---------------------------------------------------------------------------

def test_surface_bound_examples():
    assert surface_bound(SurfaceInvariants(1)).value == 270
    res = surface_bound(SurfaceInvariants(200, 30, no_pencils=frozenset({3, 4, 5})))
    assert res.value == 5056 and res.source == ("large_k2_small_pencils_controlled",)
    res = surface_bound(SurfaceInvariants(5, p3_degree=5))
    assert res.value == 234
    res = surface_bound(SurfaceInvariants(50, known_pencils=frozenset({2})))
    assert res.value == Fraction(725)


def test_surface_bound_chi8_via_bmy():
    # K^2 >= 64 forces chi >= 8 without chi being given
    res = surface_bound(SurfaceInvariants(64))
    assert res.value == 36 * 64 + 24
    assert res.source == ("global_chi8",)
    res = surface_bound(SurfaceInvariants(63))
    assert res.value == 114 * 63 + 24  # still in the mid range; chi8 not derivable


def test_surface_bound_unknown_flags_do_not_fire():
    res = surface_bound(SurfaceInvariants(200, 30))
    # no pencil information: the 24K^2+256 rule must not apply
    assert "large_k2_small_pencils_controlled" not in res.applicable
    assert res.value == 36 * 200 + 24


def test_surface_bound_trail_is_complete():
    res = surface_bound(SurfaceInvariants(100, 12))
    assert set(res.applicable) <= set(res.trail)
    assert all(not rep.admissible for tag, rep in res.trail.items()
               if tag not in res.applicable)


def test_surface_bound_monotone_within_rule():
    prev = None
    for k2 in range(4, 64):
        res = surface_bound(SurfaceInvariants(k2))
        value = res.applicable["mid_k2"]
        if prev is not None:
            assert value >= prev
        prev = value


def test_surface_bound_unconditional_coverage():
    # the piecewise small-K^2 rules cover K^2 <= 63 and K^2 >= 64 forces
    # chi >= 8, so a bare K^2 always gets some bound
    for k2 in list(range(1, 70)) + [100, 500, 1000]:
        res = surface_bound(SurfaceInvariants(k2))
        assert res.value is not None


def test_pencil_slope_test_matches_the_rational_oracle():
    # K^2 >= 12(g-1)/(g+5) * chi in integers; g = 3 has slope 3, so K^2 = 3 chi
    # is an equality case that must pass
    for g in (3, 4, 5):
        slope = Fraction(12 * (g - 1), g + 5)
        assert bounds._PENCIL_SLOPES[g] == str(slope)
        for chi in range(1, 81):
            for k2 in range(1, 601):
                oracle = Fraction(k2) >= slope * chi
                assert bounds._pencil_controlled(g, k2, chi) == oracle, (g, k2, chi)


def test_check_is_an_immutable_hashable_tuple():
    check = Check("k2_at_least_9", True, 12)
    with pytest.raises(AttributeError):
        check.passed = False
    assert check == ("k2_at_least_9", True, 12) and hash(check) == hash(("k2_at_least_9", True, 12))
    assert check.to_json_dict() == {"name": "k2_at_least_9", "passed": True, "detail": 12}
    assert Check("x", False).to_json_dict() == {"name": "x", "passed": False, "detail": None}
    assert Check("x", True, Fraction(7, 2)).to_json_dict()["detail"] == "7/2"


def test_hypothesis_report_is_a_tuple_admissible_exactly_when_every_check_passes():
    for size in range(5):
        for failing in [None, *range(size)]:
            checks = tuple(Check(f"c{i}", i != failing, i) for i in range(size))
            rep = HypothesisReport("subject", checks)
            assert rep == ("subject", checks) and hash(rep) == hash(("subject", checks))
            assert rep.admissible == (failing is None), (size, failing)
            assert rep.failed() == ([] if failing is None else [f"c{failing}"])
            assert rep.to_json_dict() == {"subject": "subject", "admissible": failing is None,
                                          "checks": [c.to_json_dict() for c in checks]}
    rep = HypothesisReport("x", (Check("a", True), Check("b", False, Fraction(1, 2))))
    assert rep.check("b") is rep.checks[1]
    with pytest.raises(KeyError):
        rep.check("c")
    with pytest.raises(AttributeError):
        rep.subject = "y"
    assert HypothesisReport("empty").checks == () and HypothesisReport("empty").admissible


def test_bound_result_serialization():
    res = surface_bound(SurfaceInvariants(1))
    d = res.to_json_dict()
    assert d["value"] == 270
    assert "unit_k2" in d["trail"]


# ---------------------------------------------------------------------------
# pinned trails
# ---------------------------------------------------------------------------

# (known_pencils, no_pencils) and flag sets of the pinned surface grid; each
# K^2 takes every pencil set, each with the flag set its K^2 and index select
_PENCIL_SETS = [((), ()), ((2,), ()), ((3,), (4, 5)), ((3, 4, 5), ()),
                ((), range(2, 9)), ((4,), (2, 3, 5))]
_FLAG_SETS = [
    {},
    {"canonical_image_dim": 2},
    {"canonical_image_dim": 2, "canonical_map_birational": True},
    {"canonical_image_dim": 1},
    {"even_surface_conditions": True},
    {"ci_degrees": (3, 4)},
    {"ci_degrees": (2, 2, 3)},
    {"p3_degree": 5},
    {"p3_degree": 4},
    {"two_pencils_genus": 3},
    {"two_pencils_genus": 6, "even_surface_conditions": True, "canonical_image_dim": 2},
]


def _surface_grid():
    for k2 in range(1, 261):
        floor = max(1, -(-k2 // 9))
        for j, (known, absent) in enumerate(_PENCIL_SETS):
            flags = _FLAG_SETS[(k2 + j) % len(_FLAG_SETS)]
            for chi in (None, floor, floor + 1, floor + 2, floor + 3, 30):
                yield SurfaceInvariants(k2, chi, frozenset(known), frozenset(absent), **flags)


def _margin_inputs():
    for k3 in range(2, 41, 2):
        for chi in admissible_chi_range(k3):
            for n in (2, 3, 7, 20, 60):
                for epsilon in (CHAIN_RATIO_EPSILON, Fraction(1, 1000), Fraction(7, 5000)):
                    yield "prop3.3", ThreefoldInvariants(k3, chi), {"n": n, "epsilon": epsilon}
    for variant in bounds.MARGIN_VARIANTS[1:]:
        for chi in range(1, 31):
            for k2 in range(1, 9 * chi + 1, 5):
                yield variant, SurfaceInvariants(k2, chi), {}


def _trail_digest(items) -> str:
    digest = hashlib.sha256()
    for item in items:
        digest.update(json.dumps(item, sort_keys=True, separators=(",", ":")).encode() + b"\n")
    return digest.hexdigest()


def _margin_trails():
    for variant, inv, kwargs in _margin_inputs():
        try:
            margin, report = decomposability_margin(variant, inv, **kwargs)
            yield str(margin), report.to_json_dict()
        except InvariantViolation as exc:
            yield "error", str(exc)


# sha256 over the compact JSON of every surface_bound trail on the grid above
# and of every (margin, report) on the margin inputs, one line each: the
# golden table pins only value and source
_PINNED_SURFACE_TRAILS = "df780609b25948dc851168bff970a888ecfc4a1d040ae260be1626c7b5fd718e"
_PINNED_MARGIN_TRAILS = "e63a6f404e67066713843c34adf257a3e30f174672f724b496531914f36d3362"


def test_surface_bound_trails_are_pinned():
    assert _trail_digest(surface_bound(inv).to_json_dict() for inv in _surface_grid()) == \
        _PINNED_SURFACE_TRAILS


def test_margin_trails_are_pinned():
    assert _trail_digest(_margin_trails()) == _PINNED_MARGIN_TRAILS


def _prop33_trails():
    # the confirmation's margins at n* and n* - 1, with chi at both ends and
    # the middle; at eps = 1e-6, n* - 1 fails the chain check
    for epsilon in (CHAIN_RATIO_EPSILON, Fraction(1, 10 ** 6)):
        n_star, _ = universal_n(epsilon)
        for n in (n_star, n_star - 1):
            for k3 in range(2, 201, 2):
                lo, hi = admissible_chi_range(k3)
                for chi in (lo, (lo + hi) // 2, hi):
                    margin, report = decomposability_margin(
                        "prop3.3", ThreefoldInvariants(k3, chi), n=n, epsilon=epsilon)
                    yield str(margin), report.to_json_dict()


def test_prop33_trails_at_the_universal_level_are_pinned():
    assert _trail_digest(_prop33_trails()) == \
        "c9e17d9636a8d081c8e0cdec6085687757a5088e5f5a8c1e9329d6658ebd6c0a"


# ---------------------------------------------------------------------------
# the surface bound decided on booleans, its trail built when read
# ---------------------------------------------------------------------------

def _golden_surface_entries():
    return json.loads(resources.files("autbounds.data").joinpath("golden_surface_bounds.json")
                      .read_text())["body"]["entries"]


def test_surface_bound_value_and_source_agree_with_the_trail():
    golden = [surface_invariants_from_kv(e["inputs"]) for e in _golden_surface_entries()]
    for inv in [*_surface_grid(), *golden]:
        res = surface_bound(inv)
        assert set(res.applicable) == {tag for tag, rep in res.trail.items() if rep.admissible}, inv
        assert res.value == min(res.applicable.values(), default=None), inv
        assert res.source == tuple(sorted(tag for tag, v in res.applicable.items()
                                          if v == res.value)), inv


def test_surface_trail_is_built_only_when_read(monkeypatch):
    def refuse(*args):
        raise AssertionError("a check was built before the trail was read")

    monkeypatch.setattr(bounds, "Check", refuse)
    monkeypatch.setattr(bounds, "HypothesisReport", refuse)
    golden = _golden_surface_entries()
    results = [surface_bound(surface_invariants_from_kv(e["inputs"])) for e in golden]
    assert [(jsonable(r.value), list(r.source)) for r in results] == \
        [(e["value"], e["source"]) for e in golden]
    grid = deque(surface_bound(inv) for inv in _surface_grid())
    monkeypatch.undo()

    def read(results):
        while results:  # drop each result once read, so the trails are not all held at once
            res = results.popleft()
            assert res.trail is res.trail
            yield res.to_json_dict()

    assert _trail_digest(read(grid)) == _PINNED_SURFACE_TRAILS
