import json
import random

import pytest

from autbounds.covers import (
    FERMAT_REFERENCE,
    VARIABLE_MODULI_REFERENCE,
    CoverDatum,
    FiniteAbelianGroup,
    LinearBound,
    abelian_groups_of_order,
    branch_data_for,
    canonical_branch,
    compare_signatures,
    enumerate_extremal,
    example_family_49,
    hurwitz_genus,
    hyperelliptic_witness,
    lemma43_admissible,
    order2_witnesses,
    quotient_genus,
    records_from_json,
    records_to_json,
    signature_table,
)
from autbounds.errors import InvariantViolation
from functools import lru_cache

from tests_oracles import hillar_rhea_aut_order, naive_automorphisms, naive_canonical_branch


@lru_cache(maxsize=None)
def _variable_moduli_records():
    return tuple(enumerate_extremal(range(3, 7), LinearBound.parse("3g-3"),
                                    gamma=0, k_min=4))


# ---------------------------------------------------------------------------
# groups
# ---------------------------------------------------------------------------

def test_invariant_factors_chain_enforced():
    with pytest.raises(InvariantViolation):
        FiniteAbelianGroup((4, 2))
    with pytest.raises(InvariantViolation):
        FiniteAbelianGroup((1, 2))
    g = FiniteAbelianGroup((2, 4))
    assert g.order == 8 and g.exponent == 4 and not g.is_cyclic


def test_element_orders_and_subgroups():
    g = FiniteAbelianGroup((2, 4))
    assert g.element_order((1, 2)) == 2
    assert g.element_order((0, 1)) == 4
    assert g.element_order(g.identity()) == 1
    sub = g.subgroup([(0, 2)])
    assert sub == frozenset({(0, 0), (0, 2)})
    assert g.generates([(1, 0), (0, 1)])
    assert not g.generates([(0, 1)])


def test_groups_of_order_enumeration():
    names = {str(g) for g in abelian_groups_of_order(16)}
    assert names == {
        "Z/2 x Z/2 x Z/2 x Z/2", "Z/2 x Z/2 x Z/4", "Z/2 x Z/8", "Z/4 x Z/4", "Z/16",
    }
    assert [str(g) for g in abelian_groups_of_order(7)] == ["Z/7"]
    assert len(abelian_groups_of_order(36)) == 4


def test_automorphism_counts():
    assert len(FiniteAbelianGroup((5, 5)).automorphisms()) == 480  # GL(2,5)
    assert len(FiniteAbelianGroup((8,)).automorphisms()) == 4
    assert len(FiniteAbelianGroup((2, 2)).automorphisms()) == 6  # GL(2,2)


def test_automorphism_counts_match_closed_form():
    for n in range(1, 37):
        for g in abelian_groups_of_order(n):
            if g.invariant_factors != (2, 2, 2, 2, 2):  # |GL(5,2)| rows: never built
                assert len(g.automorphisms()) == hillar_rhea_aut_order(g.invariant_factors), g
    assert hillar_rhea_aut_order((2, 2, 2, 2, 2)) == 9_999_360
    assert hillar_rhea_aut_order((2, 2, 2, 2)) == 20_160
    assert hillar_rhea_aut_order((2, 2, 2, 4)) == 21_504


# (Z/2)^4 is left out: the naive build alone filters 50,625 dict tables
ORACLE_GROUPS = [g for n in range(1, 25) for g in abelian_groups_of_order(n)
                 if g.invariant_factors != (2, 2, 2, 2)]


@pytest.mark.parametrize("group", ORACLE_GROUPS, ids=str)
def test_automorphisms_match_naive_oracle(group):
    elements = group.elements()
    rows = {tuple(row) for row in group.automorphisms().tolist()}
    naive = {tuple(elements.index(aut[x]) for x in elements)
             for aut in naive_automorphisms(group.invariant_factors)}
    assert rows == naive
    assert len(rows) == len(group.automorphisms())


@pytest.mark.parametrize("group", ORACLE_GROUPS, ids=str)
def test_canonical_branch_matches_naive_oracle(group):
    rng = random.Random(group.order)
    elements = group.elements()
    for k in range(1, 8):
        for _ in range(15):
            branch = tuple(rng.choice(elements) for _ in range(k))
            assert canonical_branch(group, branch) == naive_canonical_branch(group, branch), branch


def test_canonical_branch_orbit_invariance():
    g = FiniteAbelianGroup((4, 4))
    b1 = ((1, 0), (0, 1), (3, 3))
    b2 = ((0, 1), (1, 0), (3, 3))
    assert canonical_branch(g, b1) == canonical_branch(g, b2)


def test_min_generators_of_quotient():
    g = FiniteAbelianGroup((2, 2, 2, 2))
    sub = g.subgroup([(1, 0, 0, 0)])
    assert g.min_generators_of_quotient(sub) == 3
    assert g.min_generators_of_quotient(g.subgroup([])) == 4


# ---------------------------------------------------------------------------
# cover data and the ramification identity
# ---------------------------------------------------------------------------

def test_datum_validation():
    g = FiniteAbelianGroup((2,))
    with pytest.raises(InvariantViolation):
        CoverDatum(g, 0, ((0,),))  # zero branch element
    with pytest.raises(InvariantViolation):
        CoverDatum(g, 0, ((1,),))  # does not sum to zero
    with pytest.raises(InvariantViolation):
        CoverDatum(FiniteAbelianGroup((2, 2)), 0, ((1, 0), (1, 0)))  # no generation
    # rank too high for one handle:
    with pytest.raises(InvariantViolation):
        CoverDatum(FiniteAbelianGroup((2, 2, 2, 2)), 1, ((1, 0, 0, 0), (1, 0, 0, 0)))
    # fine with two handles worth of generators:
    CoverDatum(FiniteAbelianGroup((2, 2, 2, 2)), 2, ((1, 0, 0, 0), (1, 0, 0, 0)))


def test_hurwitz_values():
    quintic = CoverDatum(FiniteAbelianGroup((5, 5)), 0, ((1, 0), (0, 1), (4, 4)))
    assert hurwitz_genus(quintic) == 6
    quartic = CoverDatum(FiniteAbelianGroup((4, 4)), 0, ((1, 0), (0, 1), (3, 3)))
    assert hurwitz_genus(quartic) == 3
    assert hurwitz_genus(CoverDatum(FiniteAbelianGroup(()), 2, ())) == 2


def test_hurwitz_small_valid_cases():
    # every datum passing validation is realizable, so these produce honest
    # genera even below general type
    assert hurwitz_genus(CoverDatum(FiniteAbelianGroup((2,)), 0, ((1,), (1,)))) == 0
    assert hurwitz_genus(CoverDatum(FiniteAbelianGroup((3,)), 0, ((1,), (1,), (1,)))) == 1


def test_hurwitz_inadmissible_returns_none():
    # the inadmissible branch is defensive: reachable only by skipping
    # validation (a single involution cannot sum to zero)
    d = object.__new__(CoverDatum)
    object.__setattr__(d, "group", FiniteAbelianGroup((2,)))
    object.__setattr__(d, "quotient_genus", 0)
    object.__setattr__(d, "branch", ((1,),))
    assert hurwitz_genus(d) is None


def test_quotient_genus_extremes_and_monotonicity():
    g = FiniteAbelianGroup((2,))
    hyp = CoverDatum(g, 0, ((1,),) * 6)
    assert hurwitz_genus(hyp) == 2
    assert quotient_genus(hyp, [(1,)]) == 0
    assert quotient_genus(hyp, []) == hurwitz_genus(hyp)
    # monotone along subgroup chains on a richer example
    g2 = FiniteAbelianGroup((2, 4))
    datum = CoverDatum(g2, 0, ((0, 1), (0, 1), (1, 1), (1, 1)))
    chain = ([], [(0, 2)], [(0, 1)])
    genera = [quotient_genus(datum, h) for h in chain]
    assert genera[0] >= genera[1] >= genera[2]


def test_quotient_genus_rejects_non_subgroup_elements():
    g = FiniteAbelianGroup((2,))
    hyp = CoverDatum(g, 0, ((1,),) * 6)
    with pytest.raises(InvariantViolation):
        quotient_genus(hyp, [(2,)])  # not reduced mod 2


def test_witness_semantics():
    g = FiniteAbelianGroup((2,))
    hyp = CoverDatum(g, 0, ((1,),) * 6)
    w = hyperelliptic_witness(hyp)
    assert w is not None and w.quotient_genus == 0 and w.kind == "hyperelliptic"
    quartic = CoverDatum(FiniteAbelianGroup((4, 4)), 0, ((1, 0), (0, 1), (3, 3)))
    assert hyperelliptic_witness(quartic, max_quotient_genus=0) is None
    w1 = hyperelliptic_witness(quartic)
    assert w1 is not None and w1.kind == "bielliptic"
    assert len(order2_witnesses(quartic)) == 3  # all three order-2 quotients are elliptic


def test_lemma43_checks():
    quintic = CoverDatum(FiniteAbelianGroup((5, 5)), 0, ((1, 0), (0, 1), (4, 4)))
    rep = lemma43_admissible(quintic)
    assert rep.admissible
    rep_cyc = lemma43_admissible(quintic, assume_cyclic=True)
    assert not rep_cyc.admissible
    assert "cyclic_order_equals_lcm" in rep_cyc.failed()
    with pytest.raises(InvariantViolation):
        lemma43_admissible(CoverDatum(FiniteAbelianGroup(()), 1, ()))


def test_lemma43_product_divisibility_failure():
    # signature (7, 3, 2) on a cyclic group of order 42: m_1 = 3*2 = 6 is not
    # a multiple of 42, so condition (i) fails -- and indeed no sum-zero
    # branch triple with these orders exists in Z/42.
    from autbounds.covers import lemma43_signature_checks
    rep = lemma43_signature_checks(42, (7, 3, 2))
    assert not rep.check("complementary_products_divisible").passed
    assert not rep.admissible
    g = FiniteAbelianGroup((42,))
    elements = [(x,) for x in range(1, 42)]
    orders = {e: g.element_order(e) for e in elements}
    for a in elements:
        for b in elements:
            if {orders[a], orders[b]} == {7, 3}:
                c = g.neg(g.add(a, b))
                assert orders.get(c) != 2 or c == g.identity()


def test_lemma43_i_and_iii_imply_ii_on_enumerated_data():
    recs = _variable_moduli_records()
    for r in recs:
        rep = lemma43_admissible(r.datum)
        ci = rep.check("complementary_products_divisible").passed
        ciii = rep.check("lcm_divides_order").passed
        cii = rep.check("each_prime_in_two_indices").passed
        if ci and ciii:
            assert cii


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_branch_data_signature_uniqueness_for_family_groups():
    for m in (2, 3):
        fam = example_family_49(m)
        data = branch_data_for(fam.group, 0, 3 * m - 2)
        assert {d.signature() for d in data} == {(3 * m, 3 * m, 3)}


def test_enumeration_bound_parse():
    b = LinearBound.parse("3g+6")
    assert b.value(4) == 18
    assert LinearBound.parse("-g+40").value(10) == 30
    with pytest.raises(InvariantViolation):
        LinearBound.parse("36")


def test_fermat_run_signatures():
    recs = enumerate_extremal(range(2, 9), LinearBound.parse("3g+6"),
                              require_no_hyperelliptic_witness=True)
    assert signature_table(recs) == list(FERMAT_REFERENCE)
    groups = {str(r.datum.group) for r in recs}
    assert groups == {"Z/4 x Z/4", "Z/5 x Z/5"}


def test_unfiltered_extremal_records_are_hyperelliptic():
    filtered = enumerate_extremal(range(2, 9), LinearBound.parse("3g+6"),
                                  require_no_hyperelliptic_witness=True)
    everything = enumerate_extremal(range(2, 9), LinearBound.parse("3g+6"))
    kept = {r.signature_tuple for r in filtered}
    for r in everything:
        if r.signature_tuple not in kept:
            assert any(w.quotient_genus == 0 for w in r.witnesses)


def test_variable_moduli_flags():
    recs = _variable_moduli_records()
    cmp = compare_signatures(recs, VARIABLE_MODULI_REFERENCE)
    assert cmp["missing_from_found"] == [(6, 16, 4, (8, 4, 2, 2))]
    assert cmp["extra_beyond_reference"] == [
        (3, 8, 5, (2, 2, 2, 2, 2)), (5, 16, 4, (4, 4, 2, 2))]
    assert len(cmp["matched"]) == 4
    assert not cmp["agrees"]


def test_impossible_reference_entry_has_no_realization():
    # no abelian group of order 16 carries branch orders (8,4,2,2) with the
    # product-one and generation constraints; check every group directly
    for group in abelian_groups_of_order(16):
        for datum in branch_data_for(group, 0, 6, k_min=4):
            assert datum.signature() != (8, 4, 2, 2)


def test_enumerated_data_regenerate_and_sum_zero():
    recs = _variable_moduli_records()
    for r in recs:
        g = r.datum.group
        total = g.identity()
        for b in r.datum.branch:
            total = g.add(total, b)
        assert total == g.identity()
        assert g.generates(r.datum.branch)
        assert hurwitz_genus(r.datum) == r.genus


def test_cyclic_run_is_empty():
    recs = enumerate_extremal(range(3, 9), LinearBound.parse("2g+2"),
                              gamma=0, k_min=4, assume_cyclic=True)
    assert recs == []


def test_records_json_round_trip():
    recs = enumerate_extremal(range(2, 9), LinearBound.parse("3g+6"),
                              require_no_hyperelliptic_witness=True)
    data = json.loads(json.dumps(records_to_json(recs)))
    back = records_from_json(data)
    assert [r.signature_tuple for r in back] == [r.signature_tuple for r in recs]
    assert [r.datum for r in back] == [r.datum for r in recs]


# ---------------------------------------------------------------------------
# the 3g+6 equality family
# ---------------------------------------------------------------------------

def test_family_values():
    for m in range(2, 7):
        datum = example_family_49(m)
        g = hurwitz_genus(datum)
        assert g == 3 * m - 2
        assert datum.group.order == 9 * m == 3 * g + 6
        assert datum.signature() == (3 * m, 3 * m, 3)
        assert lemma43_admissible(datum).admissible


def test_family_rejects_small_m():
    with pytest.raises(InvariantViolation):
        example_family_49(1)
