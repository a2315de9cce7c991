import hashlib
import json
import random
from math import gcd

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
    records_to_json,
    signature_table,
    _addition_table,
    _closure,
    _indices,
    _orbit,
    _pool,
    _quotient_rank,
    _root_positions,
    _unit_generators,
)
from autbounds.errors import InvariantViolation
from functools import lru_cache

from tests_oracles import (
    hillar_rhea_aut_order,
    naive_automorphisms,
    naive_branch_data_for,
    naive_canonical_branch,
    naive_cover_conditions,
    naive_element_orbit_keys,
    naive_quotient_rank,
    naive_subgroup,
)


def _generates(group, elements):
    return len(_closure(group.invariant_factors, _indices(group, elements))) == group.order


def _quotient_rank_of(group, subgroup):
    """The least number of generators of group / subgroup."""
    return _quotient_rank(group.invariant_factors, _indices(group, subgroup))


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
    assert g.order == 8 and g.invariant_factors[-1] == 4 and not g.is_cyclic


def test_element_orders_and_subgroups():
    g = FiniteAbelianGroup((2, 4))
    assert g.element_order((1, 2)) == 2
    assert g.element_order((0, 1)) == 4
    assert g.element_order(g.identity()) == 1
    sub = g.subgroup([(0, 2)])
    assert sub == frozenset({(0, 0), (0, 2)})
    assert _generates(g, [(1, 0), (0, 1)])
    assert not _generates(g, [(0, 1)])


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
    # the closure of the generating set has the closed-form order, so it is all of Aut(G)
    for n in range(1, 65):
        for g in abelian_groups_of_order(n):
            expected = hillar_rhea_aut_order(g.invariant_factors)
            if expected <= 25_000:  # larger ones, like |GL(5,2)| rows, are never built
                assert len(g.automorphisms()) == expected, g
    assert hillar_rhea_aut_order((2, 2, 2, 2, 2)) == 9_999_360
    assert hillar_rhea_aut_order((2, 2, 2, 2)) == 20_160
    assert hillar_rhea_aut_order((2, 2, 2, 4)) == 21_504


def test_unit_generators_generate_the_unit_group_least_first():
    # Aut(G)'s scalings use one unit per generator of (Z/d)*: each pick is the
    # least unit outside the subgroup the picks before it generate
    def generated(gens, d):
        sub = {1}
        while True:
            grown = sub | {s * u % d for s in sub for u in gens}
            if grown == sub:
                return sub
            sub = grown

    for d in range(2, 301):
        units = {u for u in range(1, d) if gcd(u, d) == 1}
        gens = _unit_generators(d)
        assert generated(gens, d) == units, d
        for i, u in enumerate(gens):
            assert u == min(units - generated(gens[:i], d)), (d, gens)
    assert _unit_generators(8) == [3, 5] and _unit_generators(116) == [3, 7]


def test_addition_tables_are_pinned():
    # one digest over the tables of all 260 groups of order <= 136, computed
    # when the table was still built by numpy broadcasting
    digest, count = hashlib.sha256(), 0
    for n in range(1, 137):
        for g in abelian_groups_of_order(n):
            digest.update(repr((g.invariant_factors, _addition_table(g.invariant_factors))).encode())
            count += 1
    assert count == 260
    assert digest.hexdigest() == "c779cb46a70cf3e678d579627da34e2339c7573c09bcd8515d7c09eecaf2f9af"


def test_addition_table_matches_group_add():
    for n in range(1, 65):
        for g in abelian_groups_of_order(n):
            table, elements = _addition_table(g.invariant_factors), g.elements()
            index = {x: i for i, x in enumerate(elements)}
            assert len(table) == n and all(len(row) == n for row in table), g
            for i, x in enumerate(elements):
                assert table[i] == [index[g.add(x, y)] for y in elements], (g, x)


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
            # branch_data_for's `seen` takes the whole orbit, not only its minimum
            idx = [elements.index(b) for b in branch]
            assert _orbit(group.invariant_factors, idx) == {
                tuple(sorted(elements.index(aut[b]) for b in branch))
                for aut in naive_automorphisms(group.invariant_factors)}, branch


def test_canonical_branch_orbit_invariance():
    g = FiniteAbelianGroup((4, 4))
    b1 = ((1, 0), (0, 1), (3, 3))
    b2 = ((0, 1), (1, 0), (3, 3))
    assert canonical_branch(g, b1) == canonical_branch(g, b2)
    with pytest.raises(InvariantViolation, match="not a reduced element"):
        canonical_branch(g, ((4, 0), (0, 1)))


def test_min_generators_of_quotient():
    g = FiniteAbelianGroup((2, 2, 2, 2))
    sub = g.subgroup([(1, 0, 0, 0)])
    assert _quotient_rank_of(g, sub) == 3
    assert _quotient_rank_of(g, g.subgroup([])) == 4


# order 18 brings in Z/3 x Z/6, the first group with a quotient whose p-rank
# at an odd prime exceeds its 2-rank
@pytest.mark.parametrize("group", [g for n in range(1, 19) for g in abelian_groups_of_order(n)],
                         ids=str)
def test_subgroups_quotient_ranks_and_validation_match_naive_oracles(group):
    rng = random.Random(group.order)
    elements = group.elements()
    for trial in range(30):
        gens = [rng.choice(elements) for _ in range(trial % 5)]
        sub = naive_subgroup(group, gens)
        assert group.subgroup(gens) == sub, gens
        assert _generates(group, gens) == (len(sub) == group.order), gens
        assert _quotient_rank_of(group, sub) == naive_quotient_rank(group, sub), gens
        branch = list(gens)
        if trial % 4:  # mostly sum-zero branches, so that generation decides
            total = group.identity()
            for x in gens:
                total = group.add(total, x)
            branch.append(group.scale(-1, total))
        for gamma in range(3):
            try:
                CoverDatum(group, gamma, tuple(branch))
                valid = True
            except InvariantViolation:
                valid = False
            assert valid == naive_cover_conditions(group, gamma, tuple(branch)), (branch, gamma)


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
                c = g.scale(-1, g.add(a, b))
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


BRANCH_ORACLE_GROUPS = [g for g in ORACLE_GROUPS if g.order <= 24]


@pytest.mark.parametrize("group", BRANCH_ORACLE_GROUPS, ids=str)
def test_branch_data_match_naive_oracle(group):
    # target (2g - 2) - |G|(2 gamma - 2) runs over 0, 2, ..., 2|G| + 4
    for gamma in range(3):
        first = group.order * (gamma - 1) + 1  # the genus of target 0
        for genus in range(first, first + group.order + 3):
            for k_min in (0, 4):
                assert branch_data_for(group, gamma, genus, k_min) \
                    == naive_branch_data_for(group, gamma, genus, k_min), (gamma, genus, k_min)


def _pool_by_tuples(group):
    """branch_data_for's pool, the nonzero element indices by (order, element), from tuples."""
    elements = group.elements()
    return sorted(range(1, group.order), key=lambda i: (group.element_order(elements[i]), elements[i]))


@pytest.mark.parametrize("group", ORACLE_GROUPS, ids=str)
def test_root_positions_are_the_orbit_minima_of_the_aut_rows(group):
    # the orbit of the element of index x is column x of the Aut(G) rows
    pool = _pool_by_tuples(group)
    position = {x: p for p, x in enumerate(pool)}
    columns = group.automorphisms().T.tolist()
    assert _pool(group.invariant_factors) == pool
    assert _root_positions(group.invariant_factors) == [
        p for p, x in enumerate(pool) if min(position[y] for y in columns[x]) == p]
    # the orbit keys of the oracle below split the elements as the rows do
    keys = naive_element_orbit_keys(group)
    elements = group.elements()
    for x, column in enumerate(columns):
        assert {i for i, y in enumerate(elements) if keys[y] == keys[elements[x]]} == set(column)


@pytest.mark.parametrize("group", [g for n in range(1, 33) for g in abelian_groups_of_order(n)],
                         ids=str)
def test_first_pick_of_every_datum_is_an_orbit_minimum(group):
    # the least pool position of a datum's branch is least in its Aut(G) orbit,
    # with orbits told apart by naive_element_orbit_keys, so (Z/2)^5 needs no Aut(G)
    pool, elements = _pool_by_tuples(group), group.elements()
    keys = naive_element_orbit_keys(group)
    least = {}
    for p, x in enumerate(pool):
        least.setdefault(keys[elements[x]], p)
    position = {elements[x]: p for p, x in enumerate(pool)}
    picks = 0
    for gamma in range(3):
        first = group.order * (gamma - 1) + 1  # the genus of target 0
        for genus in range(first, first + group.order + 3):
            for datum in branch_data_for(group, gamma, genus):
                if datum.branch:
                    p = min(position[b] for b in datum.branch)
                    assert least[keys[elements[pool[p]]]] == p, (gamma, genus, datum.branch)
                    picks += 1
    assert picks or group.order == 1


def test_unramified_double_cover_of_genus_2_is_found():
    # target 0 at Z/2, gamma = 2, g = 3: the datum with no branch points
    group = FiniteAbelianGroup((2,))
    assert branch_data_for(group, 2, 3) == [CoverDatum(group, 2, ())]
    assert branch_data_for(group, 2, 3, k_min=1) == []


# sha256 of records_to_json for each search, as the leaf-by-leaf search that
# put every class in canonical form gave it; a change of class representative
# or of record order shows here
_PINNED_SEARCHES = [
    ("3g+6", 2, 8, dict(require_no_hyperelliptic_witness=True),
     "1c39cc6fc7f638baf42482adc9cbc37fbe7540148f003ba9b0f9ce564750d569"),
    ("3g-3", 3, 6, dict(gamma=0, k_min=4),
     "e3d7cb88f4378cc0cf42e00b81de5cc0978891ebffe1b21dcf7ee4993c03ce11"),
    ("2g+2", 3, 8, dict(gamma=0, k_min=4, assume_cyclic=True),
     "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    ("3g+6", 2, 12, {},
     "04e1eda8c35895a829631e3327fa0eba324acafffb5047f45b0e16a4e02aea9d"),
    ("0g+0", 2, 6, {},
     "dfe165e636ed227879dc33dd675baeeb4e1e196fbc8d7a19c191ee8c3c2ff2b8"),
    ("0g+0", 2, 7, dict(gamma=2),
     "53662cebe2ad069eb36b0bba89fb113540aaa6659c3e80fcae47ccbb9c1834d1"),
    # computed before the search started only at orbit minima
    ("2g", 2, 12, {},
     "8bc853f2294502625bb451e8c716f8cc09d9f7f3780b63fd7d69373873574aac"),
    ("0g+0", 11, 16, {},
     "461fdebd099381b161b8bfd4893dac9a10c49d9fe3d8f80f011bf62ba9a95471"),
]


@pytest.mark.parametrize("bound, gmin, gmax, filters, digest", _PINNED_SEARCHES,
                         ids=["fermat", "variable-moduli", "cyclic", "3g+6-to-12",
                              "all-to-6", "all-gamma-2-to-7", "2g-to-12", "all-11-to-16"])
def test_search_records_digest_is_pinned(bound, gmin, gmax, filters, digest):
    records = enumerate_extremal(range(gmin, gmax + 1), LinearBound.parse(bound), **filters)
    text = json.dumps(records_to_json(records), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


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
        assert _generates(g, r.datum.branch)
        assert hurwitz_genus(r.datum) == r.genus


def test_cyclic_run_is_empty():
    recs = enumerate_extremal(range(3, 9), LinearBound.parse("2g+2"),
                              gamma=0, k_min=4, assume_cyclic=True)
    assert recs == []


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
