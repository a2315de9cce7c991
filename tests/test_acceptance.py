"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance and trial count is pinned here; nothing is deferred to
later calibration. Criterion 6 carries one strict-xfail test: its literal
size range for the 1/530-ratio rule is structurally unattainable (see the
docstring there for the counting argument), so the rule is additionally
verified at the smallest scale where its hypotheses can hold at all.
"""

import time
from fractions import Fraction

import pytest

from autbounds.bounds import (
    SurfaceInvariants,
    ThreefoldInvariants,
    confirm_universal_n,
    decomposability_margin,
    surface_bound,
    threefold_constant,
    universal_n,
)
from autbounds.cli import surface_invariants_from_kv
from autbounds.covers import (
    FERMAT_REFERENCE,
    VARIABLE_MODULI_REFERENCE,
    LinearBound,
    compare_signatures,
    enumerate_extremal,
    example_family_49,
    branch_data_for,
    hurwitz_genus,
    lemma43_admissible,
    signature_table,
)
from autbounds.lattice import LatticeSet, arrangement, longest_chain, midpoint_count, union_midpoint_count
from autbounds.lemmas import run_lemma_suite
from autbounds.reports import jsonable

MASTER_SEED = 20260808


def _report(num: int, name: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" | {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. extremal covers at 3g+6
# ---------------------------------------------------------------------------

def test_criterion_01_fermat_reproduction():
    t0 = time.monotonic()
    records = enumerate_extremal(range(2, 9), LinearBound.parse("3g+6"),
                                 require_no_hyperelliptic_witness=True)
    elapsed = time.monotonic() - t0
    sigs = signature_table(records)
    groups = sorted(str(r.datum.group) for r in records)
    ok = (
        sigs == list(FERMAT_REFERENCE)
        and groups == ["Z/4 x Z/4", "Z/5 x Z/5"]
        and len(records) == 2
        and elapsed < 300
    )
    _report(1, "two extremal records at 3g+6 over genus 2..8",
            ok, f"{sigs} in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. variable-moduli run at 3g-3 with flagged discrepancies
# ---------------------------------------------------------------------------

def test_criterion_02_variable_moduli_flags():
    t0 = time.monotonic()
    records = enumerate_extremal(range(3, 7), LinearBound.parse("3g-3"),
                                 gamma=0, k_min=4)
    elapsed = time.monotonic() - t0
    cmp = compare_signatures(records, VARIABLE_MODULI_REFERENCE)
    flagged = (
        cmp["missing_from_found"] == [(6, 16, 4, (8, 4, 2, 2))]
        and cmp["extra_beyond_reference"] == [
            (3, 8, 5, (2, 2, 2, 2, 2)), (5, 16, 4, (4, 4, 2, 2))]
        and len(cmp["matched"]) == 4
    )
    witnesses_ok = all(
        any(w.quotient_genus <= 1 for w in r.witnesses) for r in records
    )
    ok = flagged and witnesses_ok and elapsed < 600
    _report(2, "variable-moduli signatures vs reference, discrepancies flagged",
            ok, f"missing={cmp['missing_from_found']} extra={cmp['extra_beyond_reference']} "
                f"witnesses_ok={witnesses_ok} in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. cyclic run at 2g+2 is empty
# ---------------------------------------------------------------------------

def test_criterion_03_cyclic_run_empty():
    records = enumerate_extremal(range(3, 9), LinearBound.parse("2g+2"),
                                 gamma=0, k_min=4, assume_cyclic=True)
    _report(3, "cyclic run at 2g+2 over genus 3..8 is empty",
            records == [], f"{len(records)} records")


# ---------------------------------------------------------------------------
# 4. the 3g+6 equality family
# ---------------------------------------------------------------------------

def test_criterion_04_equality_family():
    ok = True
    details = []
    for m in range(2, 7):
        datum = example_family_49(m)
        g = hurwitz_genus(datum)
        good = (
            g == 3 * m - 2
            and datum.group.order == 9 * m == 3 * g + 6
            and lemma43_admissible(datum).admissible
            and {d.signature() for d in branch_data_for(datum.group, 0, g)}
            == {(3 * m, 3 * m, 3)}
        )
        ok &= good
        details.append(f"m={m}:g={g}")
    _report(4, "equality family m=2..6: genus, order, divisibility, signature",
            ok, " ".join(details))


# ---------------------------------------------------------------------------
# 5. arrangement inequality, 10,000 seeded triples
# ---------------------------------------------------------------------------

def test_criterion_05_arrangement_property_suite():
    t0 = time.monotonic()
    res3 = run_lemma_suite("2.4", 5000, MASTER_SEED, dim=3)
    res4 = run_lemma_suite("2.4", 5000, MASTER_SEED + 1, dim=4)
    elapsed = time.monotonic() - t0
    ok = (
        res3.violation_count == 0 and res4.violation_count == 0
        and res3.trials + res4.trials == 10000
        and elapsed < 600
    )
    _report(5, "rule 2.4: 10,000 triples in dims 3 and 4, zero violations",
            ok, f"violations {res3.violation_count}+{res4.violation_count} in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. counting-rule property suites
# ---------------------------------------------------------------------------

def test_criterion_06_rules_2_5_and_2_7():
    t0 = time.monotonic()
    out = {}
    for lemma in ("2.5", "2.7"):
        res = run_lemma_suite(lemma, 1000, MASTER_SEED)
        out[lemma] = res
        if res.violations:
            print("replayable witnesses:", res.violations)
    elapsed = time.monotonic() - t0
    ok = all(r.admissible_count == 1000 and r.violation_count == 0 for r in out.values())
    _report(6, "rules 2.5/2.7: 1000 admissible triples each, zero violations",
            ok, f"in {elapsed:.1f}s")


def test_criterion_06_rule_2_6_binding_scale():
    t0 = time.monotonic()
    res = run_lemma_suite("2.6", 50, MASTER_SEED)
    elapsed = time.monotonic() - t0
    if res.violations:
        print("replayable witnesses:", res.violations)
    # 4771 is the structural floor below which the chain hypothesis cannot
    # hold; the ceiling is just the suite's sampling envelope
    sizes_ok = all(4771 <= r["n3"] <= 15000 for r in res.rows)
    ok = res.admissible_count == 50 and res.violation_count == 0 and sizes_ok
    _report(6, "rule 2.6: 50 admissible 4-dim instances at binding scale, zero violations",
            ok, f"sizes in [{min(r['n3'] for r in res.rows)}, {max(r['n3'] for r in res.rows)}] "
                f"in {elapsed:.1f}s")


@pytest.mark.xfail(strict=True, reason=(
    "structurally unattainable as literally stated: in a 4-dimensional "
    "integrally convex set with N > k^4 points, two points agree mod k, and "
    "the lattice points of the segment joining them form a chain of length "
    "k+1; hence chain >= ceil(N^(1/4)) and the hypothesis chain < N/530 "
    "forces N > 530 * ceil(N^(1/4)), i.e. N >= 4771. No admissible instance "
    "has #A3 in [1100, 3000]; the rule is verified at binding scale instead."
))
def test_criterion_06_rule_2_6_literal_size_range():
    res = run_lemma_suite("2.6", 50, MASTER_SEED, min_size=1100, max_size=3000,
                          max_draws=8)
    assert res.admissible_count == 50 and res.violation_count == 0


def test_criterion_06_structural_floor_argument():
    # the pigeonhole step used in the xfail reasoning, checked on instances
    from autbounds.lemmas import generate_nested_triple
    ok = True
    for seed in range(4):
        t = generate_nested_triple(4, 2000, seed=seed, shape="box")
        n = len(t.a3)
        k = 1
        while (k + 1) ** 4 < n:
            k += 1
        ok &= longest_chain(t.a3) >= k + 1 > Fraction(n, 530)
    _report(6, "structural floor: chain >= N^(1/4) beats N/530 below ~4771 points", ok)


# ---------------------------------------------------------------------------
# 7. threshold re-derivations
# ---------------------------------------------------------------------------

def test_criterion_07_threshold_rederivations():
    checks = []
    for chi in range(8, 41):
        for k2 in range(1, 9 * chi + 1):
            margin, _ = decomposability_margin("lemma7.4", SurfaceInvariants(k2, chi))
            if margin <= 0:
                checks.append(("lemma7.4", k2, chi))
    m74, _ = decomposability_margin("lemma7.4", SurfaceInvariants(63, 7))
    m63a, _ = decomposability_margin("prop6.3", SurfaceInvariants(126, 14))
    m63b, _ = decomposability_margin("prop6.3", SurfaceInvariants(117, 13))
    m72a, _ = decomposability_margin("lemma7.2", SurfaceInvariants(27, 3))
    m72b, _ = decomposability_margin("lemma7.2", SurfaceInvariants(18, 2))
    m12, _ = decomposability_margin("lemma7.6-12", SurfaceInvariants(4, 1))
    m16, _ = decomposability_margin("lemma7.6-16", SurfaceInvariants(2, 1))
    ok = (
        not checks
        and m74 == -3
        and m63a == Fraction(4, 5) and m63b == Fraction(-7, 5)
        and m72a == 2 and m72b == -2
        and m12 == 8 and m16 == 13
    )
    _report(7, "margin thresholds: chi>=8, chi>=14, chi>=3, K^2>=4 / K^2>=2 cutoffs",
            ok, f"fail_points={checks[:3]} m74(63,7)={m74} m63={m63a},{m63b} "
                f"m72={m72a},{m72b} m7.6={m12},{m16}")


# ---------------------------------------------------------------------------
# 8. universal-n and the assembled constant
# ---------------------------------------------------------------------------

def test_criterion_08_universal_n_and_constant():
    t0 = time.monotonic()
    n_star, cert = universal_n()
    wit = cert["minimality_witness"]
    witness_real = False
    if "k3" in wit:
        margin, _ = decomposability_margin(
            "prop3.3", ThreefoldInvariants(wit["k3"], wit["chi"]), n=n_star - 1)
        witness_real = margin == wit["value"] and margin <= 0
    c, trail = threefold_constant(n_star=n_star)
    elapsed = time.monotonic() - t0
    ok = (
        cert["leading_coefficient"] == Fraction(1, 9540)
        and cert["chain_floor"]["n"] == 20
        and cert["chain_floor"]["value_at_floor"] >= 6360 > cert["chain_floor"]["value_below"]
        and witness_real
        and confirm_universal_n(n_star, k3_limit=200)
        and c >= 25
        and trail["product_family_floor"]["satisfied"]
        and elapsed < 60
    )
    _report(8, "universal-n certified (lead 1/9540, chain floor 20, minimality) and c >= 25",
            ok, f"n*={n_star} c={c} in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 9. bound table regression
# ---------------------------------------------------------------------------

def test_criterion_09_bound_table_golden():
    import json
    from importlib import resources
    golden = json.loads(
        resources.files("autbounds.data").joinpath("golden_surface_bounds.json").read_text()
    )["body"]["entries"]
    mismatches = []
    for entry in golden:
        inv = surface_invariants_from_kv(entry["inputs"])
        res = surface_bound(inv)
        if jsonable(res.value) != entry["value"] or list(res.source) != entry["source"]:
            mismatches.append((entry["inputs"], jsonable(res.value), entry["value"]))
    expected_constants = {
        ("unit_k2", 270), ("low_k2", 422), ("low_k2", 622),
        ("mid_k2", 480), ("mid_k2", 7206),
        ("global_chi8", 3624),
        ("large_k2_small_pencils_controlled", 5056),
        ("canonical_image_surface", 4816),
        ("canonical_image_birational", 3618),
        ("double_pencil", 640),
        ("genus3_pencil", 544), ("genus4_pencil", 1104), ("genus5_pencil", 1936),
        ("canonical_pencil", 844), ("genus2_pencil", 725),
        ("even_surface", 2424), ("odd_complete_intersection", 3864),
        ("hypersurface_in_p3", 234), ("hypersurface_in_p3", 441),
    }
    seen = {(e["source"][0], e["value"]) for e in golden}
    ok = not mismatches and expected_constants <= seen
    _report(9, "surface bound table reproduces every printed constant (golden-exact)",
            ok, f"mismatches={mismatches}")


# ---------------------------------------------------------------------------
# 10. oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_10_oracle_equivalence():
    import random
    from tests_oracles import (  # local helpers below
        naive_arrangement_by_definition,
        naive_chain,
        naive_midpoints,
        naive_union_count,
    )
    rng = random.Random(MASTER_SEED)
    t0 = time.monotonic()
    checked = 0
    for _ in range(500):
        dim = rng.randint(1, 4)
        n = rng.randint(1, 50)
        pts = {tuple(rng.randint(-6, 6) for _ in range(dim)) for _ in range(n)}
        a = LatticeSet(pts, dim)
        b_pts = {tuple(rng.randint(-6, 6) for _ in range(dim))
                 for _ in range(rng.randint(1, 50))}
        b = LatticeSet(b_pts, dim)

        assert midpoint_count(a, b) == len(naive_midpoints(a, b))
        assert longest_chain(a) == naive_chain(a)
        axis = rng.randrange(dim)
        assert arrangement(a, axis) == naive_arrangement_by_definition(a, axis)
        sub = rng.sample(sorted(a), rng.randint(1, len(a)))
        a2 = LatticeSet(sub, dim)
        a1 = LatticeSet(rng.sample(sub, rng.randint(1, len(sub))), dim)
        assert union_midpoint_count(a1, a, a2) == naive_union_count(a1, a, a2)
        checked += 1
    elapsed = time.monotonic() - t0
    _report(10, "oracle equivalence on 500 random sets (<= 50 points)",
            checked == 500, f"{checked} sets in {elapsed:.1f}s")
