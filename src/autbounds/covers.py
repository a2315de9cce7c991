"""Abelian covers of curves as pure combinatorial data.

A cover is (G, gamma, branch): a finite abelian group G given by invariant
factors, the quotient genus gamma, and a tuple of nonzero branch elements of
G. Everything geometric this lab needs — the genus of the total space, the
genus of intermediate quotients, hyperelliptic/bi-elliptic witnesses, and
exhaustive searches for covers beating a linear genus bound — is a function
of that datum.

Branch elements always sum to zero (the product-one relation survives
abelianization for every quotient genus); for gamma = 0 they must generate
G, for gamma >= 1 the deficit may be covered by at most 2*gamma handles,
i.e. G/<branch> needs at most 2*gamma generators.

Enumeration is complete by construction: group orders are capped by the
classical 4g+4 bound for abelian actions, gamma is capped by positivity of
the ramification identity, and each branch point adds at least 1/2 to the
degree sum, capping k.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product as iproduct
from math import gcd, lcm, prod
from typing import Iterator, Optional

import numpy as np

from .errors import InvariantViolation
from .reports import Check, HypothesisReport

Element = tuple[int, ...]


@dataclass(frozen=True, order=True)
class FiniteAbelianGroup:
    """Z/d1 x ... x Z/dm with the divisibility chain d1 | d2 | ... | dm."""

    invariant_factors: tuple[int, ...]

    def __post_init__(self):
        f = tuple(int(d) for d in self.invariant_factors)
        object.__setattr__(self, "invariant_factors", f)
        for d in f:
            if d < 2:
                raise InvariantViolation("invariant factors must be >= 2")
        for a, b in zip(f, f[1:]):
            if b % a != 0:
                raise InvariantViolation(f"invariant factors must form a divisibility chain, got {f}")

    @property
    def order(self) -> int:
        return prod(self.invariant_factors, start=1)

    @property
    def is_cyclic(self) -> bool:
        return len(self.invariant_factors) <= 1

    @property
    def exponent(self) -> int:
        return self.invariant_factors[-1] if self.invariant_factors else 1

    def identity(self) -> Element:
        return (0,) * len(self.invariant_factors)

    def elements(self) -> tuple[Element, ...]:
        return _elements(self.invariant_factors)

    def reduce(self, x) -> Element:
        return tuple(int(c) % d for c, d in zip(x, self.invariant_factors))

    def add(self, x: Element, y: Element) -> Element:
        return tuple((a + b) % d for a, b, d in zip(x, y, self.invariant_factors))

    def neg(self, x: Element) -> Element:
        return tuple((-a) % d for a, d in zip(x, self.invariant_factors))

    def scale(self, n: int, x: Element) -> Element:
        return tuple((n * a) % d for a, d in zip(x, self.invariant_factors))

    def element_order(self, x: Element) -> int:
        return lcm(*(d // gcd(a, d) for a, d in zip(x, self.invariant_factors))) if x else 1

    def subgroup(self, generators) -> frozenset[Element]:
        """Closure of the given elements (rejects non-elements)."""
        gens = [self.reduce(g) for g in generators]
        for g, raw in zip(gens, generators):
            if tuple(raw) != g:
                raise InvariantViolation(f"{raw} is not a reduced element of {self}")
        seen = {self.identity()}
        frontier = [self.identity()]
        while frontier:
            cur = frontier.pop()
            for g in gens:
                nxt = self.add(cur, g)
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return frozenset(seen)

    def generates(self, elements) -> bool:
        return len(self.subgroup(elements)) == self.order

    def involutions(self) -> tuple[Element, ...]:
        return tuple(x for x in self.elements() if self.element_order(x) == 2)

    def automorphisms(self) -> np.ndarray:
        """Aut(G) as rows of element indices; see :func:`_automorphisms`."""
        return _automorphisms(self.invariant_factors)

    def min_generators_of_quotient(self, subgroup: frozenset[Element]) -> int:
        """Minimal generating set size of G/H (the largest p-rank over p)."""
        q_order = self.order // len(subgroup)
        if q_order == 1:
            return 0
        cosets = _cosets(self, subgroup)
        rank = 0
        for p, _ in _factor(q_order):
            # p-rank of Q from |Q/pQ| = |Q| / |pQ|
            p_image = {cosets[self.scale(p, x)] for x in cosets}
            rank = max(rank, _log_exact(q_order // len(p_image), p))
        return rank

    def __str__(self):
        if not self.invariant_factors:
            return "trivial"
        return " x ".join(f"Z/{d}" for d in self.invariant_factors)


def _log_exact(n: int, p: int) -> int:
    e = 0
    while n % p == 0 and n > 1:
        n //= p
        e += 1
    return e


def _cosets(group: FiniteAbelianGroup, subgroup: frozenset[Element]) -> dict[Element, Element]:
    """Map each element to a canonical representative of its H-coset."""
    reps: dict[Element, Element] = {}
    for x in group.elements():
        if x in reps:
            continue
        coset = sorted(group.add(x, h) for h in subgroup)
        rep = coset[0]
        for y in coset:
            reps[y] = rep
    return reps


@lru_cache(maxsize=None)
def _elements(factors: tuple[int, ...]) -> tuple[Element, ...]:
    if not factors:
        return ((),)
    return tuple(iproduct(*(range(d) for d in factors)))


@lru_cache(maxsize=None)
def _index(factors: tuple[int, ...]) -> dict[Element, int]:
    """Element -> its position in elements(); integer order is tuple-lex order."""
    return {x: i for i, x in enumerate(_elements(factors))}


@lru_cache(maxsize=None)
def _automorphisms(factors: tuple[int, ...]) -> np.ndarray:
    """All automorphisms, as an int32 array of shape (|Aut G|, |G|).

    Row a sends the element of index j to the element of index a[j]; the
    index of an element is its position in elements(). An automorphism is
    fixed by the images y_i of the standard generators e_i, each of order
    exactly d_i. Backtracking over y_1, y_2, ... extends the image list of
    <e_1..e_i> in elements() order and drops a branch as soon as that list
    repeats an element, so the leaves are exactly the automorphisms, in the
    lex order of their generator images.

    The build costs |Aut(G)|*|G| table lookups. (Z/2)^5, with |Aut| =
    9,999,360, is the first group out of reach; an enumeration first needs
    it for a gamma = 0 datum with six involutions at genus 17.
    """
    elements = _elements(factors)
    index = _index(factors)
    group = FiniteAbelianGroup(factors)
    add = [[index[group.add(x, y)] for y in elements] for x in elements]
    multiples = [[index[group.scale(m, x)] for m in range(group.element_order(x))] for x in elements]
    candidates = [[y for y, ms in enumerate(multiples) if len(ms) == d] for d in factors]
    rows = []

    def extend(i: int, images: list[int]) -> None:
        if i == len(factors):
            rows.append(images)
            return
        for y in candidates[i]:
            image = [add[h][m] for h in images for m in multiples[y]]
            if len(set(image)) == len(image):
                extend(i + 1, image)

    extend(0, [0])
    return np.array(rows, dtype=np.int32)


def abelian_groups_of_order(n: int) -> tuple[FiniteAbelianGroup, ...]:
    """Every abelian group of order n, by invariant factors."""
    if n < 1:
        raise InvariantViolation("order must be positive")
    if n == 1:
        return (FiniteAbelianGroup(()),)
    factorization = _factor(n)
    per_prime = []
    for p, e in factorization:
        per_prime.append([tuple(p ** part for part in parts) for parts in _partitions(e)])
    groups = []
    for combo in iproduct(*per_prime):
        width = max(len(c) for c in combo)
        padded = [(1,) * (width - len(c)) + tuple(sorted(c)) for c in combo]
        invariant = tuple(prod(col) for col in zip(*padded))
        groups.append(FiniteAbelianGroup(tuple(d for d in invariant if d > 1)))
    return tuple(sorted(set(groups)))


def _factor(n: int) -> list[tuple[int, int]]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def _partitions(n: int) -> Iterator[tuple[int, ...]]:
    """Partitions of n as nondecreasing tuples."""
    def rec(remaining, minimum):
        if remaining == 0:
            yield ()
            return
        for part in range(minimum, remaining + 1):
            for rest in rec(remaining - part, part):
                yield (part,) + rest
    yield from rec(n, 1)


# ---------------------------------------------------------------------------
# cover data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoverDatum:
    """(group, quotient genus, branch elements); the branch tuple is stored
    sorted for a canonical look, with the product-one relation checked."""

    group: FiniteAbelianGroup
    quotient_genus: int
    branch: tuple[Element, ...]

    def __post_init__(self):
        g = self.group
        branch = tuple(sorted(g.reduce(b) for b in self.branch))
        object.__setattr__(self, "branch", branch)
        if self.quotient_genus < 0:
            raise InvariantViolation("quotient genus must be >= 0")
        ident = g.identity()
        if any(b == ident for b in branch):
            raise InvariantViolation("branch elements must be nonzero")
        total = ident
        for b in branch:
            total = g.add(total, b)
        if total != ident:
            raise InvariantViolation("branch elements must sum to zero")
        if self.quotient_genus == 0:
            if not g.generates(branch):
                raise InvariantViolation("branch elements must generate the group when the quotient genus is 0")
        else:
            need = g.min_generators_of_quotient(g.subgroup(branch))
            if need > 2 * self.quotient_genus:
                raise InvariantViolation(
                    "branch elements plus 2*gamma handle generators cannot generate the group"
                )

    @property
    def k(self) -> int:
        return len(self.branch)

    def signature(self) -> tuple[int, ...]:
        """Ramification indices r_1 >= r_2 >= ... >= r_k."""
        return tuple(sorted((self.group.element_order(b) for b in self.branch), reverse=True))

    def to_json_dict(self):
        return {
            "invariant_factors": list(self.group.invariant_factors),
            "gamma": self.quotient_genus,
            "branch": [list(b) for b in self.branch],
        }

    @classmethod
    def from_json_dict(cls, data) -> "CoverDatum":
        return cls(
            FiniteAbelianGroup(tuple(data["invariant_factors"])),
            data["gamma"],
            tuple(tuple(b) for b in data["branch"]),
        )


def _riemann_hurwitz(order: int, gamma: int, indices) -> Optional[int]:
    """Solve 2g - 2 = |G|(2*gamma - 2) + sum(|G| - |G|/r_i) in integers.

    Each r_i divides |G|, so 2g is an integer; when it is odd or negative no
    cover exists and the result is None.
    """
    twice_g = 2 + order * (2 * gamma - 2) + sum(order - order // r for r in indices)
    return twice_g // 2 if twice_g >= 0 and twice_g % 2 == 0 else None


def hurwitz_genus(datum: CoverDatum) -> Optional[int]:
    """Genus of the total space, or None when the datum is impossible."""
    return _riemann_hurwitz(datum.group.order, datum.quotient_genus, datum.signature())


def quotient_genus(datum: CoverDatum, subgroup_generators) -> int:
    """Genus of the intermediate quotient by H = <subgroup_generators>.

    Applies the ramification identity to the induced cover with group G/H:
    indices are the orders of branch images in G/H (trivial ones weigh 0).
    """
    g = datum.group
    sub = g.subgroup(subgroup_generators)
    gy = _riemann_hurwitz(g.order // len(sub), datum.quotient_genus,
                          [_image_order(g, sub, b) for b in datum.branch])
    if gy is None:
        raise InvariantViolation("the quotient by H has no genus; datum cannot be a cover")
    return gy


def _image_order(group: FiniteAbelianGroup, subgroup: frozenset[Element], x: Element) -> int:
    """Order of x + H in G/H: the least m >= 1 with m*x in H."""
    return next(m for m in range(1, group.element_order(x) + 1) if group.scale(m, x) in subgroup)


@dataclass(frozen=True)
class Order2Witness:
    generator: Element
    quotient_genus: int

    @property
    def kind(self) -> str:
        return "hyperelliptic" if self.quotient_genus == 0 else "bielliptic"

    def to_json_dict(self):
        return {"subgroup_generator": list(self.generator),
                "quotient_genus": self.quotient_genus, "kind": self.kind}


def hyperelliptic_witness(datum: CoverDatum,
                          max_quotient_genus: int = 1) -> Optional[Order2Witness]:
    """Scan order-2 subgroups for a quotient of genus <= max_quotient_genus.

    Genus 0 is a hyperelliptic witness, genus 1 a bi-elliptic one; the scan
    returns the witness of smallest quotient genus (ties broken by element
    order in the canonical enumeration), or None. Pass max_quotient_genus=0
    to ask only for hyperelliptic witnesses: the degree-16 plane-quartic
    datum has all three of its order-2 quotients of genus 1, so it yields a
    bi-elliptic witness at the default setting and None at 0.

    Witness semantics decide hyperellipticity only through subgroups of the
    acting group. Above the 3g+6 order threshold this is exact (see
    :func:`enumerate_extremal`); below it a hyperelliptic curve may carry an
    abelian action that misses the hyperelliptic involution, so a None there
    is only a heuristic.
    """
    best: Optional[Order2Witness] = None
    for x in datum.group.involutions():
        gy = quotient_genus(datum, [x])
        if gy <= max_quotient_genus and (best is None or gy < best.quotient_genus):
            best = Order2Witness(x, gy)
            if gy == 0:
                break
    return best


def order2_witnesses(datum: CoverDatum, max_quotient_genus: int = 1) -> tuple[Order2Witness, ...]:
    """All order-2 subgroup witnesses with quotient genus <= threshold."""
    out = []
    for x in datum.group.involutions():
        gy = quotient_genus(datum, [x])
        if gy <= max_quotient_genus:
            out.append(Order2Witness(x, gy))
    return tuple(sorted(out, key=lambda w: (w.quotient_genus, w.generator)))


# ---------------------------------------------------------------------------
# divisibility conditions for the quotient-genus-0 case
# ---------------------------------------------------------------------------

def lemma43_admissible(datum: CoverDatum, assume_cyclic: bool = False) -> HypothesisReport:
    """Divisibility constraints every genus-0-quotient abelian cover obeys.

    (i)   each m_j = prod of the other r_i is a multiple of |G|;
    (ii)  each prime dividing |G| divides at least two r_i;
    (iii) lcm(r_i) divides |G|;
    (iv)  [cyclic mode] |G| = lcm(r_i) and each maximal prime power p^t | |G|
          divides at least two r_i. With assume_cyclic the (iv) checks are
          evaluated for the given signature whether or not the group is
          cyclic; that is how the indispensability of cyclicity is exhibited.

    The conditions are necessary for existence, so a failing signature often
    has no realizing datum at all; :func:`lemma43_signature_checks` evaluates
    them from (|G|, signature) alone.
    """
    if datum.quotient_genus != 0:
        raise InvariantViolation("these conditions apply to quotient genus 0 only")
    return lemma43_signature_checks(datum.group.order, datum.signature(), assume_cyclic)


def lemma43_signature_checks(order: int, signature, assume_cyclic: bool = False) -> HypothesisReport:
    """The genus-0 divisibility checks as a function of |G| and (r_i)."""
    n = int(order)
    sig = tuple(sorted((int(r) for r in signature), reverse=True))
    if n < 1 or any(r < 2 for r in sig):
        raise InvariantViolation("order must be >= 1 and all indices >= 2")
    k = len(sig)
    checks = []
    all_products_ok = True
    detail = []
    for j in range(k):
        m_j = prod((sig[i] for i in range(k) if i != j), start=1)
        ok = m_j % n == 0
        all_products_ok = all_products_ok and ok
        if not ok:
            detail.append(f"m_{j + 1}={m_j}")
    checks.append(Check("complementary_products_divisible", all_products_ok,
                        "; ".join(detail) or f"all m_j divisible by {n}"))
    primes = [p for p, _ in _factor(n)]
    cond2 = all(sum(1 for r in sig if r % p == 0) >= 2 for p in primes)
    checks.append(Check("each_prime_in_two_indices", cond2, primes))
    l = lcm(*sig) if sig else 1
    checks.append(Check("lcm_divides_order", n % l == 0, f"lcm={l}"))
    if assume_cyclic:
        checks.append(Check("cyclic_order_equals_lcm", n == l, f"lcm={l} order={n}"))
        cond4 = all(
            sum(1 for r in sig if r % (p ** e) == 0) >= 2 for p, e in _factor(n)
        )
        checks.append(Check("cyclic_prime_powers_in_two_indices", cond4,
                            [f"{p}^{e}" for p, e in _factor(n)]))
    return HypothesisReport("genus0-divisibility", tuple(checks))


# ---------------------------------------------------------------------------
# canonical forms and enumeration
# ---------------------------------------------------------------------------

def canonical_branch(group: FiniteAbelianGroup, branch: tuple[Element, ...]) -> tuple[Element, ...]:
    """Lexicographically least image of the branch multiset under Aut(G)."""
    index = _index(group.invariant_factors)
    images = np.sort(group.automorphisms()[:, [index[b] for b in branch]], axis=1)
    for col in range(images.shape[1]):
        images = images[images[:, col] == images[:, col].min()]
    elements = group.elements()
    return tuple(elements[i] for i in images[0])


@dataclass(frozen=True)
class LinearBound:
    """A linear form a*g + b used as a strict threshold on |G|."""

    a: Fraction
    b: Fraction
    text: str

    def value(self, genus: int) -> Fraction:
        return self.a * genus + self.b

    @classmethod
    def parse(cls, text: str) -> "LinearBound":
        head, g, tail = text.replace(" ", "").partition("g")
        try:
            if not g:
                raise ValueError
            a = Fraction(head) if head not in ("", "+", "-") else Fraction(head + "1")
            b = Fraction(tail) if tail else Fraction(0)
        except ValueError:
            raise InvariantViolation(f"--bound {text!r} must be linear in g, like '3g+6'") from None
        return cls(a, b, text)


@dataclass(frozen=True)
class EnumerationRecord:
    """One cover class exceeding the tested bound."""

    datum: CoverDatum
    genus: int
    bound_tested: str
    exceeds: bool
    witnesses: tuple[Order2Witness, ...]

    @property
    def order(self) -> int:
        return self.datum.group.order

    @property
    def signature_tuple(self):
        """(g, |G|, k, (r_1, ..., r_k)) as printed in reference tables."""
        return (self.genus, self.order, self.datum.k, self.datum.signature())

    def to_json_dict(self):
        d = self.datum.to_json_dict()
        d.update({
            "genus": self.genus,
            "order": self.order,
            "signature": list(self.datum.signature()),
            "k": self.datum.k,
            "bound_tested": self.bound_tested,
            "exceeds": self.exceeds,
            "witnesses": [w.to_json_dict() for w in self.witnesses],
        })
        return d


def branch_data_for(group: FiniteAbelianGroup, gamma: int, genus: int,
                    k_min: int = 0) -> list[CoverDatum]:
    """All covers (up to Aut(G)) with the given group, quotient genus, genus.

    Exhausts multisets of nonzero elements with the exact degree-sum target,
    then filters by the sum-zero and generation conditions. The degree sum is
    scaled by |G|: an element of order r weighs |G| - |G|/r (an integer, as r
    divides |G|) and the target is (2g - 2) - |G|(2*gamma - 2).
    """
    n = group.order
    target = (2 * genus - 2) - n * (2 * gamma - 2)
    if target < 0:
        return []
    elements = [e for e in group.elements() if e != group.identity()]
    elements.sort(key=lambda e: (group.element_order(e), e))
    weights = [n - n // group.element_order(e) for e in elements]
    found: dict[tuple, CoverDatum] = {}

    def rec(start: int, remaining: int, chosen: list[Element]):
        if remaining == 0:
            if len(chosen) < k_min:
                return
            total = group.identity()
            for c in chosen:
                total = group.add(total, c)
            if total != group.identity():
                return
            if gamma == 0:
                if not group.generates(chosen):
                    return
            elif group.min_generators_of_quotient(group.subgroup(chosen)) > 2 * gamma:
                return
            datum = CoverDatum(group, gamma, tuple(chosen))
            found.setdefault(canonical_branch(group, datum.branch), datum)
            return
        if 2 * remaining < n:  # every weight is at least |G|/2
            return
        for i in range(start, len(elements)):
            if weights[i] > remaining:  # weights ascend with the order
                break
            chosen.append(elements[i])
            rec(i, remaining - weights[i], chosen)
            chosen.pop()

    rec(0, target, [])
    out = list(found.values())
    out.sort(key=lambda d: (d.signature(), d.branch))
    return out


def enumerate_extremal(genus_range, bound: LinearBound,
                       gamma: Optional[int] = None,
                       k_min: int = 0,
                       require_no_hyperelliptic_witness: bool = False,
                       assume_cyclic: bool = False) -> list[EnumerationRecord]:
    """All abelian cover classes with genus in range and |G| strictly above
    the bound, subject to the filters. Complete: 4g+4 caps the order, the
    ramification identity caps gamma and k.

    Why require_no_hyperelliptic_witness is an exact filter above 3g+6: the
    hyperelliptic involution of a hyperelliptic curve is unique, hence
    commutes with every automorphism. If the acting abelian group G missed
    it, G together with the involution would be abelian of order
    2|G| > 2(3g+6) > 4g+4, beating the order ceiling for abelian actions.
    So any extremal datum on a hyperelliptic curve contains the involution
    as a branch-stabilizer, and the order-2 quotient scan finds its genus-0
    quotient; dropping data with a genus-0 witness removes exactly the
    hyperelliptic curves. (Below the threshold the same filter is only a
    heuristic.)
    """
    genus_list = list(genus_range)
    records = []
    for genus in genus_list:
        if genus < 2:
            continue
        threshold = bound.value(genus)
        for order in range(2, 4 * genus + 4 + 1):
            if Fraction(order) <= threshold:
                continue
            gamma_cap = (genus - 1) // order + 1
            for gm in range(0, gamma_cap + 1):
                if gamma is not None and gm != gamma:
                    continue
                for group in abelian_groups_of_order(order):
                    if assume_cyclic and not group.is_cyclic:
                        continue
                    for datum in branch_data_for(group, gm, genus, k_min=k_min):
                        g_check = hurwitz_genus(datum)
                        if g_check != genus:
                            raise AssertionError("enumeration produced a genus mismatch")
                        if require_no_hyperelliptic_witness and \
                                hyperelliptic_witness(datum, max_quotient_genus=0) is not None:
                            continue
                        records.append(EnumerationRecord(
                            datum=datum,
                            genus=genus,
                            bound_tested=bound.text,
                            exceeds=True,
                            witnesses=order2_witnesses(datum, max_quotient_genus=1),
                        ))
    records.sort(key=lambda r: (r.genus, r.order, r.datum.signature(), r.datum.branch))
    return records


def signature_table(records) -> list[tuple]:
    """Distinct (g, |G|, k, signature) tuples, sorted."""
    return sorted({r.signature_tuple for r in records})


def compare_signatures(records, reference) -> dict:
    """Found-vs-reference comparison; discrepancies are reported, never
    reconciled. `reference` is an iterable of (g, order, k, signature)."""
    found = signature_table(records)
    ref = sorted(tuple((g, n, k, tuple(sig)) for g, n, k, sig in reference))
    found_set, ref_set = set(found), set(ref)
    return {
        "found": found,
        "reference": ref,
        "matched": sorted(found_set & ref_set),
        "missing_from_found": sorted(ref_set - found_set),
        "extra_beyond_reference": sorted(found_set - ref_set),
        "agrees": found_set == ref_set,
    }


# Reference tables the enumeration is checked against. Discrepancies found
# by the exhaustive search are flagged findings, not silently reconciled.
FERMAT_REFERENCE = (
    (3, 16, 3, (4, 4, 4)),
    (6, 25, 3, (5, 5, 5)),
)

VARIABLE_MODULI_REFERENCE = (
    (5, 16, 5, (2, 2, 2, 2, 2)),
    (4, 10, 4, (5, 5, 2, 2)),
    (6, 16, 4, (8, 4, 2, 2)),
    (4, 12, 4, (6, 3, 2, 2)),
    (3, 8, 4, (4, 4, 2, 2)),
)


# ---------------------------------------------------------------------------
# the cyclic-cover family hitting 3g+6 for every m
# ---------------------------------------------------------------------------

def example_family_49(m: int) -> CoverDatum:
    """Genus-0 quotient cover with G = Z/3 x Z/3m, signature (3m, 3m, 3).

    The total space has genus 3m-2 and |G| = 9m = 3*(3m-2)+6, so the family
    meets the 3g+6 ceiling exactly for every m >= 2. The branch triple is
    ((0,1), (2,3m-1), (1,0)): orders 3m, 3m, 3, summing to zero and
    generating. (The signature is pinned down by the enumeration: it is the
    only one compatible with this group and genus.)
    """
    if m < 2:
        raise InvariantViolation("the family needs m >= 2")
    group = FiniteAbelianGroup((3, 3 * m))
    branch = ((0, 1), (2, 3 * m - 1), (1, 0))
    return CoverDatum(group, 0, branch)


# ---------------------------------------------------------------------------
# serialization of record lists
# ---------------------------------------------------------------------------

def records_to_json(records) -> list:
    return [r.to_json_dict() for r in records]


def records_from_json(data) -> list[EnumerationRecord]:
    out = []
    for d in data:
        datum = CoverDatum.from_json_dict(d)
        out.append(EnumerationRecord(
            datum=datum,
            genus=d["genus"],
            bound_tested=d["bound_tested"],
            exceeds=d["exceeds"],
            witnesses=tuple(Order2Witness(tuple(w["subgroup_generator"]), w["quotient_genus"])
                            for w in d["witnesses"]),
        ))
    return out
