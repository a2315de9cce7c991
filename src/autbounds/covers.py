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

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product as iproduct
from math import gcd, lcm, prod
from typing import Iterator, Optional

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
        elements, gens = self.elements(), _indices(self, generators)
        return frozenset(elements[i] for i in _closure(self.invariant_factors, gens))

    def generates(self, elements) -> bool:
        return len(_closure(self.invariant_factors, _indices(self, elements))) == self.order

    def involutions(self) -> tuple[Element, ...]:
        return tuple(x for x in self.elements() if self.element_order(x) == 2)

    def automorphisms(self):
        """Aut(G) as int32 rows, sorted: row a sends the element of index j to
        the element of index a[j]. It is the closure of the identity row under
        :func:`_aut_generators`; the enumeration never builds it."""
        import numpy as np  # here only, so that covers loads without numpy
        rows = _orbit(self.invariant_factors, range(self.order), keep_positions=True)
        return np.array(sorted(rows), dtype=np.int32)

    def min_generators_of_quotient(self, subgroup: frozenset[Element]) -> int:
        """Minimal generating set size of G/H (the largest p-rank over p)."""
        return _quotient_rank(self.invariant_factors, _indices(self, subgroup))

    def __str__(self):
        if not self.invariant_factors:
            return "trivial"
        return " x ".join(f"Z/{d}" for d in self.invariant_factors)


def _indices(group: FiniteAbelianGroup, elements) -> list[int]:
    """The element indices of reduced elements of the group (rejects the rest)."""
    index = _index(group.invariant_factors)
    try:
        return [index[tuple(x)] for x in elements]
    except KeyError as exc:
        raise InvariantViolation(f"{exc.args[0]} is not a reduced element of {group}") from None


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
def _addition_table(factors: tuple[int, ...]) -> list[list[int]]:
    """The index of x + y at [x][y], for element indices x and y, as row lists.
    Indices are mixed-radix numbers in elements() order, so with one factor d
    more, x*d + a and y*d + b add to table[x][y]*d + (a + b) % d; () gives [[0]]."""
    table = [[0]]
    for d in factors:
        rotations = [[(a + b) % d for b in range(d)] for a in range(d)]
        table = [[s * d + c for s in row for c in rot] for row in table for rot in rotations]
    return table


@lru_cache(maxsize=None)
def _multiples(factors: tuple[int, ...]) -> list[list[int]]:
    """Entry x lists the indices of 0, x, 2x, ..., so its length is the order of x."""
    add = _addition_table(factors)
    out = []
    for x in range(len(add)):
        ms = [0]
        while add[ms[-1]][x]:
            ms.append(add[ms[-1]][x])
        out.append(ms)
    return out


def _closure(factors: tuple[int, ...], gens) -> set[int]:
    """The subgroup generated by the element indices gens, as an index set,
    one generator at a time: <H, g> = {h + m*g : h in H, 0 <= m < order(g)}."""
    add, multiples = _addition_table(factors), _multiples(factors)
    sub = {0}
    for g in gens:
        if g not in sub:
            sub = {add[h][m] for h in sub for m in multiples[g]}
    return sub


def _quotient_rank(factors: tuple[int, ...], gens) -> int:
    """The least number of generators of Q = G/H for H = <gens>.

    That is the largest p-rank of Q over the primes p dividing |Q|. The
    p-rank r has p^r = |Q/pQ| = |G| / |H + pG|, and H + pG is generated by
    gens and the p-multiples of every element.
    """
    n, multiples = prod(factors, start=1), _multiples(factors)
    rank = 0
    for p, _ in _factor(n // len(_closure(factors, gens))):
        p_multiples = [ms[p % len(ms)] for ms in multiples]
        [(_, r)] = _factor(n // len(_closure(factors, [*gens, *p_multiples])))
        rank = max(rank, r)
    return rank


def _unit_generators(d: int) -> list[int]:
    """Generators of the units mod d: each the least unit outside the group of those before it."""
    gens, sub = [], {1}
    for u in range(2, d):
        if gcd(u, d) == 1 and u not in sub:
            gens.append(u)
            sub = {s * pow(u, k, d) % d for s in sub for k in range(d)}
    return gens


@lru_cache(maxsize=None)
def _aut_generators(factors: tuple[int, ...]) -> list[list[int]]:
    """A generating set of Aut(G), each generator as the images of the element indices.

    For invariant factors d_1 | ... | d_m these are the unit scalings
    e_i -> u*e_i (u in `_unit_generators(d_i)`) and the transvections
    e_i -> e_i + c*e_j (i != j), where c = d_j / gcd(d_i, d_j) is the least c
    that keeps the order of e_i. The tests check that they generate a group
    of the order C. J. Hillar and D. L. Rhea (Amer. Math. Monthly, 2007) give.
    """
    elements, index = _elements(factors), _index(factors)

    def image(x: Element, j: int, value: int) -> int:
        return index[x[:j] + (value % factors[j],) + x[j + 1:]]

    scalings = [[image(x, i, u * x[i]) for x in elements]
                for i, d in enumerate(factors) for u in _unit_generators(d)]
    transvections = [[image(x, j, x[j] + dj // gcd(di, dj) * x[i]) for x in elements]
                     for i, di in enumerate(factors) for j, dj in enumerate(factors) if i != j]
    return scalings + transvections


def _orbit(factors: tuple[int, ...], start, keep_positions: bool = False) -> set[tuple[int, ...]]:
    """The closure of the index tuple start under :func:`_aut_generators`.
    Images are sorted, so a multiset's orbit is a set of sorted tuples; with
    keep_positions the closure of the identity row is all of Aut(G)."""
    gens = _aut_generators(factors)
    image = tuple if keep_positions else (lambda xs: tuple(sorted(xs)))
    orbit = frontier = {image(start)}
    while frontier:
        frontier = {image([g[i] for i in x]) for x in frontier for g in gens} - orbit
        orbit = orbit | frontier
    return orbit


@lru_cache(maxsize=None)
def _pool(factors: tuple[int, ...]) -> list[int]:
    """The nonzero element indices by (order, index), as :func:`branch_data_for` picks them."""
    multiples = _multiples(factors)
    return sorted(range(1, len(multiples)), key=lambda i: (len(multiples[i]), i))


@lru_cache(maxsize=None)
def _root_positions(factors: tuple[int, ...]) -> list[int]:
    """The pool positions that are least in their own Aut(G) orbit on elements,
    ascending; each orbit is the closure of one element under :func:`_aut_generators`."""
    gens, covered, roots = _aut_generators(factors), set(), []
    for p, x in enumerate(_pool(factors)):
        if x not in covered:
            roots.append(p)
            orbit = frontier = {x}
            while frontier:
                frontier = {g[y] for y in frontier for g in gens} - orbit
                orbit = orbit | frontier
            covered |= orbit
    return roots


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
    _signature: Optional[tuple[int, ...]] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        g = self.group
        branch = tuple(sorted(g.reduce(b) for b in self.branch))
        object.__setattr__(self, "branch", branch)
        if self.quotient_genus < 0:
            raise InvariantViolation("quotient genus must be >= 0")
        fault = _branch_fault(g.invariant_factors, self.quotient_genus, _indices(g, branch))
        if fault:
            raise InvariantViolation(fault)

    @property
    def k(self) -> int:
        return len(self.branch)

    def signature(self) -> tuple[int, ...]:
        """Ramification indices r_1 >= r_2 >= ... >= r_k, computed once, on
        first use: a cover search reads them five times per datum."""
        if self._signature is None:
            object.__setattr__(self, "_signature", tuple(sorted(
                (self.group.element_order(b) for b in self.branch), reverse=True)))
        return self._signature

    def to_json_dict(self):
        return {
            "invariant_factors": list(self.group.invariant_factors),
            "gamma": self.quotient_genus,
            "branch": [list(b) for b in self.branch],
        }


def _branch_fault(factors: tuple[int, ...], gamma: int, branch) -> Optional[str]:
    """Why nonzero-ness, sum zero or generation fails for the branch indices, or None."""
    if 0 in branch:
        return "branch elements must be nonzero"
    add, total = _addition_table(factors), 0
    for b in branch:
        total = add[total][b]
    if total:
        return "branch elements must sum to zero"
    if gamma == 0:
        if len(_closure(factors, branch)) < prod(factors, start=1):
            return "branch elements must generate the group when the quotient genus is 0"
    elif _quotient_rank(factors, branch) > 2 * gamma:
        return "branch elements plus 2*gamma handle generators cannot generate the group"
    return None


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
    sub = _closure(g.invariant_factors, _indices(g, subgroup_generators))
    multiples = _multiples(g.invariant_factors)
    # b + H has order |<b>| / |<b> & H|
    image_orders = [len(multiples[b]) // sum(m in sub for m in multiples[b])
                    for b in _indices(g, datum.branch)]
    gy = _riemann_hurwitz(g.order // len(sub), datum.quotient_genus, image_orders)
    if gy is None:
        raise InvariantViolation("the quotient by H has no genus; datum cannot be a cover")
    return gy


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


def order2_witnesses(datum: CoverDatum, max_quotient_genus: int = 1) -> tuple[Order2Witness, ...]:
    """All order-2 subgroup witnesses with quotient genus <= threshold,
    ordered by quotient genus, then by generator."""
    out = []
    for x in datum.group.involutions():
        gy = quotient_genus(datum, [x])
        if gy <= max_quotient_genus:
            out.append(Order2Witness(x, gy))
    return tuple(sorted(out, key=lambda w: (w.quotient_genus, w.generator)))


def hyperelliptic_witness(datum: CoverDatum,
                          max_quotient_genus: int = 1) -> Optional[Order2Witness]:
    """The first of :func:`order2_witnesses`, or None.

    Genus 0 is a hyperelliptic witness, genus 1 a bi-elliptic one; this is
    the witness of smallest quotient genus (ties broken by element order in
    the canonical enumeration). Pass max_quotient_genus=0
    to ask only for hyperelliptic witnesses: the degree-16 plane-quartic
    datum has all three of its order-2 quotients of genus 1, so it yields a
    bi-elliptic witness at the default setting and None at 0.

    Witness semantics decide hyperellipticity only through subgroups of the
    acting group. Above the 3g+6 order threshold this is exact (see
    :func:`enumerate_extremal`); below it a hyperelliptic curve may carry an
    abelian action that misses the hyperelliptic involution, so a None there
    is only a heuristic.
    """
    witnesses = order2_witnesses(datum, max_quotient_genus)
    return witnesses[0] if witnesses else None


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
    products = [prod(sig[:j] + sig[j + 1:]) for j in range(len(sig))]
    detail = [f"m_{j + 1}={m_j}" for j, m_j in enumerate(products) if m_j % n]
    checks = [Check("complementary_products_divisible", not detail,
                    "; ".join(detail) or f"all m_j divisible by {n}")]
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
    least = min(_orbit(group.invariant_factors, _indices(group, branch)))
    return tuple(group.elements()[i] for i in least)


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
        except (ValueError, ZeroDivisionError):
            raise InvariantViolation(f"--bound {text!r} must be linear in g with nonzero "
                                     "denominators, like '3g+6'") from None
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

    The degree sum is scaled by |G|: an element of order r weighs
    |G| - |G|/r (an integer, as r divides |G|) and the target is
    (2g - 2) - |G|(2*gamma - 2). A depth-first search over element indices,
    ordered by (order, index) so that weights ascend, picks multisets with
    that weight and carries their sum. Every weight is at least |G|/2, so it
    descends only while at least |G|/2 of the target is left; the one element
    that can then close a branch is minus the running sum, and it is a leaf
    when it comes no earlier than the last pick and weighs exactly what is
    left. Those leaves are the weight-exact, sum-zero multisets, in the
    search's lex order; a target of 0 is the one empty leaf (k = 0).

    Aut(G) keeps elements nonzero, sums zero and generation intact, so the
    leaves fall into whole orbits. The first leaf of an orbit that passes
    the generation test becomes the class's datum, and its :func:`_orbit`, a
    set of sorted index tuples, joins `seen`; later leaves in it are skipped.

    Root rule: the first pick is one of :func:`_root_positions`, least in
    its Aut(G) orbit. Picks ascend, so it is the leaf's least position; an
    automorphism that lowers it maps the leaf to a lex-smaller leaf of the
    same size, reached first, so the leaf cannot be its class's datum.
    """
    n = group.order
    target = (2 * genus - 2) - n * (2 * gamma - 2)
    if target < 0:
        return []
    factors, elements = group.invariant_factors, group.elements()
    add, multiples, pool = _addition_table(factors), _multiples(factors), _pool(factors)
    weights = [n - n // len(multiples[i]) for i in pool]
    position = {x: p for p, x in enumerate(pool)}
    closer = [position.get(row.index(0), -1) for row in add]  # where -x sits; -1 for x = 0
    seen, found = set(), []  # sorted index tuples, CoverDatum

    def leaf(chosen: tuple[int, ...]):
        idx = tuple(sorted(chosen))
        if len(idx) < k_min or idx in seen:
            return
        if _branch_fault(factors, gamma, idx) is None:
            found.append(CoverDatum(group, gamma, tuple(elements[i] for i in idx)))
            seen.update(_orbit(factors, idx))

    def rec(picks, remaining: int, total: int, chosen: tuple[int, ...]):
        row = add[total]
        for p in picks:
            left = remaining - weights[p]
            if 2 * left < n:  # weights ascend
                break
            below = row[pool[p]]
            if 2 * (left - weights[p]) >= n:  # else no further pick fits
                rec(range(p, len(pool)), left, below, chosen + (pool[p],))
            last = closer[below]  # -1 when the sum is already zero
            if last >= p and weights[last] == left:
                leaf(chosen + (pool[p], pool[last]))

    if target == 0:
        leaf(())
    else:
        rec(_root_positions(factors), target, 0, ())  # the root rule above
    found.sort(key=lambda d: (d.signature(), d.branch))
    return found


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
    records = []
    for genus in genus_range:
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
                        witnesses = order2_witnesses(datum, max_quotient_genus=1)
                        if require_no_hyperelliptic_witness and witnesses \
                                and witnesses[0].quotient_genus == 0:
                            continue
                        records.append(EnumerationRecord(
                            datum=datum,
                            genus=genus,
                            bound_tested=bound.text,
                            exceeds=True,
                            witnesses=witnesses,
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

