"""Independent naive oracles for the acceptance suite.

These re-derive each quantity straight from its definition with none of the
production shortcuts: rational mid-points instead of doubled encodings, an
all-pairs (start, step) walk for chains, a clause-by-clause membership
test for arrangement, automorphisms as element->element dicts filtered from
every tuple of generator images, and the closed-form count of Hillar & Rhea.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product

from autbounds.covers import FiniteAbelianGroup
from autbounds.lattice import LatticeSet


def naive_midpoints(a, b):
    return {
        tuple(Fraction(x + y, 2) for x, y in zip(p, q))
        for p in a for q in b
    }


def naive_union_count(a1, a3, a2):
    return len(naive_midpoints(a1, a3) | naive_midpoints(a2, a2))


def naive_chain(a):
    pts = set(a)
    if not pts:
        return 0
    best = 1
    for p in pts:
        for q in pts:
            if p == q:
                continue
            step = tuple(y - x for x, y in zip(p, q))
            length = 2
            cur = q
            while True:
                cur = tuple(x + d for x, d in zip(cur, step))
                if cur not in pts:
                    break
                length += 1
            best = max(best, length)
    return best


def naive_arrangement_by_definition(a, axis):
    pts = set(a)
    n = len(pts)
    candidates = {
        p[:axis] + (v,) + p[axis + 1:]
        for p in pts for v in range(n)
    }
    out = set()
    for cand in candidates:
        fiber = sum(
            1 for p in pts
            if all(p[j] == cand[j] for j in range(a.dim) if j != axis)
        )
        if cand[axis] >= 0 and fiber >= cand[axis] + 1:
            out.add(cand)
    return LatticeSet(out, a.dim)


@lru_cache(maxsize=None)
def naive_automorphisms(factors):
    """All automorphisms of Z/d1 x ... x Z/dm, as element->element dicts.

    Each tuple of candidate images of the standard generators (the i-th of
    order exactly d_i) defines a homomorphism; keep those that are bijective.
    """
    group = FiniteAbelianGroup(factors)
    elements = group.elements()
    candidates = [[x for x in elements if group.element_order(x) == d] for d in factors]
    auts = []
    for images in product(*candidates):
        table = {}
        for x in elements:
            acc = group.identity()
            for c, img in zip(x, images):
                acc = group.add(acc, group.scale(c, img))
            table[x] = acc
        if len(set(table.values())) == len(elements):
            auts.append(table)
    return tuple(auts)


def naive_canonical_branch(group, branch):
    """The least sorted image of the branch over every automorphism."""
    return min(tuple(sorted(aut[b] for b in branch))
               for aut in naive_automorphisms(group.invariant_factors))


def hillar_rhea_aut_order(factors):
    """|Aut(G)| in closed form (Hillar & Rhea, Amer. Math. Monthly 114, 2007).

    |Aut G| is the product over primes p of |Aut G_p|. For G_p the sum of
    Z/p^e_k with e_1 <= ... <= e_n, let d_k = max{l : e_l = e_k} and
    c_k = min{l : e_l = e_k}; then |Aut G_p| is the product over k of
    (p^d_k - p^(k-1)) * p^(e_k (n - d_k)) * p^((e_k - 1)(n - c_k + 1)).
    """
    exponents = {}
    for d in factors:
        p = 2
        while d > 1:
            e = 0
            while d % p == 0:
                d //= p
                e += 1
            if e:
                exponents.setdefault(p, []).append(e)
            p += 1
    total = 1
    for p, es in exponents.items():
        es.sort()
        n = len(es)
        for k, e in enumerate(es, start=1):
            d_k = max(l for l in range(1, n + 1) if es[l - 1] == e)
            c_k = min(l for l in range(1, n + 1) if es[l - 1] == e)
            total *= (p ** d_k - p ** (k - 1)) * p ** (e * (n - d_k)) * p ** ((e - 1) * (n - c_k + 1))
    return total
