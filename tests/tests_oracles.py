"""Independent naive oracles for the acceptance suite.

These re-derive each quantity straight from its definition with none of the
production shortcuts: rational mid-points instead of doubled encodings, sets
of tuple sums for pair sums and the closed form of two product boxes' sum
box, an all-pairs (start, step) walk for chains, `itertools.product` boxes
and a clause-by-clause filter for the chain scan's direction shells, a
clause-by-clause membership test for arrangement, the staircase predicate
`naive_staircase` as a whole-box check (the box between the origin and each
point lies in the set), barycentric weights of every affinely independent
subset of at most d+1 points (Caratheodory) for hull membership, a
point-by-point gauge and box scan for the convex generator, one `randint`
per coordinate with tuple lists,
a set comprehension and `sorted` for rule 2.4's draw, automorphisms
as element->element dicts filtered from every tuple of generator images,
element orbits told apart by which multiples lie in which multiple subgroups,
subgroups by breadth-first search on tuples, quotient ranks as the fewest
extra generators, every weight-exact multiset for the cover classes, the
closed-form count of Hillar & Rhea, and a level-by-level scan for the
universal level n*.
"""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, count, product
from math import prod

from autbounds import bounds, lemmas
from autbounds.covers import CoverDatum, FiniteAbelianGroup
from autbounds.lattice import ConvexTriple, LatticeSet


def naive_midpoints(a, b):
    return {
        tuple(Fraction(x + y, 2) for x, y in zip(p, q))
        for p in a for q in b
    }


def naive_union_count(a1, a3, a2):
    return len(naive_midpoints(a1, a3) | naive_midpoints(a2, a2))


def naive_sum_count(pairs):
    """#{p + q : p in a, q in b, (a, b) in pairs}, one tuple sum at a time."""
    return len({tuple(x + y for x, y in zip(p, q)) for a, b in pairs for p in a for q in b})


def box_sum_count(sides_a, sides_b):
    """#(A + B) of two product boxes with these sides: the sum of two boxes
    is the box whose side along each axis is s + t - 1."""
    return prod(s + t - 1 for s, t in zip(sides_a, sides_b))


def naive_rank(rows):
    """Rank over Q by Gaussian elimination on Fractions."""
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][col] != 0:
                f = m[i][col] / m[rank][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def naive_in_hull(point, pts):
    """Caratheodory: `point` lies in conv(pts) iff it is a convex combination
    of some affinely independent subset of at most d+1 of the points."""
    pts = sorted(set(map(tuple, pts)))
    for k in range(1, min(len(pts), len(point) + 1) + 1):
        for subset in combinations(pts, k):
            weights = naive_barycentric(point, subset)
            if weights is not None and min(weights) >= 0:
                return True
    return False


def naive_barycentric(point, subset):
    """The weights w with sum w_i s_i = point and sum w_i = 1, by Gauss-Jordan
    elimination on Fractions; None when the subset is affinely dependent or
    no such weights exist. Independence makes the weights unique."""
    k = len(subset)
    m = [[Fraction(s[c]) for s in subset] + [Fraction(point[c])] for c in range(len(point))]
    m.append([Fraction(1)] * (k + 1))
    for col in range(k):
        pivot = next((i for i in range(col, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        piv = m[col][col]
        m[col] = [x / piv for x in m[col]]
        for i in range(len(m)):
            if i != col and m[i][col] != 0:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[col])]
    if any(row[-1] != 0 for row in m[k:]):
        return None
    return [m[i][-1] for i in range(k)]


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


def naive_centred_box(radii):
    """The points of the box of [-r, r] over the radii, in lex order."""
    return [list(p) for p in product(*(range(-r, r + 1) for r in radii))]


def naive_shell_directions(caps, prev):
    """The directions of the box `caps` outside the box `prev`, one of each
    +/- pair (its first nonzero entry positive), in lex order."""
    return [d for d in naive_centred_box(caps)
            if any(abs(x) > p for x, p in zip(d, prev))
            and next(x for x in d if x) > 0]


def scalar_gauge_triple(rng, dim, size_target, shape, ratios):
    """The convex generator's gauge draw, one point and one Python int at a time.

    Same signature and random-number use as `lemmas._gauge_triple`: the box
    around the centre widens until the sublevel set of the wanted size is
    closed inside it, and the three sets are the points at or below the
    gauge value of the a3, a2 and a1 size ranks.
    """
    if shape == "auto":
        shape = rng.choice(("ellipsoid", "ellipsoid", "box"))
    center = tuple(rng.choice((-1, 0, 0, 1)) for _ in range(dim))
    if shape == "ellipsoid":
        m = [[rng.choice((-1, 0, 0, 0, 1)) for _ in range(dim)] for _ in range(dim)]
        k = rng.randint(1, 3)
        quad = [[sum(m[r][i] * m[r][j] for r in range(dim)) + (k if i == j else 0)
                 for j in range(dim)] for i in range(dim)]

        def gauge(p):
            v = [2 * c - o for c, o in zip(p, center)]
            return sum(quad[i][j] * v[i] * v[j] for i in range(dim) for j in range(dim))

        desc = f"ellipsoid quad={quad} center/2={center}"
    else:
        weights = tuple(rng.randint(2, 4) for _ in range(dim))

        def gauge(p):
            return max(w * abs(2 * c - o) for w, c, o in zip(weights, p, center))

        desc = f"box weights={weights} center/2={center}"

    pts, vals = naive_scan_sublevel(gauge, dim, center, size_target)
    order = sorted(range(len(pts)), key=lambda i: (vals[i], pts[i]))
    f2 = rng.uniform(*(ratios[0:2] if ratios else (0.55, 0.92)))
    f1 = rng.uniform(0.12, 0.45) if not ratios or len(ratios) < 3 else ratios[2]
    size3 = min(size_target, len(pts))
    size2 = max(dim + 2, int(round(f2 * size3)))
    size1 = max(dim + 2, int(round(f1 * size3)))
    sets = {}
    for name, size in (("a3", size3), ("a2", min(size2, size3)), ("a1", min(size1, size3))):
        thr = vals[order[size - 1]]
        sets[name] = LatticeSet([pts[i] for i in order if vals[i] <= thr], dim)
    a1, a2, a3 = sets["a1"], sets["a2"], sets["a3"]
    return ConvexTriple(a1, a2, a3, witness_regions=f"{desc} sizes={len(a1)},{len(a2)},{len(a3)}")


def naive_scan_sublevel(gauge, dim, center, size_target):
    """The gauge draw's box scan, one point at a time: the box of half-width
    w around center // 2 widens until the size_target-th least gauge value
    strictly inside it is below every value on its boundary. Returns the
    inner points as tuples in lex order and their values, the gauge taking
    a point p (not 2p - center)."""
    for w in range(2, 24):
        lo = [center[c] // 2 - w for c in range(dim)]
        hi = [center[c] // 2 + w for c in range(dim)]
        if (2 * w + 1) ** dim > 400_000:
            raise lemmas._Degenerate
        pts, vals, boundary_min = [], [], None
        for p in product(*[range(l, h + 1) for l, h in zip(lo, hi)]):
            g = gauge(p)
            if any(p[c] in (lo[c], hi[c]) for c in range(dim)):
                boundary_min = g if boundary_min is None else min(boundary_min, g)
            else:
                pts.append(p)
                vals.append(g)
        if len(pts) >= size_target and boundary_min > sorted(vals)[size_target - 1]:
            return pts, vals
    raise lemmas._Degenerate


def naive_nested_levels(dim, size, seed):
    """Rule 2.4's draw, one `rng.randint` per coordinate: A3 as sorted point
    tuples and a level per point (1 in A1, 2 in A2 - A1, 3 in the rest).

    Same random-number use as `lemmas.generate_nested_sets`: 4 * size box
    points, A3 the first max(size, 3) of `list({p for p in box})` (two
    fixed points when fewer than 3 are distinct), then A2 and A1 sampled as
    positions in the sorted A3 and in A2's sample.
    """
    rng = random.Random(seed)
    side = max(3, round((2.5 * size) ** (1.0 / dim)) + 1)
    box = [tuple(rng.randint(-2, side - 2) for _ in range(dim)) for _ in range(4 * size)]
    a3_pts = list({p for p in box})[: max(size, 3)]
    if len(a3_pts) < 3:
        a3_pts = [tuple(0 for _ in range(dim)), tuple(1 for _ in range(dim))]
    n3 = len(a3_pts)
    k2 = max(2, int(round(rng.uniform(0.4, 0.9) * n3)))
    in2 = rng.sample(range(n3), k2)
    k1 = max(1, int(round(rng.uniform(0.3, 0.9) * k2)))
    level = [3] * n3
    for i in in2:
        level[i] = 2
    for i in rng.sample(range(k2), k1):
        level[in2[i]] = 1
    return sorted(a3_pts), level


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


def naive_staircase(a):
    """A staircase (lower) set: every point is nonnegative and the whole box
    between the origin and it lies in the set."""
    pts = set(a)
    return all(
        min(p) >= 0 and all(q in pts for q in product(*(range(c + 1) for c in p)))
        for p in pts
    )


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


def naive_element_orbit_keys(group):
    """Element -> an Aut(G)-invariant that tells the element orbits apart:
    the pairs (m, h) of divisors of exp(G) with m*x in h*G, by brute force.

    On a p-group these pairs give the order of x and the heights of x, px,
    p^2x, ..., and two elements of a finite abelian p-group with the same
    heights are automorphic (Kaplansky, Infinite Abelian Groups, 1954). Both
    sides split over the p-parts, as Aut(G) is the product of the Aut(G_p).
    """
    exp = group.exponent
    divisors = [d for d in range(1, exp + 1) if exp % d == 0]
    images = {h: {group.scale(h, y) for y in group.elements()} for h in divisors}
    return {x: frozenset((m, h) for m in divisors for h in divisors
                         if group.scale(m, x) in images[h])
            for x in group.elements()}


def naive_canonical_branch(group, branch):
    """The least sorted image of the branch over every automorphism."""
    return min(tuple(sorted(aut[b] for b in branch))
               for aut in naive_automorphisms(group.invariant_factors))


def naive_subgroup(group, generators):
    """<generators> by a breadth-first search that adds each generator to
    every element found so far."""
    seen = frontier = {group.identity()}
    while frontier:
        frontier = {group.add(x, g) for x in frontier for g in generators} - seen
        seen = seen | frontier
    return frozenset(seen)


@lru_cache(maxsize=None)
def naive_quotient_rank(group, subgroup):
    """The least r such that the subgroup and some r elements generate the group."""
    for r in count():
        if any(len(naive_subgroup(group, [*subgroup, *extra])) == group.order
               for extra in combinations(group.elements(), r)):
            return r


def naive_cover_conditions(group, gamma, branch):
    """Whether the branch elements are nonzero, sum to zero and generate the
    group together with 2*gamma more elements (the handles)."""
    total = group.identity()
    for b in branch:
        total = group.add(total, b)
    return (group.identity() not in branch and total == group.identity()
            and naive_quotient_rank(group, naive_subgroup(group, branch)) <= 2 * gamma)


def naive_branch_data_for(group, gamma, genus, k_min=0):
    """`covers.branch_data_for` by checking every multiset of nonzero elements.

    The elements are listed by (order, element), so weights ascend; each
    multiset of positions from that list whose weights hit the degree-sum
    target is tried against `naive_cover_conditions`, in lex order of the
    position tuples over every size k at once. The first datum of each
    `naive_canonical_branch` class is kept.
    """
    n = group.order
    target = (2 * genus - 2) - n * (2 * gamma - 2)
    if target < 0:
        return []
    pool = sorted((x for x in group.elements() if x != group.identity()),
                  key=lambda x: (group.element_order(x), x))
    weights = [n - n // group.element_order(x) for x in pool]
    exact = [combo
             for k in range(max(k_min, 0), 2 * target // n + 1)  # each weight >= n/2
             for combo in combinations_with_replacement(range(len(pool)), k)
             if sum(weights[p] for p in combo) == target]
    found = {}
    for combo in sorted(exact):
        branch = tuple(pool[p] for p in combo)
        if naive_cover_conditions(group, gamma, branch):
            datum = CoverDatum(group, gamma, branch)
            found.setdefault(naive_canonical_branch(group, datum.branch), datum)
    return sorted(found.values(), key=lambda d: (d.signature(), d.branch))


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


def naive_universal_n(epsilon):
    """(n*, certificate) of `bounds.universal_n` by walking every level from
    the chain floor up with rational Horner evaluations; the work grows like
    1/(1 - 529 eps), so keep eps well away from 1/529."""
    eps = Fraction(epsilon)
    a_coeffs, b_coeffs, c0 = bounds._margin_polynomials(eps)
    sz_a, sz_b = bounds._size_polynomials()
    lead = a_coeffs[0]
    poly, chain_cap = bounds._poly, bounds._chain_cap

    n_chain = 2
    while chain_cap(n_chain) > eps:
        n_chain += 1

    def conditions(n):
        a = poly(a_coeffs, n)
        b = poly(b_coeffs, n)
        asz = poly(sz_a, n)
        bsz = poly(sz_b, n)
        if b >= 0 or bsz >= 0:
            return False, {}
        vals = {
            "A": a, "B": b,
            "margin_k3_2_chi_0": 2 * a + c0,
            "margin_k3_6_chi_1": 6 * a + b + c0,
            "margin_k3_2_chi_min": 2 * a - 6 * b + c0,
            "size_k3_2_chi_0": 2 * asz,
            "size_k3_6_chi_1": 6 * asz + bsz,
        }
        ok = (
            vals["margin_k3_2_chi_0"] > 0
            and vals["margin_k3_6_chi_1"] > 0
            and vals["margin_k3_2_chi_min"] > 0
            and vals["size_k3_2_chi_0"] >= 0
            and vals["size_k3_6_chi_1"] >= 0
        )
        return ok, vals

    n = n_chain
    while True:
        ok, vals = conditions(n)
        if ok:
            break
        n += 1

    witness = {"n": n - 1}
    if n - 1 < n_chain:
        witness["failed"] = "chain_ratio"
        witness["detail"] = f"(6n-1)(3n-2) = {12 / chain_cap(n - 1)} < {12 / eps}"
    else:
        _, prev = conditions(n - 1)
        for name, point in (
            ("margin_k3_6_chi_1", {"k3": 6, "chi": 1}),
            ("margin_k3_2_chi_0", {"k3": 2, "chi": 0}),
            ("size_k3_6_chi_1", {"k3": 6, "chi": 1}),
            ("size_k3_2_chi_0", {"k3": 2, "chi": 0}),
            ("margin_k3_2_chi_min", {"k3": 2, "chi": -6}),
        ):
            if prev and (prev[name] < 0 if name.startswith("size") else prev[name] <= 0):
                witness.update({"failed": name, "value": prev[name], **point})
                break
        else:
            witness["failed"] = "endpoint-sign precondition"

    certificate = {
        "epsilon": eps,
        "leading_coefficient": lead,
        "chain_floor": {
            "n": n_chain,
            "value_at_floor": 12 / chain_cap(n_chain),
            "value_below": 12 / chain_cap(n_chain - 1),
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
