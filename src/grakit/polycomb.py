"""Face counts of graph associahedra, h-polynomials, and toric Betti numbers.

Faces of the graph associahedron of a connected graph correspond to augmented
nested sets, a face of dimension i to a nested set of cardinality n - i.  The
h-polynomial is computed two independent ways: as the binomial transform of
the face vector, and as the descent generating polynomial over the vertices
of the polytope, the maximal nested sets.  The two routes count different
statistics, so their agreement is a check.

Neither route enumerates nested sets.  Both are recursions over the host's
tube table, smallest tubes first, on the root of the nested tree: the face
route on the root's label (any nonempty subset of the tube), the descent
route on the root vertex of a maximal nested set (Postnikov, Reiner and
Williams, *Faces of generalized permutohedra*, 2008).  A polynomial in flight
is kept as its value at x = 2^(n*n), so + and * on it are integer + and *.
All arithmetic is exact.
"""

from __future__ import annotations

from math import comb

from .graphs import Graph, component_masks
from .tubings import DEFAULT_CAP, _check_host, _tube_table

Polynomial = list[int]  # coefficient list, index = degree, trailing zeros trimmed


def trim(coeffs: list[int]) -> Polynomial:
    """Canonical polynomial: drop trailing zeros; zero polynomial is []."""
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


def _unpack(p: int, w: int, count: int) -> list[int]:
    """Coefficients 0..count-1 of a polynomial packed at x = 2^w."""
    return [p >> k * w & ((1 << w) - 1) for k in range(count)]


def f_vector(g: Graph, cap: int = DEFAULT_CAP) -> list[int]:
    """Face numbers f_0..f_{n-1}; f_i counts nested sets of cardinality n - i,
    so f_{n-1} = 1 stands for the polytope itself.

    Counted without enumeration: the polynomial P(T) whose coefficient k
    counts the augmented nested sets of G[T] with k tubes obeys

        P(T) = x * sum over nonempty L ⊆ T of prod over components C of T - L of P(C).

    It is exact because it is a bijection.  L is the root's label, nonempty
    as the root's children are proper, disjoint and pairwise non-adjacent
    tubes of the connected G[T]; so the children are the components of T - L.
    Conversely any L with any nested sets on the components makes one.

    The inner term depends on R = T - L only, so it is computed once per
    vertex set R; its components are smaller tubes than T, already counted.
    """
    _check_host(g, cap)
    # A nested set has at most n tubes out of fewer than 2^n, so every count
    # is below 2^w and the packed coefficients never carry into each other.
    w = g.n * g.n
    x = 1 << w
    poly: dict[int, int] = {}  # tube mask -> P, smaller tubes first
    prods: dict[int, int] = {}  # vertex set R -> x * prod over components C of R of P(C)
    for mask in _tube_table(g)[0]:
        p = 0
        label = mask
        while label:
            rest = mask & ~label
            prod = prods.get(rest)
            if prod is None:
                prod = x
                for c in component_masks(g, rest):
                    prod *= poly[c]
                prods[rest] = prod
            p += prod
            label = (label - 1) & mask
        poly[mask] = p
    return _unpack(poly[(1 << g.n) - 1], w, g.n + 1)[:0:-1]


def h_poly_from_f(f: list[int]) -> Polynomial:
    """Coefficients of sum_i f_i (t-1)^i: h_j = sum_i f_i C(i, j) (-1)^(i-j)."""
    if not f:
        raise ValueError("f-vector must be nonempty")
    return trim([sum(fi * comb(i, j) * (-1) ** (i - j) for i, fi in enumerate(f[j:], j))
                 for j in range(len(f))])


def _root_descents(g: Graph) -> list[list[int]]:
    """The per-root table behind :func:`h_poly_from_descents`: for each root
    bit u of the connected host, the n coefficients of D(V, u)."""
    w = g.n * g.n
    t = 1 << w
    roots: dict[int, dict[int, int]] = {}  # tube mask -> root bit -> packed D
    total: dict[int, int] = {}  # tube mask -> sum of its D over the roots
    for mask in _tube_table(g)[0]:
        per: dict[int, int] = {}
        rest = mask
        while rest:
            u = rest & -rest
            rest ^= u
            d = 1
            for c in component_masks(g, mask ^ u):
                below = sum(p for b, p in roots[c].items() if b < u)
                d *= total[c] + below * (t - 1)
            per[u] = d
        roots[mask] = per
        total[mask] = sum(per.values())
    return [_unpack(d, w, g.n) for d in roots[(1 << g.n) - 1].values()]


def h_poly_from_descents(g: Graph, cap: int = DEFAULT_CAP) -> Polynomial:
    """Descent generating polynomial over the maximal augmented nested sets:
    the coefficient k counts those with k descents, tree edges along which
    the child's vertex is below its parent's.

    Counted without enumeration, one root vertex at a time.  A maximal
    nested set of G[T] is a root vertex u together with one maximal nested
    set on each component C of T - u, whose own root u' is u's child there.
    That edge is a descent exactly when u' < u; the other descents lie
    inside the components.  So D(T, u), the descent polynomial of the sets
    of G[T] rooted at u, obeys

        D(T, u) = prod over components C of T - u of
                  (t * sum over u' < u of D(C, u') + sum over u' > u of D(C, u')),

    and h is the sum of D(V, u) over u.  Every coefficient in flight counts
    choices of maximal nested sets on disjoint tubes, at most n! < 2^(n*n)
    of them, so packed at t = 2^(n*n) no coefficient carries into the next.
    """
    _check_host(g, cap)
    return trim([sum(c) for c in zip(*_root_descents(g))])


def betti(g: Graph, cap: int = DEFAULT_CAP) -> list[int]:
    """Even Betti numbers of the toric variety of the graph associahedron:
    the h-coefficients, b_{2i} = h_i; odd Betti numbers vanish."""
    return h_poly_from_f(f_vector(g, cap))
