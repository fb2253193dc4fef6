"""Face counts of graph associahedra, h-polynomials, and toric Betti numbers.

Faces of the graph associahedron of a connected graph correspond to augmented
nested sets, a face of dimension i to a nested set of cardinality n - i.  The
h-polynomial is computed two independent ways: as the binomial transform of
the face vector and as the descent generating polynomial over the vertices of
the polytope.  All arithmetic is exact.
"""

from __future__ import annotations

from math import comb

from .graphs import Graph, component_masks
from .tubings import DEFAULT_CAP, _check_host, _iter_nested_masks, _mask_tree, _tube_table

Polynomial = list[int]  # coefficient list, index = degree, trailing zeros trimmed


def trim(coeffs: list[int]) -> Polynomial:
    """Canonical polynomial: drop trailing zeros; zero polynomial is []."""
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


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
    """
    _check_host(g, cap)
    # A polynomial is kept as its value at x = 2^w.  A nested set has at most
    # n tubes out of fewer than 2^n, so every count is below 2^w and the
    # coefficients never carry into each other: + and * stay exact.
    w = g.n * g.n
    poly: dict[int, int] = {}  # tube mask -> P, smaller tubes first
    for mask in _tube_table(g)[0]:
        p = 0
        label = mask
        while label:
            prod = 1 << w
            for c in component_masks(g, mask & ~label):
                prod *= poly[c]
            p += prod
            label = (label - 1) & mask
        poly[mask] = p
    return [p >> (g.n - i) * w & ((1 << w) - 1) for i in range(g.n)]


def h_poly_from_f(f: list[int]) -> Polynomial:
    """Coefficients of sum_i f_i (t-1)^i: h_j = sum_i f_i C(i, j) (-1)^(i-j)."""
    if not f:
        raise ValueError("f-vector must be nonempty")
    return trim([sum(fi * comb(i, j) * (-1) ** (i - j) for i, fi in enumerate(f[j:], j))
                 for j in range(len(f))])


def h_poly_from_descents(g: Graph, cap: int = DEFAULT_CAP) -> Polynomial:
    """Descent generating polynomial over the maximal augmented nested sets.
    Their labels are single bits, and bit order agrees with label order, so
    a descent (child vertex below its parent's) compares label masks."""
    _check_host(g, cap)
    coeffs = [0] * g.n
    for masks in _iter_nested_masks(g, g.n - 1):
        parent, label = _mask_tree(masks)
        coeffs[sum(label[i] < label[j] for i, j in enumerate(parent[:-1]))] += 1
    return trim(coeffs)


def betti(g: Graph, cap: int = DEFAULT_CAP) -> list[int]:
    """Even Betti numbers of the toric variety of the graph associahedron:
    the h-coefficients, b_{2i} = h_i; odd Betti numbers vanish."""
    return h_poly_from_f(f_vector(g, cap))
