"""Cellular chains of graph associahedra as a cobar-type complex, plus the
monomial machinery: normal monomials, their graded count, and the reduction
and induction maps between maximal nested sets and normal monomials.

Monomials of the free structure with one generator per connected graph are
encoded by augmented nested sets, a generator sitting at each node of the
nested tree; the homological degree of a monomial is n minus its cardinality.
The complex is an :class:`grakit.exactla.ChainComplex`, which checks d∘d = 0
exactly: it holds the monomials as canonical mask tuples numbered in
enumeration order, and each boundary as one sparse integer column, since
rank and homology ignore basis order.
The columns are built by tube deletion: a cell N′ and a proper tube T of it
put N′, with a sign read off N′'s tree, in the column of N′ minus T.  Each
such pair is exactly one nonzero boundary term, because no two insertions of
a tube into N give one refinement, so deletion meets each term once.
A monomial is normal when none of its quadratic divisors, the two-node
subquotients at its tree edges, is a leading weight-two monomial.  At the
edge from a node labelled L to a child tube C labelled L′ (bit order is
label order) that reads: for hyper, min(L ∩ N(C)) < max L′; for grav, L′ is
a singleton above min L; for grcom, L′ is a singleton above max L, and the
set is maximal.  This restates the divisor's leading tubes
(:func:`weight2_leading_tubes`), its graph being L ∪ L′ with the rest of the
parent tube reconnected away: the outside neighbours of L′ in it are
L ∩ N(C), because sibling tubes never touch C.  Normal counts equal to the
algebra's dimensions in every degree (:func:`normal_counts`) make the
relations a Gröbner basis, which by the PBW criterion proves Koszulness.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

from .exactla import ChainComplex, QMatrix, _homology, _rank_mod_p, homology_dims
from .graphs import Graph, component_masks
from .tubings import (
    DEFAULT_CAP,
    NestedSet,
    _check_host,
    _children,
    _insertions,
    _iter_nested_masks,
    _mask_tree,
    _reach,
    _tube_table,
    enumerate_nested,
)

SYSTEMS = ("grcom", "grav", "hyper")


# ---------------------------------------------------------------------------
# The cobar-type complex: cellular chains of the graph associahedron.
# ---------------------------------------------------------------------------

def _term_sign(before: int, deg: int, x: int, rest: int, passed: int) -> int:
    """Sign of one boundary term, the one rule both routes to it share.

    The term inserts a proper tube X (the bits x, k of them) at a node of
    degree ``deg`` of the coarser cell, leaving ``rest`` of its label.
    ``before`` is the sum of the degrees of the nodes preceding that node in
    canonical order, ``passed`` the degree the lifted tube moves past on its
    way into canonical position.  The sign is the Koszul prefix
    (-1)^before, times the local sign -(-1)^(deg + 1 - k) times the
    separation sign of X in the label, times (-1)^((k - 1) * passed).  The
    separation sign moves the odd factors of X to the back of the ascending
    tensor over the label: the parity of the pairs (v in X) below (c in
    rest).  The convention is pinned by the squared differential vanishing;
    the complex it defines has the homology of a point.
    """
    k = x.bit_count()
    parity = before + deg + k + (k - 1) * passed
    while x:
        low = x & -x
        x ^= low
        parity += (rest & -low).bit_count()
    return -1 if parity % 2 else 1


def _boundary(g: Graph, masks: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """Differential of a monomial, on canonical mask tuples: {refinement: sign}.

    The per-cell route: it inserts every proper tube of every node graph and
    sorts each refinement into canonical order.  It stands behind the public
    :func:`boundary`, and it is the oracle the deletion build of
    :func:`cobar_complex` is checked against.  The lifted tube, smaller than
    its node, moves past that node and every earlier node of larger rank;
    the sign is :func:`_term_sign`.

    No two insertions give one refinement, so no terms cancel: a lifted tube
    meets only its own node's label, and meets it in the inserted X.
    """
    rank = _tube_table(g)[1]
    parent, label = _mask_tree(masks)
    degs = [m.bit_count() - 1 for m in label]
    out = {}
    for i in range(len(masks)):
        if degs[i] == 0:
            continue
        before = sum(degs[:i])
        for x, lifted in _insertions(g, label[i], _children(masks, parent, i)):
            passed = degs[i] - x.bit_count() + sum(
                degs[j] for j in range(i) if rank[masks[j]] > rank[lifted])
            out[tuple(sorted(masks + (lifted,), key=rank.__getitem__))] = \
                _term_sign(before, degs[i], x, label[i] & ~x, passed)
    return out


@lru_cache(maxsize=1024)
def boundary(ns: NestedSet) -> dict:
    """Differential of a monomial as {refinement: sign} (see :func:`_boundary`)."""
    return {NestedSet(ns.host, ms): c for ms, c in _boundary(ns.host, ns.masks).items()}


@dataclass(frozen=True, eq=False)
class CobarComplex(ChainComplex):
    """Chain model of a graph associahedron over a connected ``host``:
    ``cells[d]`` lists the augmented nested sets of cardinality n - d as
    canonical mask tuples, in enumeration order, and the inherited
    ``columns[d]`` their boundaries as {row in ``cells[d - 1]``:
    coefficient}.  Rank and homology are blind to basis order."""

    host: Graph
    cells: dict  # degree -> list[tuple[int, ...]]

    def differential_matrix(self, k: int) -> QMatrix:
        """Dense matrix of the boundary from degree k to degree k-1."""
        cols = self.columns.get(k) or [{}] * self.dims.get(k, 0)
        rows = range(self.dims.get(k - 1, 0))
        return QMatrix.from_rows([[c.get(i, 0) for c in cols] for i in rows], len(cols))


def cobar_complex(g: Graph, cap: int = DEFAULT_CAP) -> CobarComplex:
    """Build the complex over a connected host, numbering each cell once and
    filling the integer columns from the finer side, by tube deletion.

    Every term of a boundary pairs a cell N with a refinement N′ = N ∪ {T}.
    So each cell N′ and each proper tube T of N′, at index t, give the entry
    at row N′ of the column of N = N′ minus T, a slice of N′'s canonical
    tuple and so canonical itself.  In N′'s mask tree T's label is the
    inserted X, with k vertices, and T's parent p is the refined node, whose
    degree in N is degs[p] + k.  Masks are in rank order, so the nodes of N
    before the refined one are those of N′ before p but T, and the nodes the
    lifted tube moves past are indices t + 1 … p - 1.  With ``pre`` the
    prefix sums of N′'s degrees, the sign is :func:`_term_sign` with
    before = pre[p] - degs[t] and passed = degs[p] + pre[p] - pre[t + 1].

    Each pair (N′, T) is exactly one nonzero term.  No two insertions give
    one refinement, since a lifted tube meets only its own node's label and
    meets it in the inserted X, so deletion meets each term once; and every
    T is the lift of its label X, a proper tube of the refined node's graph.
    """
    cells: dict = {}
    for ns in enumerate_nested(g, augmented=True, cap=cap):
        cells.setdefault(g.n - len(ns), []).append(ns.masks)
    index = {ms: i for cs in cells.values() for i, ms in enumerate(cs)}
    columns = {d: [{} for _ in cs] for d, cs in cells.items() if d - 1 in cells}
    for d, cs in cells.items():
        if d + 1 not in cells:
            continue
        up = columns[d + 1]
        for row, mp in enumerate(cs):
            parent, label = _mask_tree(mp)
            degs = [m.bit_count() - 1 for m in label]
            pre = list(accumulate(degs, initial=0))
            for t in range(len(mp) - 1):
                p = parent[t]
                up[index[mp[:t] + mp[t + 1:]]][row] = _term_sign(
                    pre[p] - degs[t], degs[p] + degs[t] + 1, label[t], label[p],
                    degs[p] + pre[p] - pre[t + 1])
    return CobarComplex({d: len(cs) for d, cs in cells.items()}, columns, g, cells)


def koszul_check(g: Graph, cap: int = DEFAULT_CAP) -> dict:
    """Homology dimensions of the complex; a point in degree zero certifies
    the quadratic presentation is as small as it can be.

    The boundary columns are ranked first modulo the prime 2^61 - 1; a
    mod-p point is a rational point (see :mod:`grakit.exactla`).  Any other
    mod-p answer takes :func:`homology_dims`, exact ranks of the same
    columns.  Either way d∘d = 0 is checked exactly when the complex is built.
    """
    cx = cobar_complex(g, cap)
    hom = _homology(cx.dims, {k: _rank_mod_p(cols) for k, cols in cx.columns.items()})
    if hom == {k: int(k == 0) for k in cx.dims}:
        return hom
    return homology_dims(cx)


# ---------------------------------------------------------------------------
# Normal monomials: the edge rule and the graded count.
# ---------------------------------------------------------------------------

def _check_system(system: str) -> None:
    if system not in SYSTEMS:
        raise ValueError(f"unknown system {system!r}; expected one of {SYSTEMS}")


def _lead(system: str, child_label: int) -> int:
    """The bit of a child label L′ the edge rule compares: max L′ for hyper,
    else L′ itself if a singleton and 0, which clears no bar, if not."""
    if system == "hyper":
        return 1 << child_label.bit_length() - 1
    return 0 if child_label & (child_label - 1) else child_label


def _bar(system: str, label: int, border: int) -> int:
    """The bit a child's lead must exceed under a node labelled L, the child
    tube having neighbourhood ``border``: min(L ∩ N(C)) for hyper, min L for
    grav, max L for grcom."""
    if system == "grcom":
        return 1 << label.bit_length() - 1
    if system == "hyper":
        label &= border
    return label & -label


@lru_cache(maxsize=1024)
def weight2_leading_tubes(g: Graph, system: str) -> frozenset:
    """Tubes T whose weight-two monomial {T, V} is a leading term of the
    system's relation ideal on g.  {T, V} is one edge, from the root
    labelled V - T to T, so these are the proper tubes failing the edge
    rule.  grav: the non-singleton tubes and the minimal vertex.  grcom: all
    but the maximal vertex, the ≺-minimal tube.  hyper: the tubes whose
    outside neighbours all exceed their maximum; the reversed-order pivots
    of the hyper span have the same size and normal count, but only this
    set is compatible with the reduction map."""
    _check_system(system)
    labels, _, border = _tube_table(g)
    full = (1 << g.n) - 1
    return frozenset(t for m, t in labels.items() if m != full
                     and _lead(system, m) <= _bar(system, full & ~m, border[m]))


def _normal(system: str, border: dict[int, int], masks: tuple[int, ...]) -> bool:
    parent, label = _mask_tree(masks)
    for m, p, low in zip(masks, parent, label):
        if p is not None and _lead(system, low) <= _bar(system, label[p], border[m]):
            return False
    return True


def is_normal(ns: NestedSet, system: str) -> bool:
    """No quadratic divisor of the monomial is a leading term of the system,
    tested edge by edge without building one: min(L ∩ N(C)) < max L′ for
    hyper, L′ a singleton above min L for grav, or above max L for grcom,
    whose monomials are also maximal."""
    _check_system(system)
    if system == "grcom" and len(ns) != ns.host.n:
        return False
    return _normal(system, _tube_table(ns.host)[2], ns.masks)


def normal_monomials(g: Graph, system: str, cap: int = DEFAULT_CAP) -> list[NestedSet]:
    """Monomials with no leading quadratic divisor, in the walk's rank order,
    no sort: lexicographic in their proper tubes' ranks.  grcom's only
    generator is on one vertex, so its monomials are maximal nested sets."""
    _check_system(system)
    _check_host(g, cap)
    border = _tube_table(g)[2]
    # the walk of enumerate_nested, wrapping only the normal sets
    return [NestedSet(g, ms) for ms in _iter_nested_masks(g, g.n - 1 if system == "grcom" else None)
            if _normal(system, border, ms)]


def normal_counts(g: Graph, system: str, cap: int = DEFAULT_CAP) -> list[int]:
    """Normal monomials counted by degree n - |N|, without enumerating.

    The edge rule is local, so the face recursion of
    :func:`grakit.polycomb.f_vector` counts them once every edge obeys it.
    With N(T, L) the polynomial of the normal nested sets of G[T] with root
    label L, N(T, L) = x * prod over components C of T - L of the sum of
    N(C, L′) over the L′ clearing the bar under L.  Each tube keeps these
    sums as suffix sums over the lead bit, so one lookup gives the inner
    sum.  Below the root grav and grcom admit singleton labels only, and
    grcom at the root too, as its monomials are maximal.  Polynomials are
    held at x = 2^(n²) as in ``f_vector``.
    """
    _check_system(system)
    _check_host(g, cap)
    n, w = g.n, g.n * g.n
    full = (1 << n) - 1
    border = _tube_table(g)[2]
    above: dict[int, list[int]] = {}  # tube -> sums of N(C, L′) over lead index >= i
    for mask in border:  # smaller tubes first
        every = system == "hyper" or (system == "grav" and mask == full)
        by_lead = [0] * (n + 2)
        label = mask
        while label:
            if every or not label & (label - 1):
                prod = 1 << w
                for c in component_masks(g, mask & ~label):
                    prod *= above[c][_bar(system, label, border[c]).bit_length() + 1]
                by_lead[_lead(system, label).bit_length()] += prod
            label = (label - 1) & mask
        for i in range(n, -1, -1):
            by_lead[i] += by_lead[i + 1]
        above[mask] = by_lead
    top = above[full][0]
    return [top >> (n - d) * w & ((1 << w) - 1) for d in range(n)]


# ---------------------------------------------------------------------------
# Reduction and induction.
# ---------------------------------------------------------------------------

def reduction(ns: NestedSet) -> NestedSet:
    """Drop, from a maximal nested set, the child tube of every descent.
    The result always contains the root."""
    if len(ns) != ns.host.n:
        raise ValueError("reduction requires a maximal nested set")
    parent, label = _mask_tree(ns.masks)
    return NestedSet(ns.host, tuple(m for m, p, v in zip(ns.masks, parent, label)
                                    if p is None or v > label[p]))


def induction(ns: NestedSet) -> NestedSet:
    """Complete an augmented nested set to a maximal one.

    At each node whose label has more than one vertex, peel off the minimal
    label vertex v and insert the lift of the node tube {v}: the smallest
    compatible tube containing v, which is v together with the node's
    current children adjacent to it.  The lift replaces the children it
    absorbs, and the node goes on until its label is a singleton.  An
    insertion at a node changes only that node's label and children, and
    the new node's label {v} is already a singleton, so the nodes can be
    completed in any order, all from one mask tree, with one sort at the end.
    """
    g = ns.host
    if not ns.augmented:
        raise ValueError("induction requires an augmented nested set")
    rank = _tube_table(g)[1]
    masks = list(ns.masks)
    parent, label = _mask_tree(ns.masks)
    for i, rest in enumerate(label):
        if rest & (rest - 1):
            kids = _children(ns.masks, parent, i)
            while rest & (rest - 1):
                v = rest & -rest
                rest ^= v
                lifted = _reach(g, v, kids)[v]
                kids = [c for c in kids if not c & lifted] + [lifted]
                masks.append(lifted)
    return NestedSet(g, tuple(sorted(masks, key=rank.__getitem__)))
