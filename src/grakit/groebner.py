"""Cellular chains of graph associahedra as a cobar-type complex, plus the
monomial machinery: leading terms, normal monomials, and the reduction and
induction maps between maximal nested sets and normal monomials.

Monomials of the free structure with one generator per connected graph are
encoded by augmented nested sets, a generator sitting at each node of the
nested tree; the homological degree of a monomial is n minus its cardinality.
A quadratic divisor of a monomial is the two-node subquotient at a tree edge,
so divisibility questions reduce to per-graph sets of leading weight-two
monomials.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .engine import (
    RelationSet,
    free_weight2_basis,
    gravity_relations,
    hypercom_relations,
)
from .exactla import ChainComplex, QMatrix, _homology, _rank_exact, _rank_mod_p
from .graphs import Graph
from .tubings import (
    DEFAULT_CAP,
    NestedSet,
    _check_host,
    _children,
    _divisor,
    _insertions,
    _mask_tree,
    _reach,
    _tube_table,
    enumerate_nested,
    lex_key,
)

SYSTEMS = ("grcom", "grav", "hyper")


# ---------------------------------------------------------------------------
# The cobar-type complex: cellular chains of the graph associahedron.
# ---------------------------------------------------------------------------

def _separation_sign(label: int, x: int) -> int:
    """Koszul sign separating the odd factors of x to the back of the
    ascending tensor over a node label: parity of the pairs (t in x) below
    (c in the label outside x)."""
    rest = label & ~x
    inv = sum((rest >> b).bit_count() for b in range(x.bit_length()) if x >> b & 1)
    return -1 if inv % 2 else 1


@lru_cache(maxsize=200000)
def boundary(ns: NestedSet) -> dict:
    """Differential of a monomial: signed sum over all one-tube refinements.

    At a node with graph D and an inserted proper tube S, the local sign is
    -(-1)^(|V_D| - |S|) times the separation sign of S in D; the global sign
    combines the Koszul prefix over the nodes preceding the refined one in
    canonical order with the reordering of the two new nodes into canonical
    position: the lifted tube, smaller than its node, moves past that node
    and every earlier node of larger rank.  The convention is pinned by the
    squared differential vanishing; the complex it defines has the homology
    of a point.
    """
    g = ns.host
    masks = ns.masks  # canonical (size, lex) order
    rank = _tube_table(g)[1]
    parent, label = _mask_tree(masks)
    degs = [m.bit_count() - 1 for m in label]
    out: dict = {}
    for i in range(len(masks)):
        if degs[i] == 0:
            continue
        prefix = -1 if sum(degs[:i]) % 2 else 1
        for x, lifted in _insertions(g, label[i], _children(masks, parent, i)):
            k = x.bit_count()
            local = -((-1) ** (degs[i] + 1 - k)) * _separation_sign(label[i], x)
            passed = degs[i] - k + sum(degs[j] for j in range(i) if rank[masks[j]] > rank[lifted])
            coeff = prefix * local * (-1) ** ((k - 1) * passed)
            ns2 = NestedSet(g, tuple(sorted(masks + (lifted,), key=rank.__getitem__)))
            out[ns2] = out.get(ns2, 0) + coeff
            if not out[ns2]:
                del out[ns2]
    return out


@dataclass(frozen=True, eq=False)
class CobarComplex:
    """Chain model of a graph associahedron: degree-d basis indexed by the
    augmented nested sets of cardinality n - d."""

    host: Graph
    basis: dict  # degree -> list[NestedSet], each list sorted ascending by lex order

    def __post_init__(self):
        # squared-differential gate, checked sparsely on construction
        for deg in sorted(self.basis):
            for ns in self.basis[deg]:
                acc: dict = {}
                for m1, c1 in boundary(ns).items():
                    for m2, c2 in boundary(m1).items():
                        acc[m2] = acc.get(m2, 0) + c1 * c2
                if any(acc.values()):
                    raise ValueError(f"squared differential is nonzero on {ns}")

    @property
    def dims(self) -> dict:
        return {d: len(b) for d, b in self.basis.items()}

    def sparse_columns(self, k: int) -> list[dict]:
        """Boundary from degree k to degree k-1 as integer columns
        {row index in degree k-1: coefficient}, one per degree-k monomial."""
        index = {ns: i for i, ns in enumerate(self.basis.get(k - 1, []))}
        return [{index[m]: c for m, c in boundary(ns).items()}
                for ns in self.basis.get(k, [])]

    def differential_matrix(self, k: int) -> QMatrix:
        """Matrix of the boundary from degree k to degree k-1."""
        cols = self.sparse_columns(k)
        rows = [[Fraction(0)] * len(cols) for _ in self.basis.get(k - 1, [])]
        for j, col in enumerate(cols):
            for i, c in col.items():
                rows[i][j] = Fraction(c)
        return QMatrix(len(rows), len(cols), tuple(tuple(r) for r in rows))

    def chain_complex(self) -> ChainComplex:
        dims = self.dims
        diffs = {k: self.differential_matrix(k) for k in dims if k - 1 in dims}
        return ChainComplex(dims, diffs)


def cobar_complex(g: Graph, cap: int = DEFAULT_CAP) -> CobarComplex:
    """Build the complex over a connected host; degree of a monomial is
    n minus its cardinality."""
    _check_host(g, cap)
    by_degree: dict = {}
    for ns in enumerate_nested(g, augmented=True, cap=cap):
        by_degree.setdefault(g.n - len(ns), []).append(ns)
    for d in by_degree:
        by_degree[d].sort(key=lex_key)
    return CobarComplex(g, by_degree)


def koszul_check(g: Graph, cap: int = DEFAULT_CAP) -> dict:
    """Homology dimensions of the complex; a point in degree zero certifies
    the quadratic presentation is as small as it can be.

    The boundaries are ranked first modulo the prime 2^61 - 1 on sparse
    integer columns.  A mod-p point proves the rational point: mod-p rank is
    at most the rational rank, so mod-p homology bounds rational homology
    from above in every degree, and both have the Euler characteristic of
    the complex.  Any other mod-p answer takes exact rational ranks of the
    same sparse columns instead.  Either way d∘d = 0 is checked exactly over
    the integers when the complex is built.
    """
    cx = cobar_complex(g, cap)
    dims = cx.dims
    degrees = [k for k in dims if k - 1 in dims]
    hom = _homology(dims, {k: _rank_mod_p(cx.sparse_columns(k)) for k in degrees})
    if hom == {k: int(k == 0) for k in dims}:
        return hom
    return _homology(dims, {k: _rank_exact(cx.sparse_columns(k)) for k in degrees})


# ---------------------------------------------------------------------------
# Leading terms and normal monomials.
# ---------------------------------------------------------------------------

def leading_term(
    vector, basis: list[NestedSet], ordering: str = "lex"
) -> NestedSet:
    """Monomial of the largest nonzero coefficient under the nested-set
    order ("lex"), or the smallest ("opposite")."""
    if ordering not in ("lex", "opposite"):
        raise ValueError(f"unknown ordering {ordering!r}")
    support = [ns for ns, c in zip(basis, vector) if c]
    if not support:
        raise ValueError("zero vector has no leading term")
    pick = max if ordering == "lex" else min
    return pick(support, key=lex_key)


def _pivot_tubes(relations: RelationSet, ordering: str) -> frozenset:
    """Leading tubes of the span of a weight-two relation set: eliminate in
    the chosen order and read off the pivot monomials."""
    basis = list(relations.basis)
    order = sorted(range(len(basis)), key=lambda i: lex_key(basis[i]),
                   reverse=(ordering == "lex"))
    pivots: dict = {}
    for vec in relations.vectors:
        row = list(vec)
        while True:
            lead = next((i for i in order if row[i]), None)
            if lead is None:
                break
            if lead in pivots:
                c = row[lead] / pivots[lead][lead]
                row = [a - c * b for a, b in zip(row, pivots[lead])]
            else:
                pivots[lead] = row
                break
    return frozenset(basis[i].tubes[0] for i in pivots)


@lru_cache(maxsize=None)
def weight2_leading_tubes(g: Graph, system: str) -> frozenset:
    """Tubes T whose weight-two monomial {T, V} is a leading term of the
    system's relation ideal on g.

    grcom: all proper tubes except the order-minimal one (the relations
    identify all weight-two monomials).
    grav: pivots of the relation span under the nested-set order; these
    come out as the non-singleton proper tubes plus the minimal-vertex
    singleton.
    hyper: the tubes all of whose outside neighbors exceed their maximum.
    The reversed-order pivot computation yields a set of the same size whose
    normal-monomial count agrees, but only this set is compatible with the
    reduction map, so it is the one divisibility uses.
    """
    if system not in SYSTEMS:
        raise ValueError(f"unknown system {system!r}; expected one of {SYSTEMS}")
    if g.n < 2:
        return frozenset()
    if system == "grav":
        # the divisor is never larger than the host its caller admitted
        return _pivot_tubes(gravity_relations(g, cap=g.n), "lex")
    if system == "hyper":
        tset = _tube_table(g)[0]
        full = (1 << g.n) - 1
        # no outside neighbor below the tube's largest vertex
        return frozenset(t for m, t in tset.items() if m != full and not any(
            (m | 1 << i) in tset for i in range(m.bit_length()) if not m >> i & 1))
    # grcom: identify every pair of weight-two monomials; the basis comes in
    # ≺ order, so its first tube is the order-minimal one
    return frozenset(ns.tubes[0] for ns in free_weight2_basis(g)[1:])


def hyper_leading_tubes_by_order(g: Graph) -> frozenset:
    """Pivots of the hypercommutative relation span under the reversed
    nested-set order; kept alongside the reduction-compatible set so the two
    can be compared."""
    if g.n < 2:
        return frozenset()
    return _pivot_tubes(hypercom_relations(g), "opposite")


def is_normal(ns: NestedSet, system: str) -> bool:
    """No quadratic divisor of the monomial is a leading term of the system."""
    if system == "grcom" and len(ns) != ns.host.n:
        return False
    parent, label = _mask_tree(ns.masks)
    for i, p in enumerate(parent):
        if p is not None:
            delta, tube = _divisor(ns.host, ns.masks, parent, label, i)
            if tube in weight2_leading_tubes(delta, system):
                return False
    return True


def normal_monomials(g: Graph, system: str, cap: int = DEFAULT_CAP) -> list[NestedSet]:
    """Monomials with no leading quadratic divisor, in the deterministic
    enumeration order.  The grcom system has one generator only on the
    one-vertex graph, so its monomials are the maximal nested sets."""
    if system not in SYSTEMS:
        raise ValueError(f"unknown system {system!r}; expected one of {SYSTEMS}")
    out = []
    for ns in enumerate_nested(g, augmented=True, cap=cap):
        if system == "grcom" and len(ns) != g.n:
            continue
        if is_normal(ns, system):
            out.append(ns)
    return out


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

    While some node label has more than one vertex, take the largest such
    node t in (size, lexicographic) order, which is inclusion-maximal among
    them, and its minimal label vertex v, and insert the lift of the node
    tube {v} at t: the smallest compatible tube containing v, which is v
    together with the children of t adjacent to it.
    """
    g = ns.host
    if not ns.augmented:
        raise ValueError("induction requires an augmented nested set")
    rank = _tube_table(g)[1]
    masks = ns.masks
    while len(masks) < g.n:
        parent, label = _mask_tree(masks)
        i = max(i for i, m in enumerate(label) if m & (m - 1))
        v = label[i] & -label[i]
        lifted = _reach(g, v, _children(masks, parent, i))[v]
        masks = tuple(sorted(masks + (lifted,), key=rank.__getitem__))
    return NestedSet(g, masks)
