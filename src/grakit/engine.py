"""Computable reconnectads: graded commutative models, the square-zero
derivation, gravity elements, weight-two relation spaces, and axiom checks.

A reconnectad assigns a value to every connected graph together with
structure maps composing data on a reconnected complement with data on the
removed part.  The models here are the commutative reconnectads of two
graded objects: GrCom, with one generator m of degree 0, and the square-zero
model, with m and one generator b of degree 1.  A structure map concatenates
the keys of its factors; the Koszul sign is the parity of the pairs of that
concatenation out of ascending vertex order, counted by bitwise popcounts.
This one convention fixes all signs.  The derivation squaring to zero and the
axiom suite validate it; equivariance is checked on a generating set of
Aut(G), ``graphs.automorphism_generators``.

Every element of either model, over any graph, has one form: a plain
{key: coefficient} dict whose keys are the ascending tuples of the vertices
that carry b, so a key's degree is its length.  Structure maps, relabelling
and the derivation all take and return such dicts.  Keys are checked in one
place, ``derivation``, the one entry that takes elements from outside; keys
the library builds itself are never re-checked.

Coefficients are integers: every structure constant of these models is a
sign, so nothing divides.  The arithmetic is whatever the caller's numbers
do, so elements with exact rational coefficients stay exact.  Vertex subsets
are bitmasks of the host (bit i is the i-th smallest label), and each graph
a composition needs is built from masks with ``graphs._reconnect``.

The gravity relations are written once, as ``gravity_relations``' vectors
over the weight-two monomials {T, V}: the Koszul pairing reads them, and
``check_gravity_relations`` evaluates them in the square-zero model.  The
checks return plain tuples: (tube, holds) pairs with the total's verdict,
and the (axiom, detail) violations of ``check_axioms``.

Linear data is sparse columns, the form ``exactla`` ranks: the derivation's
images of basis elements, and relation vectors as {basis position:
coefficient} dicts.  Dense rows appear only in the ``relations`` report and
the three ``QMatrix`` views the benchmark's tracer pins: ``exactla.rank``,
``gerst_derivation_matrix`` and ``CobarComplex.differential_matrix``.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import lru_cache

from .exactla import QMatrix, _rank_exact
from .graphs import (
    Graph,
    _bit_index,
    _reconnect,
    automorphism_generators,
    component_masks,
    labels_of,
    mask_of,
)
from .tubings import DEFAULT_CAP, NestedSet, _check_host, _proper_masks, _tube_table

# The one element form: {ascending tuple of b-vertices: nonzero coefficient}.
# GrCom has no b, so its only key is ().
Element = dict


def _inversion_sign(seq: list[int]) -> int:
    """Sign of sorting seq (distinct ints >= 0): its inversions' parity, by
    popcounts.  Callers pass positions, not labels, so no shift grows with a label."""
    inv = seen = 0
    for v in seq:
        inv += (seen >> v).bit_count()
        seen |= 1 << v
    return -1 if inv % 2 else 1


@lru_cache(maxsize=1 << 14)  # one lookup per compose: v's component count and the host's bit positions
def _compose_plan(g: Graph, v: tuple[int, ...]) -> tuple[int, Callable[[int], int]]:
    return len(component_masks(g, mask_of(g, v))), _bit_index(g).__getitem__


@dataclass(frozen=True)
class GrComX:
    """Commutative reconnectad of a graded object with one generator in each
    degree of ``generator_degrees``: ``(0,)`` for GrCom and ``(0, 1)`` for
    the square-zero model.  Keys are ascending tuples of the vertices that
    carry the degree-1 generator."""

    generator_degrees: tuple[int, ...]

    def __post_init__(self):
        if self.generator_degrees not in ((0,), (0, 1)):
            raise ValueError(f"generator degrees {self.generator_degrees!r} are neither (0,) nor (0, 1)")

    def basis(self, g: Graph) -> list[tuple[int, ...]]:
        """GrCom's one key (); every vertex subset for the square-zero model.
        A generator's index is its degree, so the picked indices mark b."""
        picks = itertools.product(range(len(self.generator_degrees)), repeat=g.n)
        return [tuple(itertools.compress(g.vertices, p)) for p in picks]

    def _merge_sign(self, seq: list[int]) -> int:
        """seq lists the bit positions of the odd vertices in concatenation
        order; the sign sorts them into ascending vertex order."""
        return _inversion_sign(seq)

    def compose(self, g: Graph, v: tuple[int, ...], outer: Element, parts: list[Element]) -> Element:
        """Structure map at a vertex subset v: outer lives on the reconnected
        complement, one inner factor per component of the induced subgraph on
        v, components ordered by minimum vertex."""
        ncomp, pos = _compose_plan(g, tuple(v))
        if ncomp != len(parts):
            raise ValueError(f"expected {ncomp} inner factors, got {len(parts)}")
        sign = self._merge_sign
        out: Element = {}
        for combo in itertools.product(outer.items(), *[p.items() for p in parts]):
            seq, coeff = [], 1
            for key, c in combo:
                seq += key
                coeff *= c
            key = tuple(sorted(seq))
            out[key] = out.get(key, 0) + sign(list(map(pos, seq))) * coeff
        return {k: c for k, c in out.items() if c}

    def circ(self, g: Graph, t: tuple[int, ...], x: Element, y: Element) -> Element:
        """Tube composition: x on the reconnected complement, y on the tube."""
        return self.compose(g, t, x, [y])

    def relabel(self, alpha: dict, x: Element) -> Element:
        """Push an element along a vertex bijection, with the Koszul sign of
        permuting the odd factors."""
        out: Element = {}
        for key, c in x.items():
            images = [alpha[u] for u in key]  # their argsort has their inversions, on small ints
            sign = _inversion_sign(sorted(range(len(key)), key=images.__getitem__))
            out[tuple(sorted(images))] = sign * c  # alpha is a bijection: keys never collide
        return out

    def unit(self) -> Element:
        """The basis element over the empty graph."""
        return {(): 1}


GRCOM = GrComX((0,))
GRGERST = GrComX((0, 1))


# ---------------------------------------------------------------------------
# The square-zero derivation and the gravity elements.
# ---------------------------------------------------------------------------

def _derive(g: Graph, s: tuple[int, ...]) -> Element:
    """The derivation of the basis key s over g: b enters at each vertex v
    outside s, with sign (-1)^(number of b-vertices below v)."""
    out: Element = {}
    i = 0  # the b-vertices below v are s[:i]
    for v in g.vertices:
        if i < len(s) and s[i] == v:
            i += 1
        else:
            out[s[:i] + (v,) + s[i:]] = -1 if i % 2 else 1
    return out


def derivation(g: Graph, x: Element) -> Element:
    """Degree-1 derivation sending m to b at each vertex; squares to zero.

    Every key of x must be an ascending tuple of vertices of g; zero
    coefficients are dropped from the result.
    """
    idx = _bit_index(g)
    out: Element = {}
    for s, c in x.items():
        if not (isinstance(s, tuple) and all(map(idx.__contains__, s))
                and all(a < b for a, b in zip(s, s[1:]))):
            raise ValueError(f"{s!r} is not an ascending tuple of host vertices")
        for key, sign in _derive(g, s).items():
            out[key] = out.get(key, 0) + sign * c
    return {k: c for k, c in out.items() if c}


def _derivation_columns(g: Graph, k: int) -> Iterator[Element]:
    """The derivation's sparse columns out of degree k, lexicographic by subset."""
    return (_derive(g, s) for s in itertools.combinations(g.vertices, k))


def gerst_derivation_matrix(g: Graph, k: int) -> QMatrix:
    """Matrix of the derivation from degree k to degree k+1, bases ordered
    lexicographically by subset."""
    if not 0 <= k <= g.n:
        raise ValueError(f"degree {k} out of range 0..{g.n}")
    cols = list(_derivation_columns(g, k))
    rows = [[c.get(t, 0) for c in cols] for t in itertools.combinations(g.vertices, k + 1)]
    return QMatrix.from_rows(rows, len(cols))


def gravity_dims(g: Graph) -> dict[int, int]:
    """Kernel dimension of the derivation in each degree {k: dim}; the
    dimensions sum to 2^(n-1).

    In each degree the derivation's sparse columns are streamed into the
    exact rank without building a matrix.
    """
    _check_host(g, g.n)  # uncapped: a cap here would refuse the benchmark's grav-dims path:10
    return {k: math.comb(g.n, k) - _rank_exact(_derivation_columns(g, k)) for k in range(g.n + 1)}


def gravity_generator(g: Graph) -> Element:
    """Image of the degree-zero generator under the derivation: the sum of
    all singleton basis elements.  It lies in the kernel of the derivation."""
    _check_host(g, g.n)  # uncapped, as gravity_dims
    return _derive(g, ())


# ---------------------------------------------------------------------------
# Weight-two relation spaces over the free one-generator-per-graph basis.
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RelationSet:
    """Integer relation vectors over the weight-two monomial basis of a
    fixed host; each basis monomial is the two-tube nested set {T, V}.  A
    vector is a sparse column: a {basis position: coefficient} dict."""

    host: Graph
    basis: tuple  # tuple[NestedSet, ...]
    vectors: tuple  # tuple[dict[int, int], ...]

    def __post_init__(self):
        n = len(self.basis)
        for v in self.vectors:
            if not (isinstance(v, dict) and all(isinstance(i, int) and 0 <= i < n for i in v)):
                raise ValueError(f"a relation vector is a dict of positions in a basis of {n}")

    @property
    def basis_tubes(self) -> tuple:
        return tuple(ns.tubes[0] for ns in self.basis)

    def span_dim(self) -> int:
        """Dimension of the span: the exact rank of the vectors."""
        return _rank_exact(self.vectors)


def free_weight2_basis(g: Graph, cap: int = DEFAULT_CAP) -> list[NestedSet]:
    """Weight-two monomials: one per proper tube T, the shape {T, V},
    in the ≺ order of T (``tubings.prec_key``)."""
    _check_host(g, cap)
    if g.n < 2:
        raise ValueError("weight-two basis needs at least two vertices")
    full = (1 << g.n) - 1
    return [NestedSet(g, (m, full)) for m in _proper_masks(g)]


def gravity_relations(g: Graph, cap: int = DEFAULT_CAP) -> RelationSet:
    """One vector e_T - sum of e_{v} over v in T for each tube of size at
    least two, plus the all-singleton sum."""
    basis = free_weight2_basis(g, cap)
    index = {ns.masks[0]: i for i, ns in enumerate(basis)}
    singles = [index[1 << b] for b in range(g.n)]
    vectors = [{i: 1, **{singles[b]: -1 for b in range(g.n) if m >> b & 1}}
               for m, i in index.items() if m & (m - 1)]  # at least two vertices
    vectors.append(dict.fromkeys(singles, 1))
    return RelationSet(g, tuple(basis), tuple(vectors))


def hypercom_relations(g: Graph, cap: int = DEFAULT_CAP) -> RelationSet:
    """One vector per edge (v, v'): the difference of the sums of e_T over
    proper tubes containing v and containing v'."""
    basis = free_weight2_basis(g, cap)
    masks = [ns.masks[0] for ns in basis]
    idx = _bit_index(g)
    vectors = tuple({i: d for i, m in enumerate(masks) if (d := (m >> idx[a] & 1) - (m >> idx[b] & 1))}
                    for a, b in g.edges)
    return RelationSet(g, tuple(basis), vectors)


def relation_pairing(r1: RelationSet, r2: RelationSet) -> list[list[int]]:
    """Gram matrix of two relation sets under the standard pairing that makes
    the weight-two monomials orthonormal: dense rows of sparse dot products."""
    if r1.host != r2.host or r1.basis != r2.basis:
        raise ValueError("relation sets live on different bases")
    return [[sum(a * y[i] for i, a in x.items() if i in y) for y in r2.vectors] for x in r1.vectors]


def check_gravity_relations(g: Graph, cap: int = DEFAULT_CAP) -> tuple[tuple, bool]:
    """Evaluate each vector of ``gravity_relations`` in the square-zero model
    and check that it vanishes.  The monomial {T, V} is the composition at T
    of the gravity generator of the reconnected complement against that of
    the tube (b_v on a vertex v).  Returns (((T, holds), ...), total_holds)
    for the tubes with 2 <= |T| < n in canonical tube-table order."""
    rel = gravity_relations(g, cap)
    labels = _tube_table(g)[0]
    full = (1 << g.n) - 1
    masks = [ns.masks[0] for ns in rel.basis]
    value = [GRGERST.circ(g, labels[m], gravity_generator(_reconnect(g, full & ~m, m)),
                          gravity_generator(_reconnect(g, m, 0))) for m in masks]

    def vanishes(vector: dict[int, int]) -> bool:
        out: Element = {}
        for i, c in vector.items():
            for k, x in value[i].items():
                out[k] = out.get(k, 0) + c * x
        return not any(out.values())

    # the vectors come one per basis tube of two or more vertices, then the total
    *holds, total = map(vanishes, rel.vectors)
    results = dict(zip((m for m in masks if m & (m - 1)), holds))
    return tuple((t, results[m]) for m, t in labels.items() if m in results), total


# ---------------------------------------------------------------------------
# Axiom checks.
# ---------------------------------------------------------------------------

def check_axioms(model: GrComX, g: Graph, cap: int = DEFAULT_CAP) -> tuple[tuple[str, str], ...]:
    """Verify the unit, parallel, consecutive, and equivariance identities of
    the structure maps on every basis element of the model over g.

    Returns the violations as (axiom, detail) pairs, none when every axiom
    holds.  Tubes are walked as masks in the tube table's order; each tube's
    reconnected complement and induced graph are built once.

    Each identity is compared on every basis triple, x outermost, and each
    inner composition or relabelling is computed once for all the triples
    that share its arguments.  That is sound because ``compose``, ``circ``
    and ``relabel`` are functions of their arguments and keep no state.

    Equivariance is checked on a generating set of Aut(G) only.  That is
    sound because ``relabel`` is a group action: if it holds for α and β on
    every tube and every pair of basis elements, so by linearity on all
    elements, then (αβ)(x ∘_t y) = α((βx) ∘_βt (βy)) = (αβx) ∘_αβt (αβy).
    """
    _check_host(g, cap)
    violations = []
    labels = _tube_table(g)[0]
    full = (1 << g.n) - 1
    ts = [m for m in labels if m != full]
    star = {m: _reconnect(g, full & ~m, m) for m in labels}
    sub = {m: _reconnect(g, m, 0) for m in labels}

    def elements(h: Graph) -> list[Element]:
        return [{a: 1} for a in model.basis(h)]

    # unit: composing at the empty set and at the full set is the identity
    for x in elements(g):
        if model.compose(g, (), x, []) != x:
            violations.append(("unit", f"empty-set composition moved {x}"))
        if model.compose(g, g.vertices, model.unit(), [x]) != x:
            violations.append(("unit", f"full-set composition moved {x}"))

    # parallel: disjoint non-adjacent tubes compose in either order
    for m1, m2 in itertools.combinations(ts, 2):
        if m1 & m2 or (m1 | m2) in labels:
            continue
        t1, t2 = labels[m1], labels[m2]
        ys, zs = elements(sub[m1]), elements(sub[m2])
        for x in elements(_reconnect(g, full & ~(m1 | m2), m1 | m2)):
            xys = [model.circ(star[m2], t1, x, y) for y in ys]
            xzs = [model.circ(star[m1], t2, x, z) for z in zs]
            for y, xy in zip(ys, xys):
                for z, xz in zip(zs, xzs):
                    lhs = model.circ(g, t2, xy, z)
                    rhs = model.circ(g, t1, xz, y)
                    if len(next(iter(y))) * len(next(iter(z))) % 2:
                        rhs = {k: -c for k, c in rhs.items()}
                    if lhs != rhs:
                        violations.append(("parallel", f"tubes {t1},{t2} on {x},{y},{z}"))

    # consecutive: nested tubes compose through the middle layer
    for m1 in ts:
        for m2 in labels:
            if m1 & ~m2 or m1 == m2:
                continue
            t1, t2 = labels[m1], labels[m2]
            between = labels_of(g, m2 & ~m1)
            ys, zs = elements(_reconnect(g, m2 & ~m1, m1)), elements(sub[m1])
            yzs = [[model.circ(sub[m2], t1, y, z) for z in zs] for y in ys]
            for x in elements(star[m2]):
                for y, yz_row in zip(ys, yzs):
                    xy = model.circ(star[m1], between, x, y)
                    for z, yz in zip(zs, yz_row):
                        if model.circ(g, t2, x, yz) != model.circ(g, t1, xy, z):
                            violations.append(("consecutive", f"tubes {t1}<{t2} on {x},{y},{z}"))

    # equivariance: relabeling commutes with every tube composition
    for alpha in automorphism_generators(g, cap):
        for m in ts:
            t = labels[m]
            at = tuple(sorted(alpha[u] for u in t))
            ys = elements(sub[m])
            ays = [model.relabel(alpha, y) for y in ys]
            for x in elements(star[m]):
                ax = model.relabel(alpha, x)
                for y, ay in zip(ys, ays):
                    if model.relabel(alpha, model.circ(g, t, x, y)) != model.circ(g, at, ax, ay):
                        violations.append(("equivariance", f"alpha={alpha} tube {t} on {x},{y}"))
    return tuple(violations)
