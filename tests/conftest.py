"""Shared corpus fixtures and independent oracles.

The isomorphism-class corpus is generated by vertex extension with dedup on
the brute-force canonical form (minimum relabeled edge list over all
permutations), so it is independent of the library's graph machinery.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import lru_cache
from operator import or_

import pytest

from grakit import (
    Graph,
    GrComX,
    NestedSet,
    QMatrix,
    RelationSet,
    free_weight2_basis,
    gravity_relations,
    hypercom_relations,
    is_connected,
    make_graph,
    nested_set,
    quadratic_divisor,
    tubes,
)
from grakit.engine import _inversion_sign
from grakit.graphs import DEFAULT_CAP, _reconnect, automorphism_generators, component_masks, labels_of
from grakit.polycomb import _root_descents
from grakit.tubings import (
    _check_host,
    _compatible,
    _iter_nested_masks,
    _mask_tree,
    _proper_masks,
    _tube_table,
    prec_key,
)


# ---------------------------------------------------------------------------
# Corpus: connected isomorphism classes and random graphs.
# ---------------------------------------------------------------------------

def canonical_edges(n: int, edges) -> tuple:
    best = None
    verts = range(1, n + 1)
    for p in itertools.permutations(verts):
        m = dict(zip(verts, p))
        key = tuple(sorted((min(m[a], m[b]), max(m[a], m[b])) for a, b in edges))
        if best is None or key < best:
            best = key
    return best


@lru_cache(maxsize=None)
def _all_classes(n: int) -> tuple:
    """Isomorphism classes of all (not necessarily connected) graphs on
    vertices 1..n, as canonical edge tuples."""
    if n == 1:
        return ((),)
    out = {}
    for e in _all_classes(n - 1):
        for bits in range(2 ** (n - 1)):
            edges = tuple(e) + tuple(
                (v, n) for v in range(1, n) if bits >> (v - 1) & 1
            )
            out[canonical_edges(n, edges)] = None
    return tuple(out)


@lru_cache(maxsize=None)
def connected_classes(n: int) -> tuple:
    """All connected isomorphism classes on exactly n vertices."""
    out = []
    for e in _all_classes(n):
        g = make_graph(range(1, n + 1), e)
        if is_connected(g):
            out.append(g)
    return tuple(out)


def connected_classes_upto(n: int) -> list[Graph]:
    return [g for k in range(1, n + 1) for g in connected_classes(k)]


def random_connected_graphs(n: int, count: int, seed: int, p: float = 0.5) -> list[Graph]:
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        edges = [
            (i, j)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
            if rng.random() < p
        ]
        g = make_graph(range(1, n + 1), edges)
        if is_connected(g):
            out.append(g)
    return out


def relabelled(g: Graph, rng: random.Random, top: int = 29) -> Graph:
    """g with its vertices renamed to a random subset of 1..top, so bit
    order and the original label order disagree."""
    alpha = dict(zip(g.vertices, rng.sample(range(1, top + 1), g.n)))
    return make_graph(alpha.values(), [(alpha[a], alpha[b]) for a, b in g.edges])


@pytest.fixture(scope="session")
def classes_upto_4():
    return connected_classes_upto(4)


@pytest.fixture(scope="session")
def classes_upto_5():
    return connected_classes_upto(5)


@pytest.fixture(scope="session")
def classes_upto_6():
    return connected_classes_upto(6)


@pytest.fixture(scope="session")
def random_sevens():
    return random_connected_graphs(7, 100, seed=70317)


# ---------------------------------------------------------------------------
# Independent oracles (kept free of the library's internal helpers).
# ---------------------------------------------------------------------------

def oracle_connected(vertices, edges) -> bool:
    """Union-find connectivity."""
    vertices = list(vertices)
    if not vertices:
        return True
    up = {v: v for v in vertices}

    def find(v):
        while up[v] != v:
            up[v] = up[up[v]]
            v = up[v]
        return v

    for a, b in edges:
        up[find(a)] = find(b)
    roots = {find(v) for v in vertices}
    return len(roots) == 1


def oracle_tubes(g: Graph) -> set:
    """Powerset filtered by the union-find connectivity oracle."""
    out = set()
    for r in range(1, g.n + 1):
        for sub in itertools.combinations(g.vertices, r):
            inner = [e for e in g.edges if e[0] in sub and e[1] in sub]
            if oracle_connected(sub, inner):
                out.add(sub)
    return out


def oracle_reconnected_edges(g: Graph, removed) -> set:
    """Edges of the reconnected complement, by enumerating simple paths whose
    internal vertices stay inside the removed set."""
    removed = set(removed)
    rest = [v for v in g.vertices if v not in removed]
    adj = {v: set() for v in g.vertices}
    for a, b in g.edges:
        adj[a].add(b)
        adj[b].add(a)
    out = set()
    for a, b in itertools.combinations(rest, 2):
        found = False
        for r in range(len(removed) + 1):
            for inner in itertools.permutations(sorted(removed), r):
                walk = (a,) + inner + (b,)
                if all(walk[i + 1] in adj[walk[i]] for i in range(len(walk) - 1)):
                    found = True
                    break
            if found:
                break
        if found:
            out.add((a, b))
    return out


def oracle_automorphisms(g: Graph) -> list[dict]:
    """All n! permutations, filtered by edge preservation."""
    es = {frozenset(e) for e in g.edges}
    out = []
    for p in itertools.permutations(g.vertices):
        m = dict(zip(g.vertices, p))
        if {frozenset((m[a], m[b])) for a, b in g.edges} == es:
            out.append(m)
    return out


def subset_precedes(a, b) -> bool:
    """Strict order ≺ on vertex subsets, straight from its definition: a
    comes first when its ascending sequence is a proper initial segment of
    b's, or is greater at the first difference.  Extends proper inclusion."""
    sa, sb = sorted(a), sorted(b)
    for x, y in zip(sa, sb):
        if x != y:
            return x > y
    return len(sa) < len(sb)


def nested_lex_less(t1: NestedSet, t2: NestedSet) -> bool:
    """Strict total order ◁ on equal-cardinality nested sets of one host.

    Compare unions under ≺; on a tie, delete the ≺-maximal tube from each
    side and recurse.  Equal nested sets compare false.
    """
    if t1.host != t2.host:
        raise ValueError("nested sets must share a host")
    if len(t1) != len(t2):
        raise ValueError("nested sets must have equal cardinality")

    def prec_max(family):
        best = family[0]
        for t in family[1:]:
            if subset_precedes(best, t):
                best = t
        return best

    a = list(t1.tubes)
    b = list(t2.tubes)
    while a:
        ua = sorted(set().union(*map(set, a)))
        ub = sorted(set().union(*map(set, b)))
        if ua != ub:
            return subset_precedes(ua, ub)
        a.remove(prec_max(a))
        b.remove(prec_max(b))
    return False


def lex_key(ns: NestedSet) -> tuple:
    """Sort key realizing ◁ on equal-cardinality nested sets of one host.

    ◁ compares unions under ≺; on a tie it deletes the ≺-maximal tube from
    each side and recurses.  The key is the sequence of union keys along
    that recursion: bit reversal (``prec_key``) commutes with union, so
    these are the unions of the reversed masks of the k ≺-smallest tubes,
    k descending.
    """
    keys = sorted(prec_key(m, ns.host.n) for m in ns.masks)
    return tuple(reversed(list(itertools.accumulate(keys, or_))))


def gerst_decomposition_count(g: Graph) -> int:
    """Number of summands in the underlying reconnected-product splitting,
    one one-dimensional summand per vertex subset."""
    return sum(
        1 for r in range(g.n + 1) for _ in itertools.combinations(g.vertices, r)
    )


def oracle_derivation_column(g: Graph, s: tuple, mirrored: bool = False) -> dict:
    """The derivation of the basis element on the b-vertices s, by its
    defining rule: the coefficient of s + {v} is (-1)^#{u in s : u < v}.
    mirrored=True counts u > v instead, the sign of a negative control."""
    out = {}
    for v in g.vertices:
        if v not in s:
            counted = sum(1 for u in s if (u > v if mirrored else u < v))
            out[tuple(sorted(s + (v,)))] = -1 if counted % 2 else 1
    return out


# ---------------------------------------------------------------------------
# Leading terms by elimination, and normality by quadratic divisors: the
# oracle for the library's edge rule.
# ---------------------------------------------------------------------------

def leading_term(vector: dict, basis: list[NestedSet], ordering: str = "lex") -> NestedSet:
    """Monomial of the largest nonzero coefficient of a sparse vector
    ({basis position: coefficient}) under the nested-set order ("lex"), or
    the smallest ("opposite")."""
    if ordering not in ("lex", "opposite"):
        raise ValueError(f"unknown ordering {ordering!r}")
    support = [basis[i] for i, c in vector.items() if c]
    if not support:
        raise ValueError("zero vector has no leading term")
    pick = max if ordering == "lex" else min
    return pick(support, key=lex_key)


def pivot_tubes(relations: RelationSet, ordering: str) -> frozenset:
    """Leading tubes of the span of a weight-two relation set: densify each
    vector, eliminate in the chosen order and read off the pivot monomials."""
    basis = list(relations.basis)
    order = sorted(range(len(basis)), key=lambda i: lex_key(basis[i]),
                   reverse=(ordering == "lex"))
    pivots: dict = {}
    for vec in relations.vectors:
        row = [vec.get(i, 0) for i in range(len(basis))]
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


def grcom_relations(g: Graph) -> RelationSet:
    """The graded commutative relations in weight two: every weight-two
    monomial equals the first one."""
    basis = tuple(free_weight2_basis(g, cap=g.n))
    vectors = tuple({0: Fraction(-1), i: Fraction(1)} for i in range(1, len(basis)))
    return RelationSet(g, basis, vectors)


def hyper_leading_tubes_by_order(g: Graph) -> frozenset:
    """Pivots of the hypercommutative relation span under the reversed
    nested-set order; a set of the same size and normal count as the
    library's reduction-compatible one."""
    if g.n < 2:
        return frozenset()
    return pivot_tubes(hypercom_relations(g), "opposite")


@lru_cache(maxsize=None)
def oracle_leading_tubes(g: Graph, system: str) -> frozenset:
    """Leading weight-two tubes of a system on g, from the relations: the
    pivots for grav and grcom; for hyper the tubes all of whose outside
    neighbours, read off the edge list, exceed their maximum."""
    if system == "grav":
        return pivot_tubes(gravity_relations(g, cap=g.n), "lex")
    if system == "grcom":
        return pivot_tubes(grcom_relations(g), "lex")
    out = set()
    for t in tubes(g, cap=g.n)[:-1]:  # the full set has the last rank
        outside = {b for a, b in g.edges if a in t and b not in t}
        outside |= {a for a, b in g.edges if b in t and a not in t}
        if all(v > max(t) for v in outside):
            out.add(t)
    return frozenset(out)


def oracle_is_normal(ns: NestedSet, system: str) -> bool:
    """No quadratic divisor of an augmented nested set is a leading
    weight-two monomial of the system; grcom monomials are maximal."""
    if system == "grcom" and len(ns) != ns.host.n:
        return False
    for t in ns.tubes:
        if t != ns.host.vertices:
            delta, tube = quadratic_divisor(ns, t)
            if tube in oracle_leading_tubes(delta, system):
                return False
    return True


# ---------------------------------------------------------------------------
# Induction one insertion at a time: the oracle for the one-pass rule.
# ---------------------------------------------------------------------------

def oracle_induction(ns: NestedSet) -> NestedSet:
    """Induction by the largest-node-first rule, on label tuples: while some
    node label has more than one vertex, take the last such node t in
    canonical order, its minimal label vertex v, and add the tube of v and
    the children of t adjacent to v."""
    g = ns.host
    adj = {v: set() for v in g.vertices}
    for a, b in g.edges:
        adj[a].add(b)
        adj[b].add(a)
    tubes = [set(t) for t in ns.tubes]
    while len(tubes) < g.n:
        for t in reversed(tubes):
            inside = [c for c in tubes if c < t]
            kids = [c for c in inside if not any(c < d for d in inside)]
            label = t.difference(*kids)
            if len(label) > 1:
                break
        v = min(label)
        tubes.append({v}.union(*(c for c in kids if adj[v] & c)))
        tubes = [set(t) for t in nested_set(g, tubes).tubes]
    return nested_set(g, tubes)


# ---------------------------------------------------------------------------
# The nested-set walk by its earlier route: proper tubes visited in ≺ order,
# each family sorted into canonical rank order as it is yielded.
# ---------------------------------------------------------------------------

def prec_order_walk(g: Graph, size: int | None = None):
    """The augmented mask tuples of :func:`grakit.tubings._iter_nested_masks`
    (with ``size``, only those of that many proper tubes), from the same
    backtracker over its own compatibility table of the proper tubes in ≺
    order.  The chosen tubes are not in rank order there, so each family is
    sorted; the families come in another order than the library's, which
    makes this the negative control of the order test: ≺ puts {2} before
    {1}, so complete:2 already lists ((2,),) first."""
    tset, rank = _tube_table(g)[:2]
    order = _proper_masks(g)
    comp = [sum(1 << i for i in range(j + 1, len(order)) if _compatible(tset, order[i], order[j]))
            for j in range(len(order))]
    full = ((1 << g.n) - 1,)
    need = size or 0
    chosen: list[int] = []
    stack = [(1 << len(order)) - 1]
    if not size:
        yield full
    while stack:
        a = stack[-1]
        if not a or len(chosen) + a.bit_count() < need:
            stack.pop()
            if chosen:
                chosen.pop()
            continue
        low = a & -a
        stack[-1] = a ^ low
        j = low.bit_length() - 1
        chosen.append(order[j])
        if size is None or len(chosen) == size:
            yield tuple(sorted(chosen, key=rank.__getitem__)) + full
            if size is not None:
                chosen.pop()
                continue
        stack.append((a ^ low) & comp[j])


# ---------------------------------------------------------------------------
# Face and descent counts by their earlier routes: one flood per (tube,
# label) pair, and a walk over every maximal nested set.
# ---------------------------------------------------------------------------

def oracle_f_vector(g: Graph) -> list[int]:
    """Face numbers by the face-polynomial recursion on the root label,
    flooding T - L afresh for every tube T and label L; polynomials packed
    at x = 2^(n*n)."""
    w = g.n * g.n
    poly: dict[int, int] = {}
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


def descents(ns: NestedSet) -> set[tuple[int, int]]:
    """Pairs (v, w) with v < w whose node for v is a child of the node for w,
    on a maximal augmented nested set, where every label is a singleton and
    vertices name tree nodes."""
    if len(ns) != ns.host.n:
        raise ValueError("descents require a maximal nested set")
    parent, label = _mask_tree(ns.masks)
    vs = ns.host.vertices
    return {(vs[label[i].bit_length() - 1], vs[label[p].bit_length() - 1])
            for i, p in enumerate(parent) if p is not None and label[i] < label[p]}


def oracle_root_descents(g: Graph) -> list[list[int]]:
    """Per root bit, the n descent counts of the maximal augmented nested
    sets rooted there, by walking them all: a descent is a child whose
    label (one bit) is below its parent's."""
    out = [[0] * g.n for _ in range(g.n)]
    for masks in _iter_nested_masks(g, g.n - 1):
        parent, label = _mask_tree(masks)
        k = sum(label[i] < label[j] for i, j in enumerate(parent[:-1]))
        out[label[-1].bit_length() - 1][k] += 1
    return out


def ascent_root_descents(g: Graph) -> list[list[int]]:
    """Negative control: the library's per-root recursion counting ascents
    instead of descents.  Reversing the vertex order turns every descent
    into an ascent, so this runs the recursion on the mirrored host and
    reads its roots back in g's bit order.  h is palindromic, so the sum
    over the roots is the same as for descents; the per-root table is not."""
    top = g.vertices[-1] + 1
    mirror = make_graph([top - v for v in g.vertices], [(top - a, top - b) for a, b in g.edges])
    return _root_descents(mirror)[::-1]


# ---------------------------------------------------------------------------
# Dense linear-algebra oracles for the library's sparse rank.
# ---------------------------------------------------------------------------

def zero_matrix(rows: int, cols: int) -> QMatrix:
    return QMatrix(rows, cols, tuple((Fraction(0),) * cols for _ in range(rows)))


def identity_matrix(n: int) -> QMatrix:
    return QMatrix(n, n, tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
    ))


def transpose(m: QMatrix) -> QMatrix:
    if not m.entries:
        return QMatrix(m.cols, m.rows, tuple(() for _ in range(m.cols)))
    return QMatrix(m.cols, m.rows, tuple(zip(*m.entries)))


def matmul(a: QMatrix, b: QMatrix) -> QMatrix:
    """The dense product a @ b."""
    if a.cols != b.rows:
        raise ValueError("shape mismatch in matrix product")
    zero = Fraction(0)
    out = []
    for row in a.entries:
        acc = [zero] * b.cols
        for k, x in enumerate(row):
            if x:
                acc = [s + x * y for s, y in zip(acc, b.entries[k])]
        out.append(tuple(acc))
    return QMatrix(a.rows, b.cols, tuple(out))


def is_zero(m: QMatrix) -> bool:
    return all(x == 0 for row in m.entries for x in row)


def sparse_columns(m: QMatrix) -> list[dict]:
    """The columns of m as {row: entry} dicts, entries kept as they are."""
    return [{i: row[j] for i, row in enumerate(m.entries) if row[j]} for j in range(m.cols)]


def euler_characteristic(c) -> int:
    """The alternating sum of a chain complex's dimensions."""
    return sum((-1) ** k * dim for k, dim in c.dims.items())


def rank_bareiss(m: QMatrix) -> int:
    """Rank of an integer matrix by fraction-free Bareiss elimination."""
    a = [[int(x) for x in row] for row in m.entries]
    rows, cols = m.rows, m.cols
    r = 0
    prev = 1
    for c in range(cols):
        piv = next((i for i in range(r, rows) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                a[i][j] = (a[r][c] * a[i][j] - a[i][c] * a[r][j]) // prev
            a[i][c] = 0
        prev = a[r][c]
        r += 1
        if r == rows:
            break
    return r


def rref(m: QMatrix) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over the rationals; returns (rows, pivot
    column indices)."""
    a = [list(row) for row in m.entries]
    rows, cols = m.rows, m.cols
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = a[r][c]
        a[r] = [x / inv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def kernel_basis(m: QMatrix) -> list[tuple[Fraction, ...]]:
    """Basis of the right kernel, read off the reduced row echelon form;
    always has cols - rank members."""
    if m.cols == 0:
        return []
    if m.rows == 0:
        return [tuple(Fraction(1 if i == j else 0) for i in range(m.cols)) for j in range(m.cols)]
    a, pivots = rref(m)
    free = [c for c in range(m.cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * m.cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -a[r][fc]
        basis.append(tuple(v))
    return basis


# ---------------------------------------------------------------------------
# Negative control.
# ---------------------------------------------------------------------------

def oracle_inversion_sign(seq) -> int:
    """Sign of the permutation sorting seq ascending, by counting every
    out-of-order pair."""
    inv = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq)) if seq[i] > seq[j])
    return -1 if inv % 2 else 1


class _DescendingMergeGrComX(GrComX):
    """Square-zero model whose merge sign sorts the odd factors into
    descending vertex order: a sign mutation that breaks the consecutive
    axiom.  Sorting seq descending takes as many swaps as sorting its
    reverse ascending: C(L, 2) minus the inversions of seq."""

    def _merge_sign(self, seq: list[int]) -> int:
        return _inversion_sign(seq[::-1])


BROKEN_GERST = _DescendingMergeGrComX((0, 1))


# ---------------------------------------------------------------------------
# Axiom-suite oracle.
# ---------------------------------------------------------------------------

def oracle_check_axioms(model: GrComX, g: Graph) -> tuple[tuple[str, str], ...]:
    """The axiom suite with every composition and relabelling evaluated
    afresh for each basis triple: ``engine.check_axioms`` must report exactly
    these violations, in this order, with these details."""
    _check_host(g, DEFAULT_CAP)
    violations = []
    labels = _tube_table(g)[0]
    full = (1 << g.n) - 1
    ts = [m for m in labels if m != full]
    star = {m: _reconnect(g, full & ~m, m) for m in labels}
    sub = {m: _reconnect(g, m, 0) for m in labels}

    def elements(*hosts):
        """Every tuple of basis elements, one over each host."""
        return itertools.product(*[[{a: 1} for a in model.basis(h)] for h in hosts])

    for (x,) in elements(g):
        if model.compose(g, (), x, []) != x:
            violations.append(("unit", f"empty-set composition moved {x}"))
        if model.compose(g, g.vertices, model.unit(), [x]) != x:
            violations.append(("unit", f"full-set composition moved {x}"))

    for m1, m2 in itertools.combinations(ts, 2):
        if m1 & m2 or (m1 | m2) in labels:
            continue
        t1, t2 = labels[m1], labels[m2]
        for x, y, z in elements(_reconnect(g, full & ~(m1 | m2), m1 | m2), sub[m1], sub[m2]):
            lhs = model.circ(g, t2, model.circ(star[m2], t1, x, y), z)
            rhs = model.circ(g, t1, model.circ(star[m1], t2, x, z), y)
            if len(next(iter(y))) * len(next(iter(z))) % 2:
                rhs = {k: -c for k, c in rhs.items()}
            if lhs != rhs:
                violations.append(("parallel", f"tubes {t1},{t2} on {x},{y},{z}"))

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

    for alpha in automorphism_generators(g):
        for m in ts:
            t = labels[m]
            at = tuple(sorted(alpha[u] for u in t))
            for x, y in elements(star[m], sub[m]):
                lhs = model.relabel(alpha, model.circ(g, t, x, y))
                rhs = model.circ(g, at, model.relabel(alpha, x), model.relabel(alpha, y))
                if lhs != rhs:
                    violations.append(("equivariance", f"alpha={alpha} tube {t} on {x},{y}"))
    return tuple(violations)
