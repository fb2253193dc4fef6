"""Tubes, nested sets, nested trees, descents, and the two monomial orders.

A tube is a subset of vertices inducing a connected subgraph.  A nested set
is a family of tubes in which any two members are comparable by inclusion or
disjoint with a disconnected union; augmented nested sets also contain the
full vertex set.  Tubes are encoded as sorted vertex tuples and nested sets
as tuples of tubes sorted by (size, lexicographic), which makes equality
structural.

Internally tubes are bitmasks.  One per-host table (:func:`_compat_table`)
gives each tube its labels, canonical rank and compatible tubes; the one
backtracker (:func:`_iter_nested_masks`) walks it to enumerate nested sets,
one rule (:func:`_mask_tree`) derives their trees, and ◁ exists only as the
sort key :func:`lex_key`.  Face counts need no enumeration (see
:func:`grakit.polycomb.f_vector`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from .graphs import (
    CapExceededError,
    Graph,
    GraphError,
    NotConnectedError,
    _adjacency,
    _bit_index,
    _is_label,
    connected_mask,
    induced,
    is_connected,
    labels_of,
    mask_of,
    reconnected_complement,
)

Tube = tuple[int, ...]

DEFAULT_CAP = 9


def _tube_key(t: Tube) -> tuple:
    return (len(t), t)


@dataclass(frozen=True)
class NestedSet:
    """A compatible family of tubes of a fixed host graph.

    The constructor trusts its input; use :func:`nested_set` to validate.
    """

    host: Graph
    tubes: tuple[Tube, ...]

    @property
    def augmented(self) -> bool:
        return self.host.vertices in self.tubes

    def __len__(self) -> int:
        return len(self.tubes)

    def __contains__(self, t: Tube) -> bool:
        return tuple(t) in self.tubes

    def to_json(self) -> dict:
        return {"tubes": [list(t) for t in self.tubes]}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NestedSet{" + ", ".join(str(set(t)) for t in self.tubes) + "}"


def nested_set(host: Graph, tubes: Iterable[Iterable[int]]) -> NestedSet:
    """Validated, canonically sorted nested set."""
    ts = sorted({tuple(sorted(t)) for t in tubes}, key=_tube_key)
    bad = [t for t in ts if not _is_tube(host, t)]
    if bad:
        raise NotConnectedError(f"{bad[0]} is not a tube of the host")
    for a, b in itertools.combinations(ts, 2):
        if not _compatible(host, mask_of(host, a), mask_of(host, b)):
            raise ValueError(f"tubes {a} and {b} are not nested")
    return NestedSet(host, tuple(ts))


def nested_set_from_json(host: Graph, data: dict) -> NestedSet:
    """Validated nested set from ``{"tubes": [[labels], ...]}``."""
    ts = data.get("tubes") if isinstance(data, dict) else None
    if not (isinstance(ts, list)
            and all(isinstance(t, list) and all(map(_is_label, t)) for t in ts)):
        raise GraphError('nested set JSON must look like {"tubes": [[1], [1, 2]]}')
    return nested_set(host, ts)


# ---------------------------------------------------------------------------
# Tube enumeration and compatibility.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _tube_masks(g: Graph) -> frozenset:
    """Masks of all tubes, the full set included."""
    return frozenset(
        m for m in range(1, 1 << g.n) if connected_mask(g, m)
    )


def _is_tube(g: Graph, t: Iterable[int]) -> bool:
    t = tuple(t)  # a vertex listed twice makes no tube
    return bool(t) and len(set(t)) == len(t) and mask_of(g, t) in _tube_masks(g)


def _compatible(g: Graph, a: int, b: int) -> bool:
    i = a & b
    if i == a or i == b:
        return True
    if i:
        return False
    return (a | b) not in _tube_masks(g)


def tubes(g: Graph, cap: int = DEFAULT_CAP) -> list[Tube]:
    """All tubes of a connected host, the full vertex set included,
    sorted by (size, lexicographic members)."""
    _check_host(g, cap)
    return sorted((labels_of(g, m) for m in _tube_masks(g)), key=_tube_key)


def proper_tubes(g: Graph, cap: int = DEFAULT_CAP) -> list[Tube]:
    """Tubes other than the full vertex set."""
    return [t for t in tubes(g, cap) if len(t) < g.n]


def is_nested(g: Graph, tube_family: Iterable[Iterable[int]]) -> bool:
    """Pairwise nestedness check; raises if a member is not a tube."""
    masks = []
    for t in tube_family:
        t = tuple(sorted(t))
        if not _is_tube(g, t):
            raise NotConnectedError(f"{t} is not a tube of the host")
        masks.append(mask_of(g, t))
    return all(
        _compatible(g, a, b) for a, b in itertools.combinations(masks, 2)
    )


def _check_host(g: Graph, cap: int) -> None:
    if g.n == 0:
        raise NotConnectedError("host graph must be nonempty")
    if not is_connected(g):
        raise NotConnectedError("host graph must be connected")
    if g.n > cap:
        raise CapExceededError(f"{g.n} vertices exceeds cap {cap}")


@lru_cache(maxsize=None)
def _compat_table(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...], dict, dict]:
    """The per-host tube table: proper tube masks in ≺ order, per-tube
    bitsets of the compatible tubes with larger index, and for every tube
    mask (the full set included) its label tuple and its rank in the
    canonical (size, lexicographic) order of tubes."""
    labels = {m: labels_of(g, m) for m in _tube_masks(g)}
    order = sorted(
        (m for m in labels if m != (1 << g.n) - 1),
        key=lambda m: prec_key(labels[m]),
    )
    comp = [0] * len(order)
    for j in range(len(order)):
        for i in range(j + 1, len(order)):
            if _compatible(g, order[i], order[j]):
                comp[j] |= 1 << i
    rank = {m: r for r, m in enumerate(sorted(labels, key=lambda m: _tube_key(labels[m])))}
    return tuple(order), tuple(comp), labels, rank


def _iter_nested_masks(g: Graph, size: int | None = None) -> Iterator[tuple[int, ...]]:
    """Backtracking enumeration over compatible families of proper tube
    masks, visiting tubes in ≺ order; the empty family comes first.

    With ``size``, only families of exactly that many tubes are yielded, and
    a branch is cut once its remaining candidates cannot reach the size.
    """
    order, comp, _, _ = _compat_table(g)
    chosen: list[int] = []

    def backtrack(allowed: int) -> Iterator[tuple[int, ...]]:
        if size is None:
            yield tuple(chosen)
        elif len(chosen) == size:
            yield tuple(chosen)
            return
        a = allowed
        while a and (size is None or len(chosen) + a.bit_count() >= size):
            low = a & -a
            a ^= low
            j = low.bit_length() - 1
            chosen.append(order[j])
            yield from backtrack(a & comp[j])
            chosen.pop()

    yield from backtrack((1 << len(order)) - 1)


def enumerate_nested(
    g: Graph,
    augmented: bool,
    include_empty: bool = False,
    cap: int = DEFAULT_CAP,
) -> Iterator[NestedSet]:
    """Stream the nested set complex of g.

    With ``augmented`` the full vertex set is a member of every output.
    Without it, only proper tubes appear and the empty family is emitted
    only when ``include_empty`` is set.
    """
    _check_host(g, cap)
    _, _, labels, rank = _compat_table(g)
    full = g.vertices
    for masks in _iter_nested_masks(g):
        ts = tuple(map(labels.__getitem__, sorted(masks, key=rank.__getitem__)))
        if augmented:
            yield NestedSet(g, ts + (full,))
        elif ts or include_empty:
            yield NestedSet(g, ts)


def maximal_nested(g: Graph, cap: int = DEFAULT_CAP) -> list[NestedSet]:
    """Augmented nested sets of the maximal cardinality |V|."""
    _check_host(g, cap)
    _, _, labels, rank = _compat_table(g)
    full = g.vertices
    return [NestedSet(g, tuple(map(labels.__getitem__, sorted(masks, key=rank.__getitem__)))
                      + (full,))
            for masks in _iter_nested_masks(g, g.n - 1)]


# ---------------------------------------------------------------------------
# Nested trees.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NestedTree:
    """Inclusion forest of an augmented nested set with node labels.

    The label of a node is the part of the node not covered by its children;
    labels partition the vertex set.
    """

    nested: NestedSet
    root: Tube
    parent: dict  # Tube -> Tube | None
    children: dict  # Tube -> tuple[Tube, ...]
    labels: dict  # Tube -> Tube

    def to_dot(self) -> str:
        lines = ["digraph nested_tree {", '  node [shape=box];']
        names = {t: f"n{i}" for i, t in enumerate(self.nested.tubes)}
        for t in self.nested.tubes:
            lab = "{" + ",".join(map(str, t)) + "} | λ={" + ",".join(map(str, self.labels[t])) + "}"
            lines.append(f'  {names[t]} [label="{lab}"];')
        for t in self.nested.tubes:
            p = self.parent[t]
            if p is not None:
                lines.append(f"  {names[p]} -> {names[t]};")
        lines.append("}")
        return "\n".join(lines)


def _mask_tree(masks: list[int]) -> tuple[list, list[int]]:
    """Parent index (None for the root) and label of each tube mask of an
    augmented nested set listed by ascending size: a node's parent is its
    smallest strict superset, its label is its mask minus its children."""
    parent: list = [None] * len(masks)
    label = list(masks)
    for i, t in enumerate(masks):
        for j in range(i + 1, len(masks)):
            if masks[j] & t == t:
                parent[i] = j
                label[j] &= ~t
                break
    return parent, label


@lru_cache(maxsize=100000)
def nested_tree(ns: NestedSet) -> NestedTree:
    """Tree of an augmented nested set under the cover relation of inclusion.

    Relies on the canonical (size, lexicographic) order of ``ns.tubes``,
    which also leaves each node's children in that order.
    """
    if not ns.augmented:
        raise ValueError("nested set must contain the full vertex set")
    g = ns.host
    idx = _bit_index(g)
    tubes = ns.tubes
    up, label = _mask_tree([mask_of(g, t) for t in tubes])
    parent: dict = {}
    children: dict = {t: [] for t in tubes}
    labels: dict = {}
    for t, j, m in zip(tubes, up, label):
        parent[t] = None if j is None else tubes[j]
        if j is not None:
            children[tubes[j]].append(t)
        labels[t] = tuple(v for v in t if m >> idx[v] & 1)
    return NestedTree(
        nested=ns,
        root=g.vertices,
        parent=parent,
        children={t: tuple(c) for t, c in children.items()},
        labels=labels,
    )


def node_graph(ns: NestedSet, t: Tube) -> Graph:
    """The graph a node of the nested tree carries: the induced subgraph on
    the tube with the union of its children reconnected away; its vertex set
    is the node label."""
    tree = nested_tree(ns)
    t = tuple(t)
    covered = set(t) - set(tree.labels[t])
    return reconnected_complement(induced(ns.host, t), covered)


def descents(ns: NestedSet) -> set[tuple[int, int]]:
    """Pairs (v, w) with v < w whose node for v is a child of the node for w.

    Requires a maximal augmented nested set, so every label is a singleton
    and vertices name tree nodes.
    """
    if len(ns) != ns.host.n:
        raise ValueError("descents require a maximal nested set")
    tree = nested_tree(ns)
    lab = tree.labels
    return {(lab[t][0], lab[p][0]) for t, p in tree.parent.items()
            if p is not None and lab[t] < lab[p]}


# ---------------------------------------------------------------------------
# The subset order ≺ and the nested-set order ◁.
# ---------------------------------------------------------------------------

def prec_key(subset: Iterable[int]) -> tuple[int, ...]:
    """Sort key realizing ≺: negate the ascending member sequence.

    Comparing keys lexicographically puts a set before another when its
    sequence is an initial segment of the other's, or is lexicographically
    greater at the first difference.
    """
    return tuple(-v for v in sorted(subset))


def lex_key(ns: NestedSet) -> tuple:
    """Sort key realizing the total order ◁ on equal-cardinality nested sets
    of one host.

    ◁ compares unions under ≺; on a tie it deletes the ≺-maximal tube from
    each side and recurses.  The key is the sequence of union keys along
    that recursion.
    """
    a = list(ns.tubes)
    keys = []
    while a:
        keys.append(prec_key(set().union(*map(set, a))))
        a.remove(max(a, key=prec_key))
    return tuple(keys)


# ---------------------------------------------------------------------------
# Quadratic divisors and tube insertion.
# ---------------------------------------------------------------------------

def quadratic_divisor(ns: NestedSet, t: Tube) -> tuple[Graph, Tube]:
    """Two-node subquotient of a nested set at a non-root tube.

    For t with parent p, returns the graph on label(p) ∪ label(t) obtained
    from the induced subgraph on p by reconnecting everything else away,
    together with the tube label(t) of that graph.
    """
    t = tuple(t)
    if t not in ns.tubes:
        raise ValueError(f"{t} is not a member of the nested set")
    if t == ns.host.vertices:
        raise ValueError("the root has no quadratic divisor")
    tree = nested_tree(ns)
    p = tree.parent[t]
    keep = set(tree.labels[p]) | set(tree.labels[t])
    delta = reconnected_complement(induced(ns.host, p), set(p) - keep)
    return delta, tree.labels[t]


def lift_node_tube(ns: NestedSet, t: Tube, node_tube: Iterable[int]) -> Tube:
    """Tube of the host corresponding to a tube of the node graph at t.

    The lift is the smallest host tube meeting label(t) exactly in
    ``node_tube`` and compatible with the children of t: it absorbs every
    child adjacent to ``node_tube`` (a child left outside a tube must not
    touch it).  Absorption by adjacency, not by connectivity of the union,
    matters when the node tube has several pieces bridged by distinct
    children.  One pass suffices: children are disjoint compatible tubes,
    hence pairwise non-adjacent, so absorbing one brings no other in reach.
    """
    g = ns.host
    adj = _adjacency(g)
    x = mask_of(g, node_tube)
    nbrs = 0
    m = x
    while m:
        low = m & -m
        m ^= low
        nbrs |= adj[low.bit_length() - 1]
    for c in nested_tree(ns).children[tuple(t)]:
        cm = mask_of(g, c)
        if nbrs & cm:
            x |= cm
    return labels_of(g, x)


def node_insertions(ns: NestedSet, t: Tube) -> list[tuple[Tube, Tube]]:
    """All one-tube refinements available at a node: pairs of
    (proper tube of the node graph, its lift into the host)."""
    delta = node_graph(ns, tuple(t))
    out = []
    for s in proper_tubes(delta, cap=max(DEFAULT_CAP, delta.n)):
        out.append((s, lift_node_tube(ns, t, s)))
    return out
