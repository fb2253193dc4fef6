"""Tubes, nested sets, nested trees, and the subset order ≺.

A tube is a subset of vertices inducing a connected subgraph.  A nested set
is a family of tubes in which any two members are comparable by inclusion or
disjoint with a disconnected union; augmented nested sets also contain the
full vertex set.

A vertex subset is a bitmask in which bit i stands for the i-th smallest
label, so bit order is label order.  A :class:`NestedSet` is the immutable
pair ``(host, masks)``, masks in canonical (size, lexicographic) order; it
compares and hashes as that pair, and ``len`` counts its tubes.  Labels come
in only through :func:`nested_set`, :func:`nested_set_from_json` and the
label tube arguments of the public per-node functions; they go out through
``NestedSet.tubes``, ``to_json`` and :func:`nested_tree`.

One per-host table (:func:`_tube_table`) gives every tube mask its labels,
canonical rank and neighbourhood; :func:`_compat_table` adds the
compatible tubes, which the one backtracker (:func:`_iter_nested_masks`)
walks in rank order, no sort, yielding the nested sets as the masks their
:class:`NestedSet` holds, lexicographic in their proper tubes' ranks; the
listings build the sets in C (:func:`_wrap`).  One rule (:func:`_mask_tree`)
derives their trees.  ≺ on subsets is the order of bit-reversed masks
(:func:`prec_key`), which orders the weight-two basis; the normality edge
rule of :mod:`grakit.groebner` realizes ◁ without comparing nested sets.
Face and descent counts need no enumeration (see :mod:`grakit.polycomb`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from operator import itemgetter, or_
from typing import Container, Iterable, Iterator, Sequence

from .graphs import (
    DEFAULT_CAP,
    CapExceededError,
    Graph,
    GraphError,
    NotConnectedError,
    _adjacency,
    _is_label,
    _reconnect,
    _shown,
    connected_mask,
    is_connected,
    labels_of,
    mask_of,
)

Tube = tuple[int, ...]


class NestedSet(tuple):
    """The immutable pair ``(host, masks)``: a compatible family of tubes of a
    host graph, masks in the canonical (size, lexicographic) order of its tube
    table.  It equals and hashes as the plain pair; ``len`` counts its tubes.

    The constructor trusts its input; use :func:`nested_set` to validate.
    """

    __slots__ = ()
    host: Graph = property(itemgetter(0))
    masks: tuple[int, ...] = property(itemgetter(1))

    def __new__(cls, host: Graph, masks: tuple[int, ...]) -> NestedSet:
        return tuple.__new__(cls, (host, masks))

    def __getnewargs__(self) -> tuple[Graph, tuple[int, ...]]:  # for pickle and copy
        return tuple(self)

    @property
    def tubes(self) -> tuple[Tube, ...]:
        return tuple(map(_tube_table(self.host)[0].__getitem__, self.masks))

    @property
    def augmented(self) -> bool:
        return (1 << self.host.n) - 1 in self.masks

    def __len__(self) -> int:
        return len(self.masks)

    def to_json(self) -> dict:
        return {"tubes": [list(t) for t in self.tubes]}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NestedSet{" + ", ".join(str(set(t)) for t in self.tubes) + "}"


def nested_set(host: Graph, tubes: Iterable[Iterable[int]], cap: int = DEFAULT_CAP) -> NestedSet:
    """Validated, canonically sorted nested set; a host over ``cap`` is refused first."""
    _check_cap(host, cap)
    ts = sorted({tuple(sorted(t)) for t in tubes}, key=lambda t: (len(t), t))
    bad = [t for t in ts if not _is_tube(host, t)]
    if bad:
        raise NotConnectedError(f"{_shown(bad[0])} is not a tube of the host")
    masks = tuple(mask_of(host, t) for t in ts)
    tset = _tube_table(host)[0]
    for (a, ma), (b, mb) in itertools.combinations(zip(ts, masks), 2):
        if not _compatible(tset, ma, mb):
            raise ValueError(f"tubes {_shown(a)} and {_shown(b)} are not nested")
    return NestedSet(host, masks)


def nested_set_from_json(host: Graph, data: dict, cap: int = DEFAULT_CAP) -> NestedSet:
    """Validated nested set from ``{"tubes": [[labels], ...]}``."""
    ts = data.get("tubes") if isinstance(data, dict) else None
    if not (isinstance(ts, list)
            and all(isinstance(t, list) and all(map(_is_label, t)) for t in ts)):
        raise GraphError('nested set JSON must look like {"tubes": [[1], [1, 2]]}')
    return nested_set(host, ts, cap)


# ---------------------------------------------------------------------------
# Tube enumeration and compatibility.
# ---------------------------------------------------------------------------

TABLE_CACHE_SIZE = 64  # hosts whose per-host tables stay cached


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _tube_table(g: Graph) -> tuple[dict[int, Tube], dict[int, int], dict[int, int]]:
    """The per-host tube table: every tube mask, the full set included,
    mapped to its label tuple (in the canonical (size, lexicographic)
    order), to its rank in that order, and to its neighbourhood, the mask
    of the vertices outside it adjacent to it.
    The cache keeps ``TABLE_CACHE_SIZE`` hosts, not every host ever seen,
    because a table is large: a 12-vertex complete host's holds three dicts
    of 4,095 entries."""
    found = {m: labels_of(g, m) for m in range(1, 1 << g.n) if connected_mask(g, m)}
    labels = dict(sorted(found.items(), key=lambda mt: (len(mt[1]), mt[1])))
    adj = _adjacency(g)
    return (labels, {m: r for r, m in enumerate(labels)},
            {m: reduce(or_, (a for i, a in enumerate(adj) if m >> i & 1)) & ~m for m in labels})


def _is_tube(g: Graph, t: Iterable[int]) -> bool:
    t = tuple(t)  # a vertex listed twice makes no tube
    return bool(t) and len(set(t)) == len(t) and mask_of(g, t) in _tube_table(g)[0]


def _compatible(tset: Container[int], a: int, b: int) -> bool:
    """Whether tube masks a and b nest, in a host whose tube masks are ``tset``."""
    i = a & b
    if i == a or i == b:
        return True
    if i:
        return False
    return (a | b) not in tset


def tubes(g: Graph, cap: int = DEFAULT_CAP) -> list[Tube]:
    """All tubes of a connected host, the full vertex set included,
    sorted by (size, lexicographic members)."""
    _check_host(g, cap)
    return list(_tube_table(g)[0].values())


def _check_cap(g: Graph, cap: int) -> None:
    if g.n > cap:  # before any table over the 2^n vertex subsets
        raise CapExceededError(f"{g.n} vertices exceeds cap {cap}")


def _check_host(g: Graph, cap: int) -> None:
    if g.n == 0:
        raise NotConnectedError("host graph must be nonempty")
    _check_cap(g, cap)  # before the flood, which is quadratic on a long path
    if not is_connected(g):
        raise NotConnectedError("host graph must be connected")


def _proper_masks(g: Graph) -> list[int]:
    """Proper tube masks in ≺ order; the full set has the last rank."""
    return sorted(list(_tube_table(g)[0])[:-1], key=partial(prec_key, n=g.n))


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _compat_table(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The per-host compatibility table: proper tube masks in rank order and
    per-tube bitsets of the compatible tubes with larger index.  Bounded
    like :func:`_tube_table`, whose size it squares."""
    tset = _tube_table(g)[0]
    order = tuple(tset)[:-1]  # the full set has the last rank
    comp = [0] * len(order)
    for j, i in itertools.combinations(range(len(order)), 2):
        if _compatible(tset, order[i], order[j]):
            comp[j] |= 1 << i
    return order, tuple(comp)


def _iter_nested_masks(g: Graph, size: int | None = None) -> Iterator[tuple[int, ...]]:
    """Depth-first enumeration over compatible families of proper tube
    masks, visiting tubes in rank order, so each family is canonical as
    chosen: yielded augmented, with no sort, it is exactly the ``masks`` of
    its :class:`NestedSet`.  A family precedes its extensions, so families
    come in lexicographic order of their rank tuples, the empty one first;
    the CLI writes each set from its parent's text, so this order is relied on.

    With ``size``, only families of exactly that many proper tubes are
    yielded, and a branch is cut once its remaining candidates cannot reach
    the size.
    """
    order, comp = _compat_table(g)
    full = ((1 << g.n) - 1,)
    need = size or 0
    chosen: list[int] = []
    stack = [(1 << len(order)) - 1]  # candidates left at each depth
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
        if size is None:
            yield tuple(chosen) + full
        elif len(chosen) == size:
            yield tuple(chosen) + full
            chosen.pop()
            continue
        stack.append((a ^ low) & comp[j])


def enumerate_nested(g: Graph, augmented: bool, cap: int = DEFAULT_CAP) -> Iterator[NestedSet]:
    """Stream the nested set complex of g, in the walk's rank order, no
    sort: lexicographic in the canonical ranks of the sets' proper tubes.
    The CLI writes each set from its parent's text, so this order is relied on.

    With ``augmented`` the full vertex set is a member of every output.
    Without it, only proper tubes appear and the empty family is left out.
    """
    _check_host(g, cap)
    walk = _iter_nested_masks(g)
    if not augmented:  # the empty family comes first
        walk = (ms[:-1] for ms in itertools.islice(walk, 1, None))
    yield from _wrap(g, walk)


def maximal_nested(g: Graph, cap: int = DEFAULT_CAP) -> list[NestedSet]:
    """Augmented nested sets of the maximal cardinality |V|, in the walk's
    rank order, no sort: lexicographic in their proper tubes' ranks."""
    _check_host(g, cap)
    return list(_wrap(g, _iter_nested_masks(g, g.n - 1)))


def _wrap(g: Graph, walk: Iterable[tuple[int, ...]]) -> Iterator[NestedSet]:
    """The :class:`NestedSet` of g on each mask tuple of ``walk``, built in C."""
    return map(tuple.__new__, itertools.repeat(NestedSet), zip(itertools.repeat(g), walk))


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


def _mask_tree(masks: Sequence[int]) -> tuple[list, list[int]]:
    """Parent index (None for the root) and label of each tube mask of an
    augmented nested set listed by ascending size: a node's parent is its
    smallest strict superset, its label is its mask minus its children."""
    k = len(masks)
    parent: list = [None] * k
    label = list(masks)
    for i in range(k - 1):
        t, j = masks[i], i + 1
        while j < k and masks[j] & t != t:
            j += 1
        if j < k:
            parent[i] = j
            label[j] &= ~t
    return parent, label


def _children(masks: tuple[int, ...], parent: list, i: int) -> list[int]:
    return [c for c, p in zip(masks, parent) if p == i]


def _node(ns: NestedSet, t: Iterable[int]) -> tuple[int, list, list[int]]:
    """Position of the member tube t of an augmented nested set, and its mask tree."""
    if not ns.augmented:
        raise ValueError("nested set must contain the full vertex set")
    t = tuple(t)
    if t not in ns.tubes:
        raise ValueError(f"{t} is not a member of the nested set")
    parent, label = _mask_tree(ns.masks)
    return ns.tubes.index(t), parent, label


@lru_cache(maxsize=1024)
def nested_tree(ns: NestedSet) -> NestedTree:
    """Tree of an augmented nested set under the cover relation of inclusion,
    keyed by label tuples; each node's children come out in canonical order.
    """
    if not ns.augmented:
        raise ValueError("nested set must contain the full vertex set")
    g = ns.host
    tubes = ns.tubes
    up, label = _mask_tree(ns.masks)
    parent: dict = {}
    children: dict = {t: [] for t in tubes}
    labels: dict = {}
    for t, j, m in zip(tubes, up, label):
        parent[t] = None if j is None else tubes[j]
        if j is not None:
            children[tubes[j]].append(t)
        labels[t] = labels_of(g, m)
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
    i, _, label = _node(ns, t)
    return _reconnect(ns.host, label[i], ns.masks[i] & ~label[i])


# ---------------------------------------------------------------------------
# The subset order ≺.
# ---------------------------------------------------------------------------

def prec_key(mask: int, n: int) -> int:
    """Sort key realizing ≺ on the subset masks of an n-vertex host: the
    mask with its bit order reversed.

    ≺ puts a set first when its ascending sequence is an initial segment of
    the other's, or is greater at the first difference; either way the
    smallest vertex in only one of the two sets lies in the later one.
    """
    return int(f"{mask:0{n}b}"[::-1], 2)


# ---------------------------------------------------------------------------
# Quadratic divisors and tube insertion.
# ---------------------------------------------------------------------------

def quadratic_divisor(ns: NestedSet, t: Tube) -> tuple[Graph, Tube]:
    """Two-node subquotient of a nested set at a non-root tube.

    For t with parent p, returns the graph on label(p) ∪ label(t) obtained
    from the induced subgraph on p by reconnecting everything else away,
    together with the tube label(t) of that graph.
    """
    i, parent, label = _node(ns, t)
    if parent[i] is None:
        raise ValueError("the root has no quadratic divisor")
    keep = label[parent[i]] | label[i]
    return _reconnect(ns.host, keep, ns.masks[parent[i]] & ~keep), labels_of(ns.host, label[i])


def _lift(border: dict[int, int], v: int, children: list[int]) -> int:
    """The vertex bit v together with the node's children adjacent to it,
    ``border`` being the host's tube neighbourhoods: the one lift rule.

    The lift of a node tube X into the host, the smallest host tube meeting
    the node label exactly in X and compatible with the node's children, is
    the union of these over X: a child left outside a tube must not touch
    it.  Children are disjoint compatible tubes, hence pairwise
    non-adjacent, so absorbing one brings no other in reach.
    """
    a = border[v]
    for c in children:
        if a & c:
            v |= c
    return v


def _insertions(g: Graph, label: int, children: list[int]) -> list[tuple[int, int]]:
    """(X, lift of X) for every proper tube X of the node graph on ``label``,
    in canonical order.  X is a tube of the node graph exactly when its lift
    is a tube of the host, since the node graph joins two label vertices
    when both touch one child."""
    tset, _, border = _tube_table(g)
    reach = {1 << i: _lift(border, 1 << i, children) for i in range(g.n) if label >> i & 1}
    out = []
    for r in range(1, len(reach)):
        for xs in itertools.combinations(reach, r):
            lift = reduce(or_, map(reach.__getitem__, xs))
            if lift in tset:
                out.append((sum(xs), lift))
    return out


def node_insertions(ns: NestedSet, t: Tube) -> list[tuple[Tube, Tube]]:
    """All one-tube refinements available at a node: pairs of
    (proper tube of the node graph, its lift into the host)."""
    i, parent, label = _node(ns, t)
    g = ns.host
    return [(labels_of(g, x), labels_of(g, lift))
            for x, lift in _insertions(g, label[i], _children(ns.masks, parent, i))]
