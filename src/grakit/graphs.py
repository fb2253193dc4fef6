"""Finite simple graphs with positive integer vertex labels.

The two fundamental operators are the induced subgraph and the reconnected
complement.  Vertex labels double as the total order used by the monomial
machinery, so graphs are always stored with strictly ascending labels and
canonical (min, max) edges.  Connectivity has a single flood,
:func:`component_masks`; :func:`connected_mask` and the reconnected
complement are read off its components.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence


class GraphError(ValueError):
    """Base class for graph validation errors."""


class DuplicateLabelError(GraphError):
    pass


class LoopEdgeError(GraphError):
    pass


class DanglingEndpointError(GraphError):
    pass


class NotConnectedError(GraphError):
    pass


class CapExceededError(GraphError):
    """A size cap guarding an exponential enumeration was exceeded."""


# the one default vertex cap of every exponential entry point
DEFAULT_CAP = 9


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph: ascending vertex labels, canonical edge pairs."""

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    @property
    def n(self) -> int:
        return len(self.vertices)

    def to_json(self) -> dict:
        return {"vertices": list(self.vertices), "edges": [list(e) for e in self.edges]}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph({list(self.vertices)}, {[list(e) for e in self.edges]})"


EMPTY_GRAPH = Graph((), ())


def _is_label(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)  # bool is an int subclass, not a label


ERROR_VALUE_WIDTH = 40  # characters of an offending value an error message shows


def _shown(x) -> str:
    """``repr(x)``, cut to ERROR_VALUE_WIDTH characters, so an error about a
    huge input stays a short line."""
    text = repr(x)
    return text if len(text) <= ERROR_VALUE_WIDTH else text[:ERROR_VALUE_WIDTH - 3] + "..."


def make_graph(vertices: Iterable[int], edges: Iterable[Sequence[int]]) -> Graph:
    """Validate and canonicalize; duplicate edges are absorbed, loops rejected.
    An error names the first offending label or edge, not the whole input."""
    vs = list(vertices)
    for v in vs:
        if not _is_label(v) or v <= 0:
            raise GraphError(f"vertex labels must be positive integers, got {_shown(v)}")
    vset = set(vs)
    if len(vset) != len(vs):
        dup = next(v for v, k in Counter(vs).items() if k > 1)
        raise DuplicateLabelError(f"duplicate vertex label {_shown(dup)}")
    canon = set()
    for e in edges:
        try:
            a, b = e
        except (TypeError, ValueError):
            raise GraphError(f"edge {_shown(e)} is not a pair of vertex labels") from None
        if not (_is_label(a) and _is_label(b) and a in vset and b in vset):
            raise DanglingEndpointError(
                f"edge ({_shown(a)},{_shown(b)}) has an endpoint that is not a vertex label")
        if a == b:
            raise LoopEdgeError(f"loop edge ({_shown(a)},{_shown(b)}) not allowed")
        canon.add((min(a, b), max(a, b)))
    return Graph(tuple(sorted(vs)), tuple(sorted(canon)))


# Largest n a family may have: far above every host any computation here can
# afford, and small enough that building the edge list never costs more than
# the refusal that follows it.
FAMILY_MAX_N = 64


def family(kind: str, n: int) -> Graph:
    """Named graph on labels 1..n: path, cycle, complete, or star (center 1)."""
    if n > FAMILY_MAX_N:
        raise GraphError(f"{kind + ':' + str(n)!r} has more than {FAMILY_MAX_N} vertices")
    if kind == "path":
        if n < 0:
            raise GraphError("path requires n >= 0")
        return make_graph(range(1, n + 1), [(i, i + 1) for i in range(1, n)])
    if kind == "complete":
        if n < 0:
            raise GraphError("complete requires n >= 0")
        return make_graph(range(1, n + 1), itertools.combinations(range(1, n + 1), 2))
    if kind == "cycle":
        if n < 3:
            raise GraphError("cycle requires n >= 3")
        return make_graph(range(1, n + 1), [(i, i % n + 1) for i in range(1, n + 1)])
    if kind == "star":
        if n < 1:
            raise GraphError("star requires n >= 1")
        return make_graph(range(1, n + 1), [(1, i) for i in range(2, n + 1)])
    raise GraphError(f"unknown family {kind!r}")


def parse_graph(spec: str | dict) -> Graph:
    """Accept family shorthand like "path:4" or a {"vertices":..., "edges":...} dict."""
    if isinstance(spec, dict):
        vs, es = spec.get("vertices"), spec.get("edges")
        if not (isinstance(vs, list) and isinstance(es, list)
                and all(isinstance(e, list) and len(e) == 2 for e in es)):
            raise GraphError('graph JSON must look like {"vertices": [1, 2], "edges": [[1, 2]]}')
        return make_graph(vs, es)
    if not isinstance(spec, str):
        raise GraphError(f"a graph is a shorthand string or a JSON object, got {spec!r}")
    kind, _, num = spec.partition(":")
    try:
        n = int(num)
    except ValueError:
        raise GraphError(f"graph shorthand must look like 'path:4', got {spec!r}") from None
    return family(kind, n)


# ---------------------------------------------------------------------------
# Bitmask plumbing.  Vertex i of g occupies bit position index(g)[i]; subsets
# of V are ints.  All derived structure is cached per graph value.
# ---------------------------------------------------------------------------

GRAPH_CACHE_SIZE = 1024  # graphs whose bit index, edge set and adjacency stay cached

@lru_cache(maxsize=GRAPH_CACHE_SIZE)
def _bit_index(g: Graph) -> dict:
    return {v: i for i, v in enumerate(g.vertices)}

@lru_cache(maxsize=GRAPH_CACHE_SIZE)
def _edge_set(g: Graph) -> frozenset:
    return frozenset(g.edges)

@lru_cache(maxsize=GRAPH_CACHE_SIZE)
def _adjacency(g: Graph) -> tuple[int, ...]:
    """Neighbor mask per bit position."""
    idx = _bit_index(g)
    adj = [0] * g.n
    for a, b in g.edges:
        adj[idx[a]] |= 1 << idx[b]
        adj[idx[b]] |= 1 << idx[a]
    return tuple(adj)


def mask_of(g: Graph, subset: Iterable[int]) -> int:
    idx = _bit_index(g)
    m = 0
    try:
        for v in subset:
            m |= 1 << idx[v]
    except KeyError as exc:
        raise GraphError(f"{_shown(exc.args[0])} is not a vertex of the host") from None
    return m


def labels_of(g: Graph, mask: int) -> tuple[int, ...]:
    return tuple(v for i, v in enumerate(g.vertices) if mask >> i & 1)


def component_masks(g: Graph, mask: int) -> list[int]:
    """Connected components of the induced subgraph on `mask`, ordered by
    min bit.  This is the one flood: every connectivity question goes here."""
    adj = _adjacency(g)
    out = []
    rest = mask
    while rest:
        start = rest & -rest
        comp = start
        frontier = start
        while frontier:
            nxt = 0
            f = frontier
            while f:
                b = f & -f
                f ^= b
                nxt |= adj[b.bit_length() - 1]
            nxt &= mask & ~comp
            comp |= nxt
            frontier = nxt
        out.append(comp)
        rest &= ~comp
    return out


def connected_mask(g: Graph, mask: int) -> bool:
    """Is the induced subgraph on `mask` connected?  Empty mask counts as connected."""
    return len(component_masks(g, mask)) <= 1


# ---------------------------------------------------------------------------
# Core operators.
# ---------------------------------------------------------------------------

def induced(g: Graph, subset: Iterable[int]) -> Graph:
    """Induced subgraph on `subset`: the subquotient with nothing reconnected away."""
    return _reconnect(g, mask_of(g, subset), 0)


def reconnected_complement(g: Graph, subset: Iterable[int]) -> Graph:
    """Delete `subset`; join surviving vertices linked by a path through it.

    An edge (a, b) appears exactly when some path of g from a to b has all its
    internal vertices inside `subset`: either (a, b) is an edge of g, or a and
    b both touch one component of the subgraph induced on `subset`.
    """
    vmask = mask_of(g, subset)
    return _reconnect(g, (1 << g.n) - 1 & ~vmask, vmask)


def _reconnect(g: Graph, keep: int, removed: int) -> Graph:
    """The graph on the vertices of `keep` in which two are joined when they
    are adjacent in g or both touch one component of g[removed]."""
    adj = _adjacency(g)
    bits = [i for i in range(g.n) if keep >> i & 1]
    edges = {(i, j) for i in bits for j in bits if i < j and adj[i] >> j & 1}
    for comp in component_masks(g, removed):
        edges.update(itertools.combinations([i for i in bits if adj[i] & comp], 2))
    vs = g.vertices
    return Graph(tuple(vs[i] for i in bits), tuple((vs[i], vs[j]) for i, j in sorted(edges)))


def is_connected(g: Graph) -> bool:
    return connected_mask(g, (1 << g.n) - 1)


def _automorphism_search(g: Graph, prefix: tuple[int, ...]) -> Iterator[dict[int, int]]:
    """The one automorphism backtracker, over bit positions: position i may
    go to each unused w (prefix[i] alone, within the prefix) of its degree whose
    neighbours among the used images are the images of i's earlier
    neighbours.  w ascends, so the maps come sorted by image tuple."""
    adj = _adjacency(g)
    image = [0] * g.n

    def extend(i: int, used: int) -> Iterator[dict[int, int]]:
        if i == g.n:
            yield {g.vertices[a]: g.vertices[b] for a, b in enumerate(image)}
            return
        deg = adj[i].bit_count()
        want = 0
        for u in range(i):
            want |= (adj[i] >> u & 1) << image[u]
        for w in prefix[i:i + 1] or range(g.n):
            if not used >> w & 1 and adj[w].bit_count() == deg and adj[w] & used == want:
                image[i] = w
                yield from extend(i + 1, used | 1 << w)

    return extend(0, 0)


def automorphism_generators(g: Graph, cap: int = DEFAULT_CAP) -> list[dict[int, int]]:
    """Generators of Aut(G), none the identity, by orbit pruning down the
    stabilizer chain: level i = n-1..0 keeps the first map fixing 0..i-1 and
    sending i to each w > i not yet in i's orbit under the maps kept so far."""
    if g.n > cap:
        raise CapExceededError(f"automorphism search capped at {cap} vertices")
    vs, gens = g.vertices, []
    for i in reversed(range(g.n)):
        orbit = {vs[i]}
        for w in range(i + 1, g.n):
            if vs[w] not in orbit and (alpha := next(_automorphism_search(g, (*range(i), w)), None)):
                gens.append(alpha)
                while grown := {a[u] for a in gens for u in orbit} - orbit:
                    orbit |= grown
    return gens
