import random

import pytest
from hypothesis import given, strategies as st

from grakit import (
    CapExceededError,
    DanglingEndpointError,
    DuplicateLabelError,
    EMPTY_GRAPH,
    Graph,
    GraphError,
    LoopEdgeError,
    automorphisms,
    connected_components,
    disjoint_union,
    family,
    induced,
    is_connected,
    make_graph,
    parse_graph,
    reconnected_complement,
)
from grakit.graphs import automorphism_generators
from conftest import oracle_automorphisms, oracle_reconnected_edges, relabelled


def test_make_graph_empty():
    assert make_graph([], []) == EMPTY_GRAPH


def test_make_graph_path3():
    g = make_graph([3, 1, 2], [[2, 1], [2, 3]])
    assert g.vertices == (1, 2, 3)
    assert g.edges == ((1, 2), (2, 3))


def test_make_graph_duplicate_edge_absorbed():
    g = make_graph([1, 2, 3], [[1, 2], [2, 1], [2, 3]])
    assert g.edges == ((1, 2), (2, 3))


def test_make_graph_errors():
    with pytest.raises(LoopEdgeError):
        make_graph([1], [[1, 1]])
    with pytest.raises(DuplicateLabelError):
        make_graph([1, 1, 2], [])
    with pytest.raises(DanglingEndpointError):
        make_graph([1, 2], [[1, 3]])
    with pytest.raises(GraphError):
        make_graph([0, 1], [])


def test_make_graph_checks_endpoints_before_loops():
    # an edge from a missing or non-label endpoint to itself is dangling,
    # not a loop: the loop check only applies to edges between vertices
    with pytest.raises(DanglingEndpointError, match=r"edge \(7,7\)"):
        make_graph([1], [[7, 7]])
    with pytest.raises(DanglingEndpointError, match=r"edge \(True,True\)"):
        make_graph([1], [[True, True]])
    with pytest.raises(LoopEdgeError, match=r"loop edge \(1,1\)"):
        make_graph([1], [[1, 1]])


def test_make_graph_rejects_bool_labels():
    with pytest.raises(GraphError):
        make_graph([True, 2], [(True, 2)])
    with pytest.raises(GraphError):
        make_graph([1, 2], [(True, 2)])  # True == 1, but it is no label


@given(st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6)), max_size=12))
def test_make_graph_canonicalization_is_orientation_free(pairs):
    pairs = [(a, b) for a, b in pairs if a != b]
    g1 = make_graph(range(1, 7), pairs)
    g2 = make_graph(range(1, 7), [(b, a) for a, b in reversed(pairs)])
    assert g1 == g2


def test_family_members():
    assert family("complete", 3).edges == ((1, 2), (1, 3), (2, 3))
    assert family("path", 3) == make_graph([1, 2, 3], [[1, 2], [2, 3]])
    assert family("star", 4).edges == ((1, 2), (1, 3), (1, 4))
    assert family("cycle", 3) == family("complete", 3)
    assert family("path", 0) == EMPTY_GRAPH


def test_family_minimums():
    with pytest.raises(GraphError):
        family("cycle", 2)
    with pytest.raises(GraphError):
        family("star", 0)
    with pytest.raises(GraphError):
        family("triangle", 3)


def test_family_ceiling_refuses_before_building(monkeypatch):
    import grakit.graphs as graphs

    assert family("complete", graphs.FAMILY_MAX_N).n == graphs.FAMILY_MAX_N

    def build(*args):
        pytest.fail("the family was built before its size was checked")

    monkeypatch.setattr(graphs, "make_graph", build)
    for kind in ("path", "cycle", "complete", "star"):
        with pytest.raises(GraphError, match="more than"):
            family(kind, graphs.FAMILY_MAX_N + 1)


def test_parse_graph():
    assert parse_graph("path:4") == family("path", 4)
    assert parse_graph({"vertices": [1, 2], "edges": [[1, 2]]}) == family("path", 2)
    with pytest.raises(GraphError):
        parse_graph("path")


def test_induced():
    p3 = family("path", 3)
    assert induced(p3, [1, 3]).edges == ()
    assert induced(family("complete", 3), [1, 2]).edges == ((1, 2),)
    assert induced(p3, p3.vertices) == p3
    with pytest.raises(GraphError):
        induced(p3, [4])


def test_reconnected_complement_examples():
    p4 = family("path", 4)
    assert reconnected_complement(p4, [2, 3]) == make_graph([1, 4], [[1, 4]])
    g = family("star", 5)
    assert reconnected_complement(g, []) == g
    assert reconnected_complement(g, g.vertices) == EMPTY_GRAPH
    # removing the star center joins all leaves pairwise
    got = reconnected_complement(g, [1])
    assert set(got.edges) == {(a, b) for a in (2, 3, 4) for b in (3, 4, 5) if a < b}


def test_reconnected_complement_against_path_oracle():
    # the second half draws up to 8 permuted labels from 1..20, so bit
    # positions and labels differ
    rng = random.Random(4)
    for trial in range(120):
        gapped = trial >= 60
        n = rng.randint(1, 8 if gapped else 6)
        labels = rng.sample(range(1, 21), n) if gapped else list(range(1, n + 1))
        edges = [
            (labels[i], labels[j])
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.5
        ]
        g = make_graph(labels, edges)
        removed = [v for v in g.vertices if rng.random() < 0.4]
        got = reconnected_complement(g, removed)
        assert set(got.edges) == oracle_reconnected_edges(g, removed)


def test_composite_identities():
    # (g*_U)*_{V\U} = g*_V ; (g_V)_U = g_U ; (g*_U)_{V\U} = (g_V)*_U
    rng = random.Random(11)
    for _ in range(80):
        n = rng.randint(1, 8)
        edges = [
            (i, j)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
            if rng.random() < 0.45
        ]
        g = make_graph(range(1, n + 1), edges)
        v = [x for x in g.vertices if rng.random() < 0.6]
        u = [x for x in v if rng.random() < 0.5]
        rest = [x for x in v if x not in u]
        assert reconnected_complement(reconnected_complement(g, u), rest) == \
            reconnected_complement(g, v)
        assert induced(induced(g, v), u) == induced(g, u)
        assert induced(reconnected_complement(g, u), rest) == \
            reconnected_complement(induced(g, v), u)


def test_reconnected_complement_respects_disjoint_union():
    rng = random.Random(5)
    for _ in range(30):
        g1 = make_graph([1, 2, 3], [(1, 2), (2, 3)] if rng.random() < 0.5 else [(1, 3)])
        g2 = make_graph([4, 5, 6], [(4, 5)] if rng.random() < 0.5 else [(4, 5), (5, 6)])
        g = disjoint_union(g1, g2)
        v = [x for x in g.vertices if rng.random() < 0.5]
        v1 = [x for x in v if x in g1.vertices]
        v2 = [x for x in v if x in g2.vertices]
        assert reconnected_complement(g, v) == disjoint_union(
            reconnected_complement(g1, v1), reconnected_complement(g2, v2)
        )


def test_connected_components():
    p3 = family("path", 3)
    assert connected_components(induced(p3, [1, 3])) == [(1,), (3,)]
    assert connected_components(family("complete", 4)) == [(1, 2, 3, 4)]
    assert connected_components(EMPTY_GRAPH) == []
    assert is_connected(EMPTY_GRAPH)


def test_automorphisms_examples():
    assert len(automorphisms(family("path", 3))) == 2
    assert len(automorphisms(family("complete", 4))) == 24
    assert automorphisms(family("path", 1)) == [{1: 1}]


def test_automorphism_counts_families():
    import math

    for n in range(2, 6):
        assert len(automorphisms(family("complete", n))) == math.factorial(n)
        assert len(automorphisms(family("path", n))) == 2
    for n in range(3, 7):
        assert len(automorphisms(family("cycle", n))) == 2 * n


def test_automorphisms_against_brute_force(classes_upto_5):
    # the search's list, in its own order, is sorted by image tuple and
    # equals the brute-force list: on random graphs, on every class with at
    # most five vertices, and on seeded relabelled copies of those classes
    rng = random.Random(9)
    graphs = []
    for _ in range(25):
        n = rng.randint(1, 5)
        edges = [
            (i, j)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
            if rng.random() < 0.5
        ]
        graphs.append(make_graph(range(1, n + 1), edges))
    graphs += classes_upto_5
    graphs += [relabelled(g, rng) for g in classes_upto_5]
    for g in graphs:
        got = automorphisms(g)
        images = [tuple(m[v] for v in g.vertices) for m in got]
        assert images == sorted(images), g
        want = oracle_automorphisms(g)
        assert got == sorted(want, key=lambda m: tuple(m[v] for v in g.vertices)), g


def test_automorphism_cap():
    with pytest.raises(CapExceededError):
        automorphisms(family("path", 11))
    assert len(automorphisms(family("path", 11), cap=11)) == 2


def _closure(g, gens) -> set:
    """Image tuples of the group the maps generate, from the identity by
    composing with the generators until nothing new appears."""
    vs = g.vertices
    group, todo = {vs}, [vs]
    while todo:
        images = dict(zip(vs, todo.pop()))
        for alpha in gens:
            composed = tuple(alpha[images[v]] for v in vs)
            if composed not in group:
                group.add(composed)
                todo.append(composed)
    return group


def test_automorphism_generators_generate_the_group(classes_upto_6):
    # on every class with at most six vertices and on seeded relabelled
    # copies, the closure of the generating set is the whole automorphism
    # list; each generator is one of the automorphisms, and none is the identity
    rng = random.Random(21)
    for g in classes_upto_6 + [relabelled(g, rng) for g in classes_upto_6]:
        gens = automorphism_generators(g)
        every = {tuple(m[v] for v in g.vertices) for m in automorphisms(g)}
        assert all(tuple(a[v] for v in g.vertices) in every for a in gens), g
        assert all(any(a[v] != v for v in g.vertices) for a in gens), g
        assert _closure(g, gens) == every, g


def test_automorphism_generator_counts_families():
    # the counts that orbit pruning down the stabilizer chain gives
    for n in range(3, 10):
        counts = [len(automorphism_generators(family(kind, n)))
                  for kind in ("complete", "path", "cycle", "star")]
        assert counts == [n - 1, 1, 2, n - 2], n
    assert automorphism_generators(family("path", 1)) == []
    assert automorphism_generators(EMPTY_GRAPH) == []


def test_automorphism_generators_refuse_as_the_search_does():
    for g in (EMPTY_GRAPH, family("path", 1), family("path", 3), family("cycle", 10), family("complete", 11)):
        for cap in (-1, 0, 1, 3, 9, 10):
            refusals = []
            for search in (automorphisms, automorphism_generators):
                try:
                    search(g, cap)
                except CapExceededError as exc:
                    refusals.append(str(exc))
                else:
                    refusals.append(None)
            assert refusals[0] == refusals[1], (g, cap)
            assert (refusals[0] is None) == (g.n <= cap), (g, cap)


def test_neighbors_refuses_a_non_vertex():
    p3 = family("path", 3)
    assert p3.neighbors(2) == (1, 3)
    with pytest.raises(GraphError, match="9 is not a vertex of"):
        p3.neighbors(9)


def test_graph_caches_are_bounded():
    from grakit.graphs import GRAPH_CACHE_SIZE, _adjacency, _bit_index, _edge_set

    g = family("cycle", 5)
    before = [g.neighbors(v) for v in g.vertices], len(automorphisms(g))
    index = _bit_index(g)
    # more distinct graphs than the caches hold: paths shifted along the labels
    for k in range(GRAPH_CACHE_SIZE + 5):
        h = make_graph([k + 100, k + 101, k + 102], [(k + 100, k + 101), (k + 101, k + 102)])
        assert h.neighbors(k + 101) == (k + 100, k + 102)
        assert len(automorphisms(h)) == 2  # reads the adjacency masks
    for cached in (_bit_index, _edge_set, _adjacency):
        assert cached.cache_info().currsize <= GRAPH_CACHE_SIZE
    assert _bit_index(g) is not index  # evicted and built again, equal
    assert _bit_index(g) == index
    assert ([g.neighbors(v) for v in g.vertices], len(automorphisms(g))) == before
