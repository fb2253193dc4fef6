import itertools
import random

import pytest
from hypothesis import given, strategies as st

from grakit import (
    CapExceededError,
    GraphError,
    NotConnectedError,
    enumerate_nested,
    family,
    induced,
    make_graph,
    maximal_nested,
    nested_set,
    nested_set_from_json,
    nested_tree,
    quadratic_divisor,
    reconnected_complement,
    tubes,
)
from grakit.tubings import NestedSet, _tube_table, node_graph, node_insertions, prec_key
from conftest import (
    connected_classes_upto,
    descents,
    lex_key,
    nested_lex_less,
    oracle_automorphisms,
    oracle_reconnected_edges,
    oracle_tubes,
    prec_order_walk,
    random_connected_graphs,
    relabelled,
    subset_precedes,
)


def test_tubes_path3():
    assert tubes(family("path", 3)) == [
        (1,), (2,), (3,), (1, 2), (2, 3), (1, 2, 3),
    ]


def test_tubes_k3_and_point():
    assert len(tubes(family("complete", 3))) == 7
    assert tubes(family("path", 1)) == [(1,)]


def test_tubes_errors():
    with pytest.raises(NotConnectedError):
        tubes(make_graph([1, 2], []))
    with pytest.raises(CapExceededError):
        tubes(family("path", 10))
    assert len(tubes(family("path", 10), cap=10)) == 10 * 11 // 2


def test_cap_refuses_before_the_flood(monkeypatch):
    # the connectivity flood is quadratic on a long path, so an oversized
    # host must be refused without reaching it
    import grakit.graphs as graphs
    import grakit.tubings as tubings

    def flood(*args):
        raise AssertionError("the cap check reached the connectivity flood")

    monkeypatch.setattr(tubings, "is_connected", flood)
    monkeypatch.setattr(graphs, "is_connected", flood)
    monkeypatch.setattr(graphs, "component_masks", flood)
    with pytest.raises(CapExceededError, match="2000 vertices exceeds cap 9"):
        tubes(make_graph(range(1, 2001), [(i, i + 1) for i in range(1, 2000)]))


def test_tubes_against_powerset_oracle():
    from grakit import is_connected

    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 5)
        edges = [
            (i, j)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
            if rng.random() < 0.6
        ]
        g = make_graph(range(1, n + 1), edges)
        if not is_connected(g):
            continue
        assert set(tubes(g)) == oracle_tubes(g)


def test_building_set_closure(classes_upto_5):
    for g in classes_upto_5:
        ts = set(tubes(g))
        for a, b in itertools.combinations(ts, 2):
            if set(a) & set(b):
                assert tuple(sorted(set(a) | set(b))) in ts


def test_is_nested_examples():
    # a family that is not nested is the one refusal of nested_set that is
    # no GraphError; a non-tube or a non-vertex is a GraphError
    p3 = family("path", 3)
    assert nested_set(p3, [[1], [1, 2]]).tubes == ((1,), (1, 2))
    assert nested_set(p3, [[1], [3]]).tubes == ((1,), (3,))
    with pytest.raises(ValueError, match=r"^tubes \(1, 2\) and \(2, 3\) are not nested$") as exc:
        nested_set(p3, [[1, 2], [2, 3]])
    assert not isinstance(exc.value, GraphError)
    with pytest.raises(NotConnectedError, match=r"^\(1, 3\) is not a tube of the host$"):
        nested_set(p3, [[1, 3]])
    with pytest.raises(GraphError, match="^4 is not a vertex of the host$"):
        nested_set(p3, [[1, 4]])
    # a long tube is cut in the message, as a long graph input is
    p14 = family("path", 14)
    with pytest.raises(NotConnectedError) as exc:
        nested_set(p14, [[v for v in p14.vertices if v != 7]])
    assert str(exc.value) == "(1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, ... is not a tube of the host"


def test_nested_set_accepts_exactly_the_nested_pairs(classes_upto_4):
    # two tubes nest when one contains the other, or they are disjoint and
    # their union is no tube; nested_set refuses every other pair as not nested
    for g in classes_upto_4:
        ts = set(oracle_tubes(g))
        for a, b in itertools.combinations(tubes(g), 2):
            sa, sb = set(a), set(b)
            nested = sa <= sb or sb <= sa or not sa & sb and tuple(sorted(sa | sb)) not in ts
            try:
                nested_set(g, (a, b))
                accepted = True
            except ValueError as exc:
                assert not isinstance(exc, GraphError) and str(exc).endswith("are not nested")
                accepted = False
            assert accepted is nested, (g, a, b)


def test_enumerate_nested_k2():
    # Two disjoint singletons of an edge are linked, hence never nested:
    # the complex has two proper faces and three augmented members.
    k2 = family("complete", 2)
    # enumeration visits tubes in canonical rank order, which puts {1}
    # before {2}, and lists a family before its extensions
    plain = [ns.tubes for ns in enumerate_nested(k2, augmented=False)]
    assert plain == [((1,),), ((2,),)]
    aug = [ns.tubes for ns in enumerate_nested(k2, augmented=True)]
    assert aug == [((1, 2),), ((1,), (1, 2)), ((2,), (1, 2))]


def _rank_lex_increasing(sets, n: int) -> bool:
    """Whether nested sets of an n-vertex host, given as label tuples of their
    tubes in canonical order, come in strictly increasing lexicographic order
    of the canonical ranks of their proper tubes; a tube's rank is its place
    in (size, members) order."""
    keys = [tuple((len(t), t) for t in ts if len(t) < n) for ts in sets]
    return all(a < b for a, b in zip(keys, keys[1:]))


def _walk_listings(g):
    return {"augmented": list(enumerate_nested(g, augmented=True)),
            "plain": list(enumerate_nested(g, augmented=False)),
            "maximal": maximal_nested(g)}


def test_walk_lists_sets_in_rank_tuple_order(classes_upto_5):
    rng = random.Random(22031)
    for g in classes_upto_5 + [relabelled(g, rng) for g in classes_upto_5]:
        for name, sets in _walk_listings(g).items():
            assert _rank_lex_increasing([ns.tubes for ns in sets], g.n), (g, name)


def test_walk_yields_the_sets_of_the_prec_order_walk(classes_upto_6):
    for g in classes_upto_6:
        oracle = list(prec_order_walk(g))
        expect = {"augmented": oracle,
                  "plain": [ms[:-1] for ms in oracle[1:]],  # the empty family comes first
                  "maximal": list(prec_order_walk(g, g.n - 1))}
        for name, sets in _walk_listings(g).items():
            assert sorted(ns.masks for ns in sets) == sorted(expect[name]), (g, name)


def test_prec_order_walk_fails_the_order_test():
    # negative control: ≺ puts {2} before {1}
    k2 = family("complete", 2)
    sets = [tuple(map(_tube_table(k2)[0].__getitem__, ms)) for ms in prec_order_walk(k2)]
    assert sets == [((1, 2),), ((2,), (1, 2)), ((1,), (1, 2))]
    assert not _rank_lex_increasing(sets, 2)


def test_enumerate_nested_p3_count_and_determinism():
    p3 = family("path", 3)
    first = [ns.tubes for ns in enumerate_nested(p3, augmented=True)]
    second = [ns.tubes for ns in enumerate_nested(p3, augmented=True)]
    assert first == second
    assert len(first) == 11
    assert len(set(first)) == 11


def test_nested_count_matches_f_vector(classes_upto_6):
    # f_vector counts by a recursion over tubes; the backtracker enumerates.
    from grakit import f_vector

    rng = random.Random(7)
    sevens = []
    for g in random_connected_graphs(7, 4, seed=7077, p=0.35):
        labels = dict(zip(g.vertices, rng.sample(range(1, 40), 7)))
        sevens.append(make_graph(labels.values(), [(labels[a], labels[b]) for a, b in g.edges]))
    for g in classes_upto_6 + sevens:
        augmented = list(enumerate_nested(g, augmented=True))
        sizes = [len(ns) for ns in augmented]
        assert f_vector(g) == [sizes.count(g.n - i) for i in range(g.n)]
        maximal = maximal_nested(g)
        assert maximal == [ns for ns in augmented if len(ns) == g.n]


def test_maximal_nested_counts():
    assert len(maximal_nested(family("path", 3))) == 5
    assert len(maximal_nested(family("complete", 3))) == 6
    assert len(maximal_nested(family("complete", 2))) == 2


def test_nested_set_validation():
    p3 = family("path", 3)
    with pytest.raises(ValueError):
        nested_set(p3, [[1, 2], [2, 3], [1, 2, 3]])
    ns = nested_set(p3, [[1, 2, 3], [1]])
    assert ns.tubes == ((1,), (1, 2, 3))
    assert ns.augmented
    # complete graphs reject disjoint singleton pairs
    with pytest.raises(ValueError):
        nested_set(family("complete", 4), [[1], [3, 4], [1, 2, 3, 4]])
    # a tube that lists a vertex twice is no tube
    with pytest.raises(GraphError):
        nested_set(p3, [[2, 2], [1, 2, 3]])
    with pytest.raises(GraphError):
        nested_set(p3, [[1, 1], [1, 2], [1, 2, 3]])


def test_nested_set_json_roundtrip():
    p3 = family("path", 3)
    ns = nested_set(p3, [[1], [1, 2], [1, 2, 3]])
    assert nested_set_from_json(p3, ns.to_json()) == ns


def test_nested_tree_two_branch():
    # same tree shape as the motivating picture, on a host where the family
    # is genuinely nested
    g = make_graph([1, 2, 3, 4], [[1, 2], [2, 3], [3, 4]])
    ns = nested_set(g, [[1], [3, 4], [1, 2, 3, 4]])
    tree = nested_tree(ns)
    assert tree.labels[(1, 2, 3, 4)] == (2,)
    assert tree.labels[(1,)] == (1,)
    assert tree.labels[(3, 4)] == (3, 4)
    assert tree.parent[(1,)] == (1, 2, 3, 4)
    assert tree.parent[(3, 4)] == (1, 2, 3, 4)
    assert tree.children[(1, 2, 3, 4)] == ((1,), (3, 4))


def test_nested_tree_chain_and_singleton():
    p3 = family("path", 3)
    chain = nested_set(p3, [[1], [1, 2], [1, 2, 3]])
    tree = nested_tree(chain)
    assert [tree.labels[t] for t in chain.tubes] == [(1,), (2,), (3,)]
    single = nested_set(p3, [[1, 2, 3]])
    assert nested_tree(single).labels[(1, 2, 3)] == (1, 2, 3)
    with pytest.raises(ValueError):
        nested_tree(nested_set(p3, [[1]]))


def test_nested_tree_cache_is_bounded():
    # one label tree per nested set asked about, so the bound is that of boundary
    from grakit import boundary

    assert nested_tree.cache_info().maxsize == boundary.cache_info().maxsize == 1024


def test_nested_tree_dot():
    g = make_graph([1, 2, 3, 4], [[1, 2], [2, 3], [3, 4]])
    ns = nested_set(g, [[3, 4], [1, 2, 3, 4]])
    dot = nested_tree(ns).to_dot()
    assert "{3,4} | λ={3,4}" in dot
    assert "->" in dot


def test_node_graph_and_insertions_against_oracles(classes_upto_5):
    # at each node, the node graph is the tube with its children reconnected
    # away, and the insertions are its proper tubes, each lifted to the
    # smallest compatible host tube that meets the node label in it
    for g in classes_upto_5:
        host_tubes = oracle_tubes(g)
        for ns in enumerate_nested(g, augmented=True):
            members = [set(t) for t in ns.tubes]
            # host tubes compatible with every member, by the definition
            compatible = [u for u in map(set, host_tubes) if all(
                u <= s or s < u or not s & u and tuple(sorted(s | u)) not in host_tubes
                for s in members)]
            for t, ts in zip(ns.tubes, members):
                removed = set().union(*(c for c in members if c < ts))
                label = ts - removed
                h = node_graph(ns, t)
                assert set(h.vertices) == label
                sub = make_graph(t, [e for e in g.edges if set(e) <= ts])
                assert set(h.edges) == oracle_reconnected_edges(sub, removed)
                got = node_insertions(ns, t)
                assert sorted(x for x, _ in got) == sorted(oracle_tubes(h) - {h.vertices})
                for x, lift in got:
                    assert lift in host_tubes and set(lift) & label == set(x)
                    nested_set(g, [*ns.tubes, lift])  # refuses a family that is not nested
                    assert all(set(lift) <= u for u in compatible if u & label == set(x))


def test_descents_examples():
    p3 = family("path", 3)
    assert descents(nested_set(p3, [[3], [2, 3], [1, 2, 3]])) == set()
    assert descents(nested_set(p3, [[1], [1, 2], [1, 2, 3]])) == {(1, 2), (2, 3)}
    k2 = family("complete", 2)
    assert descents(nested_set(k2, [[1], [1, 2]])) == {(1, 2)}
    assert descents(nested_set(k2, [[2], [1, 2]])) == set()
    with pytest.raises(ValueError):
        descents(nested_set(p3, [[1, 2, 3]]))


def test_descent_multiset_p3():
    p3 = family("path", 3)
    counts = sorted(len(descents(ns)) for ns in maximal_nested(p3))
    assert counts == [0, 1, 1, 1, 2]


def test_descents_equivariant(classes_upto_5):
    for g in classes_upto_5:
        base = sorted(len(descents(ns)) for ns in maximal_nested(g))
        for alpha in oracle_automorphisms(g):
            relabeled = sorted(
                len(descents(nested_set(g, [[alpha[v] for v in t] for t in ns.tubes])))
                for ns in maximal_nested(g)
            )
            assert relabeled == base


def test_subset_precedes_examples():
    assert subset_precedes([1], [1, 2])
    assert subset_precedes([2], [1, 3])
    assert not subset_precedes([1, 2], [1, 2])


def _prec(subset) -> int:
    # the library's ≺ key on the mask with bit v - 1 for label v in 1..9
    return prec_key(sum(1 << (v - 1) for v in subset), 9)


def test_subset_precedes_is_total_order():
    ground = [
        frozenset(c)
        for r in range(1, 6)
        for c in itertools.combinations(range(1, 6), r)
    ]
    for a, b in itertools.combinations(ground, 2):
        assert subset_precedes(a, b) != subset_precedes(b, a)
        assert subset_precedes(a, b) == (_prec(a) < _prec(b))
    for a, b, c in itertools.permutations(ground, 3):
        if subset_precedes(a, b) and subset_precedes(b, c):
            assert subset_precedes(a, c)


@given(
    st.sets(st.integers(1, 9), min_size=1, max_size=5),
    st.sets(st.integers(1, 9), min_size=1, max_size=5),
)
def test_subset_precedes_extends_inclusion(a, b):
    if a < b:
        assert subset_precedes(a, b)
    assert subset_precedes(a, b) == (_prec(a) < _prec(b))


def test_nested_lex_less_examples():
    p3 = family("path", 3)
    a = nested_set(p3, [[1, 2], [1, 2, 3]])
    b = nested_set(p3, [[2, 3], [1, 2, 3]])
    assert nested_lex_less(b, a)
    assert not nested_lex_less(a, b)
    assert not nested_lex_less(a, a)
    with pytest.raises(ValueError):
        nested_lex_less(a, nested_set(p3, [[1, 2, 3]]))


def test_nested_lex_total_on_equal_sizes(classes_upto_5):
    # lex_key compares bit-reversed masks, which needs bit order to be label
    # order: relabelled hosts check that
    rng = random.Random(4729)
    relabelled_hosts = [relabelled(g, rng) for g in connected_classes_upto(4)]
    relabelled_hosts += [relabelled(family(k, 5), rng)
                         for k in ("path", "cycle", "star", "complete")]
    for g in classes_upto_5 + relabelled_hosts:
        by_size = {}
        for ns in enumerate_nested(g, augmented=True):
            by_size.setdefault(len(ns), []).append(ns)
        for group in by_size.values():
            for a, b in itertools.combinations(group, 2):
                assert nested_lex_less(a, b) != nested_lex_less(b, a)
            ordered = sorted(group, key=lex_key)
            assert all(
                nested_lex_less(ordered[i], ordered[i + 1])
                for i in range(len(ordered) - 1)
            )


def _compose_shape(g, t, outer: NestedSet, inner: NestedSet) -> NestedSet:
    """Substitute an augmented shape on the reconnected complement with an
    augmented shape on the tube; a tube of the complement lifts across t
    exactly when their union is a tube of g."""
    ts = set(tubes(g))
    lifted = []
    for s in outer.tubes:
        u = tuple(sorted(set(s) | set(t)))
        lifted.append(u if u in ts else s)
    return nested_set(g, list(inner.tubes) + lifted)


def test_ordering_compatible_with_composition(classes_upto_4):
    # composing with a fixed factor is strictly monotone in the other
    for g in classes_upto_4:
        for t in tubes(g)[:-1]:
            gs = reconnected_complement(g, t)
            gt = induced(g, t)
            outer_by_size = {}
            for ns in enumerate_nested(gs, augmented=True):
                outer_by_size.setdefault(len(ns), []).append(ns)
            inner_unit = nested_set(gt, [gt.vertices])
            for group in outer_by_size.values():
                for a, b in itertools.combinations(group, 2):
                    ca = _compose_shape(g, t, a, inner_unit)
                    cb = _compose_shape(g, t, b, inner_unit)
                    assert nested_lex_less(a, b) == nested_lex_less(ca, cb)
            inner_by_size = {}
            for ns in enumerate_nested(gt, augmented=True):
                inner_by_size.setdefault(len(ns), []).append(ns)
            outer_unit = nested_set(gs, [gs.vertices]) if gs.n else None
            if outer_unit is None:
                continue
            for group in inner_by_size.values():
                for a, b in itertools.combinations(group, 2):
                    ca = _compose_shape(g, t, outer_unit, a)
                    cb = _compose_shape(g, t, outer_unit, b)
                    assert nested_lex_less(a, b) == nested_lex_less(ca, cb)


def test_quadratic_divisor_two_level():
    p3 = family("path", 3)
    ns = nested_set(p3, [[2, 3], [1, 2, 3]])
    delta, tube = quadratic_divisor(ns, (2, 3))
    assert delta == p3
    assert tube == (2, 3)


def test_quadratic_divisor_examples():
    g = make_graph([1, 2, 3, 4], [[1, 2], [2, 3], [3, 4]])
    ns = nested_set(g, [[1], [3, 4], [1, 2, 3, 4]])
    delta, tube = quadratic_divisor(ns, (3, 4))
    assert delta == make_graph([2, 3, 4], [[2, 3], [3, 4]])
    assert tube == (3, 4)
    p3 = family("path", 3)
    chain = nested_set(p3, [[1], [1, 2], [1, 2, 3]])
    delta, tube = quadratic_divisor(chain, (1,))
    assert delta == induced(p3, [1, 2])
    assert tube == (1,)
    with pytest.raises(ValueError):
        quadratic_divisor(chain, (1, 2, 3))
    with pytest.raises(ValueError):
        quadratic_divisor(chain, (2, 3))


def test_quadratic_divisor_identities(classes_upto_5):
    # every augmented set of the relabelled classes, the maximal ones of the
    # classes themselves
    rng = random.Random(5039)
    cases = [(g, maximal_nested(g)) for g in classes_upto_5]
    cases += [(g, list(enumerate_nested(g, augmented=True)))
              for g in (relabelled(g, rng) for g in classes_upto_5)]
    for g, sets in cases:
        for ns in sets:
            again = nested_set(g, ns.tubes)
            assert again == ns and hash(again) == hash(ns)
            tree = nested_tree(ns)
            for t in ns.tubes:
                if t == g.vertices:
                    continue
                delta, tube = quadratic_divisor(ns, t)
                parent = tree.parent[t]
                assert induced(delta, tube) == reconnected_complement(
                    induced(g, t), set(t) - set(tree.labels[t])
                )
                assert reconnected_complement(delta, tube) == reconnected_complement(
                    induced(g, parent), set(parent) - set(tree.labels[parent])
                )


def test_table_caches_are_bounded():
    from grakit.tubings import TABLE_CACHE_SIZE, _compat_table, _tube_table

    g = family("cycle", 5)
    before = [ns.tubes for ns in enumerate_nested(g, True)]
    table, compat = _tube_table(g), _compat_table(g)
    # more distinct hosts than the caches hold: paths shifted along the labels
    for k in range(TABLE_CACHE_SIZE + 5):
        h = make_graph([k + 100, k + 101, k + 102], [(k + 100, k + 101), (k + 101, k + 102)])
        assert len(list(enumerate_nested(h, True))) == 11
    for cached in (_tube_table, _compat_table):
        assert cached.cache_info().currsize <= TABLE_CACHE_SIZE
    assert _tube_table(g) is not table  # evicted and built again, equal
    assert _tube_table(g) == table and _compat_table(g) == compat
    assert [ns.tubes for ns in enumerate_nested(g, True)] == before
