import math
import random
import time
from fractions import Fraction

import pytest

from grakit import (
    CapExceededError,
    ChainComplex,
    CobarComplex,
    boundary,
    cobar_complex,
    family,
    free_weight2_basis,
    f_vector,
    gravity_dims,
    gravity_relations,
    h_poly_from_descents,
    homology_dims,
    hypercom_relations,
    induction,
    is_normal,
    koszul_check,
    make_graph,
    maximal_nested,
    nested_set,
    nested_tree,
    normal_counts,
    normal_monomials,
    quadratic_divisor,
    reduction,
    tubes,
    weight2_leading_tubes,
)
from grakit.groebner import SYSTEMS
from grakit.polycomb import h_poly_from_f, trim
from grakit.tubings import NestedSet, enumerate_nested
from conftest import (
    descents,
    euler_characteristic,
    grcom_relations,
    hyper_leading_tubes_by_order,
    leading_term,
    lex_key,
    oracle_induction,
    oracle_is_normal,
    oracle_leading_tubes,
    pivot_tubes,
    random_connected_graphs,
    rank_bareiss,
    relabelled,
)


# ---------------------------------------------------------------------------
# Cobar complex.
# ---------------------------------------------------------------------------

def test_cobar_dims_match_f_vector():
    for g in (family("path", 3), family("complete", 2), family("path", 1)):
        cob = cobar_complex(g)
        assert cob.dims == {i: x for i, x in enumerate(f_vector(g))}


def test_cobar_boundary_on_an_edge():
    k2 = family("complete", 2)
    top = nested_set(k2, [[1, 2]])
    img = boundary(top)
    assert img == {
        nested_set(k2, [[1], [1, 2]]): -1,
        nested_set(k2, [[2], [1, 2]]): 1,
    }


def test_cobar_point():
    cob = cobar_complex(family("path", 1))
    assert cob.dims == {0: 1}
    assert boundary(nested_set(family("path", 1), [[1]])) == {}


def test_cobar_euler_characteristic(classes_upto_5):
    for g in classes_upto_5:
        assert euler_characteristic(cobar_complex(g)) == 1


def test_cobar_columns_match_public_boundary(classes_upto_5):
    # each integer column, built by tube deletion and read through the row
    # numbering, is the public boundary of its cell, computed by insertion,
    # also where bit order and label order disagree; the bigger hosts have
    # nodes with several children and labels of three or more vertices
    rng = random.Random(59)
    hosts = list(classes_upto_5) + [family("star", 7), family("cycle", 6), family("complete", 6)]
    for g in hosts + [relabelled(g, rng) for g in hosts]:
        cx = cobar_complex(g)
        assert set(cx.columns) == set(cx.cells) - {0}, g  # degree 0 has the zero differential
        for d, cells in cx.cells.items():
            below = cx.cells.get(d - 1, [])
            for ms, col in zip(cells, cx.columns.get(d, [{}] * len(cells))):
                assert {NestedSet(g, below[r]): c for r, c in col.items()} == \
                    boundary(NestedSet(g, ms)), (g, ms)


def test_cobar_gate_rejects_a_flipped_entry(classes_upto_4):
    # negative control: negating one entry of a column of degree >= 2 leaves
    # the squared differential nonzero, since every cell below has a boundary
    for g in classes_upto_4:
        cx = cobar_complex(g)
        for d in (d for d in cx.columns if d >= 2):
            columns = {k: [dict(c) for c in cols] for k, cols in cx.columns.items()}
            CobarComplex(cx.dims, columns, g, cx.cells)  # the unflipped copy passes
            col = columns[d][-1]
            r = next(iter(col))
            col[r] = -col[r]
            with pytest.raises(ValueError, match="squared differential is nonzero"):
                CobarComplex(cx.dims, columns, g, cx.cells)


def test_koszul_check_examples():
    assert koszul_check(family("path", 3)) == {0: 1, 1: 0, 2: 0}
    assert koszul_check(family("complete", 4)) == {0: 1, 1: 0, 2: 0, 3: 0}


def test_koszul_check_small(classes_upto_4):
    for g in classes_upto_4:
        hom = koszul_check(g)
        assert all(dim == (1 if k == 0 else 0) for k, dim in hom.items())


def test_koszul_check_matches_bareiss_oracle(classes_upto_5):
    # the dense Bareiss oracle on the differential matrices, not the sparse route
    for g in classes_upto_5:
        cx = cobar_complex(g)
        ranks = {k: rank_bareiss(cx.differential_matrix(k)) for k in cx.dims}
        want = {k: dim - ranks[k] - ranks.get(k + 1, 0) for k, dim in cx.dims.items()}
        assert koszul_check(g) == want, g


def _forbid_fractions(monkeypatch):
    # the sparse elimination builds a Fraction only to scale a pivot not led
    # by ±1, so a spy in its place trips exactly on a non-unit pivot
    import grakit.exactla as exactla

    def spy(*args):
        raise AssertionError(f"a pivot not led by ±1: {args}")

    monkeypatch.setattr(exactla, "Fraction", spy)


def test_cobar_columns_eliminate_with_unit_pivots(monkeypatch, classes_upto_5):
    # every pivot on the cobar columns is ±1, so the ranks stay integral
    hosts = list(classes_upto_5) + [family("star", 6), family("complete", 6)]
    _forbid_fractions(monkeypatch)
    for g in hosts:
        hom = koszul_check(g)
        assert hom == {k: int(k == 0) for k in hom}, g


def test_unit_pivot_spy_trips_on_torsion(monkeypatch):
    # negative control: the cellular chains of RP², a 2-cell attached to the
    # 1-cell with coefficient 2, have a rational point's homology but a pivot 2
    rp2 = ChainComplex({0: 1, 1: 1, 2: 1}, {1: [{}], 2: [{0: 2}]})
    assert homology_dims(rp2) == {0: 1, 1: 0, 2: 0}
    _forbid_fractions(monkeypatch)
    with pytest.raises(AssertionError, match="not led by ±1"):
        homology_dims(rp2)


# ---------------------------------------------------------------------------
# Leading terms.
# ---------------------------------------------------------------------------

def test_leading_term_single_monomial():
    basis = free_weight2_basis(family("path", 3))
    vec = {2: 1}
    assert leading_term(vec, basis) == basis[2]
    with pytest.raises(ValueError):
        leading_term({}, basis)
    with pytest.raises(ValueError):
        leading_term(vec, basis, ordering="sideways")


def test_leading_term_of_tube_expansion_relation():
    # for the tube {1,2} of the path, the two-tube monomial leads the
    # relation expanding it into singletons
    g = family("path", 3)
    rel = gravity_relations(g)
    tubes_ = rel.basis_tubes
    vec = next(
        v for v in rel.vectors
        if any(c and tubes_[i] == (1, 2) for i, c in v.items())
        and sum(1 for c in v.values() if c) == 3
    )
    lead = leading_term(vec, list(rel.basis))
    assert lead.tubes[0] == (1, 2)


def test_leading_term_of_singleton_sum_relation():
    # the all-singleton relation leads at the minimal vertex under the
    # nested-set order, and at the maximal vertex under the opposite one
    g = family("path", 3)
    rel = gravity_relations(g)
    total = rel.vectors[-1]
    assert leading_term(total, list(rel.basis)).tubes[0] == (1,)
    assert leading_term(total, list(rel.basis), "opposite").tubes[0] == (3,)


def test_leading_term_grcom_pattern():
    # on an edge, identifying the two weight-two monomials leads at the
    # composition over the smaller vertex
    k2 = family("complete", 2)
    basis = free_weight2_basis(k2)
    vec = {0: Fraction(1), 1: Fraction(-1)}
    assert leading_term(vec, basis).tubes[0] == (1,)
    assert weight2_leading_tubes(k2, "grcom") == frozenset({(1,)})


def test_ordering_sanity_of_relations(classes_upto_4):
    # every non-leading monomial of a relation sits strictly on the proper
    # side of its leading term
    for g in classes_upto_4:
        if g.n < 2:
            continue
        for rel, ordering in ((gravity_relations(g), "lex"),
                              (hypercom_relations(g), "opposite")):
            for vec in rel.vectors:
                lead = leading_term(vec, list(rel.basis), ordering)
                for i, c in vec.items():
                    ns = rel.basis[i]
                    if c and ns != lead:
                        if ordering == "lex":
                            assert lex_key(ns) < lex_key(lead)
                        else:
                            assert lex_key(ns) > lex_key(lead)


def test_weight2_leading_tubes_examples():
    p3 = family("path", 3)
    assert weight2_leading_tubes(p3, "grav") == frozenset({(1,), (1, 2), (2, 3)})
    assert weight2_leading_tubes(p3, "hyper") == frozenset({(1,), (1, 2)})
    k3 = family("complete", 3)
    assert weight2_leading_tubes(k3, "hyper") == frozenset({(1,), (1, 2)})
    with pytest.raises(ValueError):
        weight2_leading_tubes(p3, "mystery")


def test_grav_leading_tubes_closed_form(classes_upto_5):
    # pivots of the relation span are the non-singleton proper tubes plus
    # the minimal-vertex singleton
    for g in classes_upto_5:
        if g.n < 2:
            continue
        want = {t for t in tubes(g)[:-1] if len(t) >= 2}
        want.add((min(g.vertices),))
        assert weight2_leading_tubes(g, "grav") == want


def _with_relabelled(graphs, seed):
    rng = random.Random(seed)
    return list(graphs) + [relabelled(g, rng) for g in graphs]


def test_weight2_leading_tubes_are_the_pivots(classes_upto_5):
    # the closed forms are the elimination pivots for grav and grcom, and the
    # outside-neighbour set read off the edge list for hyper
    for g in _with_relabelled(classes_upto_5, 2207):
        if g.n < 2:
            continue
        assert weight2_leading_tubes(g, "grav") == pivot_tubes(gravity_relations(g), "lex"), g
        assert weight2_leading_tubes(g, "grcom") == pivot_tubes(grcom_relations(g), "lex"), g
        assert weight2_leading_tubes(g, "hyper") == oracle_leading_tubes(g, "hyper"), g


def test_weight2_leading_tubes_cache_is_bounded():
    assert weight2_leading_tubes.cache_info().maxsize is not None


def test_edge_rule_matches_divisor_oracle(classes_upto_5):
    # the bit test on (parent label, child tube, child label) decides what
    # the quadratic divisors and the leading sets of the relations decide
    for g in _with_relabelled(classes_upto_5, 2208):
        for ns in enumerate_nested(g, augmented=True):
            for system in SYSTEMS:
                assert is_normal(ns, system) == oracle_is_normal(ns, system), (ns, system)


def test_grav_normality_on_ten_vertices():
    # the divisor at {1} is the whole host, past the default cap of the
    # relation builder; only the minimal vertex's singleton leads
    g = family("path", 10)
    assert not is_normal(nested_set(g, [[1], g.vertices], cap=10), "grav")
    assert is_normal(nested_set(g, [[10], g.vertices], cap=10), "grav")


def test_hyper_leading_sets_agree_in_size(classes_upto_5):
    for g in classes_upto_5:
        if g.n < 2:
            continue
        comb = weight2_leading_tubes(g, "hyper")
        by_order = hyper_leading_tubes_by_order(g)
        assert len(comb) == len(by_order) == g.n - 1


def _normal_count_with_leads(g, leads_of):
    count = 0
    for ns in enumerate_nested(g, augmented=True):
        ok = True
        for t in ns.tubes:
            if t == g.vertices:
                continue
            delta, tube = quadratic_divisor(ns, t)
            if tube in leads_of(delta):
                ok = False
                break
        count += ok
    return count


def test_both_hyper_leading_sets_give_the_vertex_count(classes_upto_4):
    # the reversed-order pivots and the reduction-compatible set differ as
    # sets but produce the same normal-monomial count
    for g in classes_upto_4:
        want = len(maximal_nested(g))
        assert _normal_count_with_leads(
            g, lambda d: weight2_leading_tubes(d, "hyper")) == want
        assert _normal_count_with_leads(g, hyper_leading_tubes_by_order) == want


# ---------------------------------------------------------------------------
# Normal monomials.
# ---------------------------------------------------------------------------

def test_normal_monomial_counts_small():
    p3 = family("path", 3)
    assert len(normal_monomials(p3, "grav")) == 4
    assert len(normal_monomials(p3, "hyper")) == 5
    assert len(normal_monomials(p3, "grcom")) == 1
    with pytest.raises(ValueError):
        normal_monomials(p3, "mystery")


def test_grcom_normal_monomial_is_the_order_minimal_vertex():
    k2 = family("complete", 2)
    (ns,) = normal_monomials(k2, "grcom")
    assert ns.tubes == ((2,), (1, 2))


def test_grav_normal_counts_match_kernel_dims(classes_upto_5):
    # two independent computations of the same graded dimension
    for g in classes_upto_5:
        by_weight = {}
        for ns in normal_monomials(g, "grav"):
            by_weight[len(ns)] = by_weight.get(len(ns), 0) + 1
        dims = gravity_dims(g)
        for k in range(g.n + 1):
            assert by_weight.get(k, 0) == dims.get(k, 0)


def _by_degree(g, system):
    out = [0] * g.n
    for ns in normal_monomials(g, system):
        out[g.n - len(ns)] += 1
    return out


def test_normal_counts_match_enumeration_relabelled(classes_upto_5):
    rng = random.Random(2209)
    for g in classes_upto_5:
        g = relabelled(g, rng)
        for system in SYSTEMS:
            assert normal_counts(g, system) == _by_degree(g, system), (g, system)


def test_normal_counts_checks_its_input():
    with pytest.raises(ValueError):
        normal_counts(family("path", 3), "mystery")
    with pytest.raises(CapExceededError):
        normal_counts(family("path", 10), "hyper")
    assert normal_counts(family("path", 1), "grcom") == [1]


def _eulerian(n, k):
    return sum((-1) ** j * math.comb(n + 1, j) * (k + 1 - j) ** n for j in range(k + 2))


def _narayana(n, k):
    return math.comb(n, k) * math.comb(n, k + 1) // n


def test_normal_counts_at_reach():
    # PBW at reach: hyper normal monomials by degree are the h-vector
    # (Eulerian numbers on complete graphs, Narayana numbers on paths,
    # binom(n-1, k)^2 on cycles), grav ones are binom(n-1, k), and grcom
    # has the one maximal set
    hosts = ([(family("complete", n), _eulerian) for n in range(1, 11)]
             + [(family("path", n), _narayana) for n in range(1, 13)]
             + [(family("cycle", n), lambda n, k: math.comb(n - 1, k) ** 2)
                for n in range(3, 13)]
             + [(family("star", n), None) for n in range(2, 12)]
             + [(g, None) for g in random_connected_graphs(8, 2, seed=2210)
                + random_connected_graphs(9, 2, seed=2211)])
    t0 = time.monotonic()
    for g, closed in hosts:
        n = g.n
        hyper = normal_counts(g, "hyper", cap=n)
        assert trim(hyper) == h_poly_from_f(f_vector(g, cap=n)), g
        if closed:
            assert hyper == [closed(n, k) for k in range(n)], g
        assert normal_counts(g, "grav", cap=n) == [math.comb(n - 1, k) for k in range(n)], g
        assert normal_counts(g, "grcom", cap=n) == [1] + [0] * (n - 1), g
    assert time.monotonic() - t0 < 15.0


# ---------------------------------------------------------------------------
# Reduction and induction.
# ---------------------------------------------------------------------------

def test_reduction_examples():
    k2 = family("complete", 2)
    assert reduction(nested_set(k2, [[1], [1, 2]])).tubes == ((1, 2),)
    assert reduction(nested_set(k2, [[2], [1, 2]])).tubes == ((2,), (1, 2))
    p3 = family("path", 3)
    descent_free = nested_set(p3, [[3], [2, 3], [1, 2, 3]])
    assert reduction(descent_free) == descent_free
    with pytest.raises(ValueError):
        reduction(nested_set(p3, [[1, 2, 3]]))


def test_reduction_drops_descent_children_and_h_counts_descents(classes_upto_5):
    # the child tube of a descent (v, w) is the node labelled v, whose
    # parent is the node labelled w
    for g in classes_upto_5:
        histogram = [0] * g.n
        for ns in maximal_nested(g):
            tree = nested_tree(ns)
            node = {tree.labels[t][0]: t for t in ns.tubes}
            pairs = descents(ns)
            assert all(tree.parent[node[v]] == node[w] for v, w in pairs)
            children = {node[v] for v, _ in pairs}
            assert reduction(ns).tubes == tuple(t for t in ns.tubes if t not in children)
            histogram[len(pairs)] += 1
        assert h_poly_from_descents(g) == trim(histogram)


def test_induction_examples():
    p3 = family("path", 3)
    mx = nested_set(p3, [[1], [1, 2], [1, 2, 3]])
    assert induction(mx) == mx
    got = induction(nested_set(p3, [[2, 3], [1, 2, 3]]))
    assert got.tubes == ((2,), (2, 3), (1, 2, 3))
    with pytest.raises(ValueError):
        induction(nested_set(p3, [[1]]))


def test_reduction_induction_roundtrip(classes_upto_4):
    for g in classes_upto_4:
        normals = normal_monomials(g, "hyper")
        for t in maximal_nested(g):
            assert is_normal(reduction(t), "hyper")
        for w in normals:
            assert reduction(induction(w)) == w
        for w in enumerate_nested(g, augmented=True):
            assert set(reduction(induction(w)).tubes) <= set(w.tubes)
        images = {induction(w) for w in normals}
        assert len(images) == len(normals)


def test_induction_matches_largest_node_first(classes_upto_5):
    # completing the nodes in any order from one mask tree inserts the tubes
    # the largest-node-first loop inserts; the relabelled copies take their
    # labels from 1..29, so a vertex's bit position is not its label
    sixes = [family(kind, 6) for kind in ("path", "cycle", "star", "complete")]
    for g in _with_relabelled(classes_upto_5 + sixes, 2209):
        for ns in enumerate_nested(g, augmented=True):
            assert induction(ns) == oracle_induction(ns), ns
