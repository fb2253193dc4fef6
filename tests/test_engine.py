import itertools
import math
import random
from fractions import Fraction
from functools import partial

import pytest

from grakit import (
    EMPTY_GRAPH,
    GRCOM,
    GRGERST,
    GerstElement,
    GrComX,
    NotConnectedError,
    betti,
    check_axioms,
    check_gravity_relations,
    derivation,
    family,
    free_weight2_basis,
    gerst_circ,
    gerst_derivation_matrix,
    gerst_dimension,
    gerst_relabel,
    gravity_dims,
    gravity_generator,
    gravity_relations,
    hypercom_relations,
    induced,
    make_graph,
    rank,
    reconnected_complement,
    relation_pairing,
    tubes,
)
from grakit.engine import gerst_basis_element, gerst_unit
from conftest import (
    BROKEN_GERST,
    gerst_decomposition_count,
    is_zero,
    kernel_basis,
    matmul,
    relabelled,
)


def test_free_weight2_basis_counts():
    assert len(free_weight2_basis(family("path", 3))) == 5
    assert len(free_weight2_basis(family("complete", 2))) == 2
    assert len(free_weight2_basis(family("complete", 3))) == 6
    with pytest.raises(ValueError):
        free_weight2_basis(family("path", 1))


def test_free_weight2_basis_order():
    shapes = [ns.tubes[0] for ns in free_weight2_basis(family("path", 3))]
    assert shapes == [(3,), (2,), (2, 3), (1,), (1, 2)]


def test_grcom_compose_is_basis_to_basis():
    g = family("path", 3)
    outer = {(): Fraction(1)}           # on the remaining vertex 3
    part = {(): Fraction(1)}            # on the tube {1, 2}
    got = GrComX((0,)).compose(g, (1, 2), outer, [part])
    assert got == {(): Fraction(1)}
    # disconnected removal: one factor per component, ordered by minimum
    got = GrComX((0,)).compose(g, (1, 3), {(): Fraction(1)},
                               [{(): Fraction(1)}, {(): Fraction(1)}])
    assert got == {(): Fraction(1)}
    with pytest.raises(ValueError):
        GrComX((0,)).compose(g, (1, 3), outer, [part])


def test_grcom_compositions_are_scalars(classes_upto_4):
    for g in classes_upto_4:
        assert GRCOM.basis(g) == [()]
        for t in tubes(g):
            assert GRCOM.circ(g, t, {(): 2}, {(): -3}) == {(): -6}, (g, t)


def test_grcomx_accepts_only_the_two_models():
    for degrees in ((0, 2), (1,)):
        with pytest.raises(ValueError):
            GrComX(degrees)


def test_unit_compositions_are_identity():
    g = family("path", 3)
    for a in GRGERST.basis(g):
        x = {a: Fraction(1)}
        assert GRGERST.compose(g, (), x, []) == x
        assert GRGERST.compose(g, g.vertices, GRGERST.unit(), [x]) == x


def test_gerst_compose_sign_example():
    # b at vertex 2 composed with b at vertex 1: two odd factors swap
    k2 = family("complete", 2)
    outer = GerstElement(make_graph([2], []), {(2,): Fraction(1)})
    inner = GerstElement(make_graph([1], []), {(1,): Fraction(1)})
    got = gerst_circ(k2, (1,), outer, inner)
    assert got.terms == {(1, 2): Fraction(-1)}
    # opposite slotting has no inversion
    outer2 = GerstElement(make_graph([1], []), {(1,): Fraction(1)})
    inner2 = GerstElement(make_graph([2], []), {(2,): Fraction(1)})
    assert gerst_circ(k2, (2,), outer2, inner2).terms == {(1, 2): Fraction(1)}


def test_circ_refuses_the_empty_tube():
    # a tube composition has one inner factor, and the empty set has no
    # component to take it
    p2 = family("path", 2)
    with pytest.raises(ValueError, match="expected 0 inner factors, got 1"):
        GRGERST.circ(p2, (), {(1,): 1}, {(2,): 5})
    with pytest.raises(ValueError, match="expected 0 inner factors, got 1"):
        gerst_circ(p2, (), gerst_unit(p2), gerst_unit(EMPTY_GRAPH))


def _swap_sign(seq) -> int:
    """Oracle: bubble-sort the odd vertices and count the swaps."""
    seq, swaps = list(seq), 0
    for end in range(len(seq) - 1, 0, -1):
        for i in range(end):
            if seq[i] > seq[i + 1]:
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                swaps += 1
    return -1 if swaps % 2 else 1


def _subsets(vertices):
    return itertools.chain.from_iterable(
        itertools.combinations(vertices, r) for r in range(len(vertices) + 1))


def test_gerst_circ_matches_swap_oracle(classes_upto_4):
    # every tube and every pair of basis elements, on each class and on a
    # relabelled copy whose labels are not 1..n
    rng = random.Random(1104)
    for g0 in classes_upto_4:
        for g in (g0, relabelled(g0, rng)):
            for t in tubes(g):
                gs, gt = reconnected_complement(g, t), induced(g, t)
                for sx in _subsets(gs.vertices):
                    for sy in _subsets(gt.vertices):
                        got = gerst_circ(g, t, gerst_basis_element(gs, sx),
                                         gerst_basis_element(gt, sy))
                        want = {tuple(sorted(sx + sy)): _swap_sign(sx + sy)}
                        assert got.terms == want, (g, t, sx, sy)


def test_derivation_matrix_examples():
    k2 = family("complete", 2)
    m = gerst_derivation_matrix(k2, 0)
    assert (m.rows, m.cols) == (2, 1)
    assert sorted(abs(m.entries[i][0]) for i in range(2)) == [1, 1]
    top = gerst_derivation_matrix(k2, 2)
    assert top.rows == 0 and top.cols == 1


def test_derivation_squares_to_zero(classes_upto_6):
    for g in classes_upto_6:
        for k in range(g.n):
            prod = matmul(gerst_derivation_matrix(g, k + 1), gerst_derivation_matrix(g, k))
            assert is_zero(prod)


def test_derivation_is_a_derivation():
    # d(x o_T y) = dx o_T y + (-1)^|x| x o_T dy on basis elements
    g = family("path", 3)
    from grakit import induced, proper_tubes, reconnected_complement
    from itertools import combinations

    for t in proper_tubes(g):
        gs = reconnected_complement(g, t)
        gt = induced(g, t)
        for rx in range(gs.n + 1):
            for sx in combinations(gs.vertices, rx):
                for ry in range(gt.n + 1):
                    for sy in combinations(gt.vertices, ry):
                        x = gerst_basis_element(gs, sx)
                        y = gerst_basis_element(gt, sy)
                        lhs = derivation(gerst_circ(g, t, x, y))
                        rhs = gerst_circ(g, t, derivation(x), y)
                        other = gerst_circ(g, t, x, derivation(y))
                        if len(sx) % 2:
                            rhs = rhs - other
                        else:
                            rhs = rhs + other
                        assert lhs == rhs


def test_gravity_dims_examples():
    assert gravity_dims(family("complete", 2)).total == 2
    assert gravity_dims(family("path", 3)).total == 4
    assert gravity_dims(family("path", 1)).total == 1
    assert gravity_dims(family("path", 1)).by_degree == {0: 0, 1: 1}


def test_gravity_generator():
    p1 = family("path", 1)
    assert gravity_generator(p1).terms == {(1,): Fraction(1)}
    k2 = family("complete", 2)
    assert gravity_generator(k2).terms == {(1,): Fraction(1), (2,): Fraction(1)}


def test_gravity_generator_in_kernel(classes_upto_6):
    for g in classes_upto_6:
        assert derivation(gravity_generator(g)).is_zero()


def test_gravity_generator_is_equivariant(classes_upto_5):
    from grakit import automorphisms

    for g in classes_upto_5:
        lam = gravity_generator(g)
        for alpha in automorphisms(g):
            assert gerst_relabel(alpha, lam) == lam


def test_gravity_relations_hold():
    k2 = family("complete", 2)
    rep = check_gravity_relations(k2)
    assert rep.total_holds and rep.tube_results == ()
    p3 = family("path", 3)
    rep = check_gravity_relations(p3)
    assert dict(rep.tube_results)[(1, 2)] is True
    assert rep.all_hold


def test_gravity_check_fails_without_koszul_signs(monkeypatch):
    # negative control: with every merge sign +1 the model is no longer the
    # square-zero one, and the check must see it at every tube and in total
    monkeypatch.setattr(GrComX, "_merge_sign", lambda self, seq: 1)
    for kind, n in (("path", 3), ("cycle", 4), ("star", 4), ("complete", 4)):
        rep = check_gravity_relations(family(kind, n))
        assert rep.tube_results and not any(ok for _, ok in rep.tube_results), (kind, n)
        assert not rep.total_holds, (kind, n)


def test_gerst_dimension(classes_upto_5):
    for g in classes_upto_5:
        assert gerst_dimension(g) == 2 ** g.n == gerst_decomposition_count(g)


def test_hypercom_relations_k2():
    k2 = family("complete", 2)
    rel = hypercom_relations(k2)
    assert rel.basis_tubes == ((2,), (1,))
    assert [list(map(int, v)) for v in rel.vectors] == [[-1, 1]]
    assert rel.span_dim() == 1


def test_hypercom_spanning_tree_relations_span(classes_upto_5):
    from grakit.exactla import QMatrix

    for g in classes_upto_5:
        if g.n < 2:
            continue
        rel = hypercom_relations(g)
        assert rel.span_dim() == g.n - 1
        # edges of a spanning tree already span: grow a tree greedily
        seen = {g.vertices[0]}
        tree_rows = []
        edges = list(g.edges)
        while len(seen) < g.n:
            for i, (a, b) in enumerate(edges):
                if (a in seen) != (b in seen):
                    seen.update((a, b))
                    tree_rows.append(rel.vectors[i])
        assert rank(QMatrix.from_rows(tree_rows)) == g.n - 1


def test_gravity_relations_examples():
    k2 = family("complete", 2)
    rel = gravity_relations(k2)
    assert [list(map(int, v)) for v in rel.vectors] == [[1, 1]]
    p3 = family("path", 3)
    assert gravity_relations(p3).span_dim() == 3


def test_relation_spans_are_orthogonal_complements(classes_upto_5):
    for g in classes_upto_5:
        if g.n < 2:
            continue
        rg = gravity_relations(g)
        rh = hypercom_relations(g)
        gram = relation_pairing(rg, rh)
        assert all(x == 0 for row in gram for x in row)
        assert rg.span_dim() + rh.span_dim() == len(rg.basis)


def test_axioms_pass_for_models(classes_upto_4):
    for g in classes_upto_4:
        assert check_axioms(GRCOM, g).passed
        assert check_axioms(GRGERST, g).passed


def test_broken_model_fails_consecutive():
    rep = check_axioms(BROKEN_GERST, family("path", 3))
    assert not rep.passed
    assert "consecutive" in rep.failed_axioms()


def test_kernel_matches_gravity_dims():
    g = family("path", 4)
    dims = gravity_dims(g)
    for k, want in dims.by_degree.items():
        assert len(kernel_basis(gerst_derivation_matrix(g, k))) == want


def test_gravity_dims_are_binomials():
    for kind in ("path", "cycle", "star", "complete"):
        for n in range(3 if kind == "cycle" else 1, 13):
            dims = gravity_dims(family(kind, n))
            assert dims.by_degree == {k: math.comb(n - 1, k - 1) if k else 0 for k in range(n + 1)}, (kind, n)
            assert dims.total == 2 ** (n - 1)


def test_gerst_element_rejects_bad_keys():
    p2 = family("path", 2)
    # an unsorted key used to collide with its sorted twin, and a repeated
    # vertex used to survive as a key that the derivation then mangled
    for terms in ({(2, 1): 1, (1, 2): 1}, {(1, 1): 1}, {(3,): 1}, {frozenset({1}): 1}, {1: 1}):
        with pytest.raises(ValueError):
            GerstElement(p2, terms)
    assert GerstElement(p2, {(1, 2): 1, (): 0, (1,): 2}).terms == {(1, 2): 1, (1,): 2}


def test_one_connectivity_guard():
    entry_points = [gravity_dims, gravity_generator, check_gravity_relations,
                    free_weight2_basis, partial(check_axioms, GRGERST), betti]
    for g in (EMPTY_GRAPH, make_graph([1, 2, 3], [(1, 2)])):
        for fn in entry_points:
            with pytest.raises(NotConnectedError):
                fn(g)


def _ints(values) -> bool:
    return all(type(c) is int for c in values)


def test_coefficients_are_ints(classes_upto_4):
    for g in classes_upto_4:
        for t in tubes(g):
            gs, gt = reconnected_complement(g, t), induced(g, t)
            for model in (GRCOM, GRGERST):
                for a in model.basis(gs):
                    for b in model.basis(gt):
                        assert _ints(model.circ(g, t, {a: 1}, {b: 1}).values()), (g, t, a, b)
        for s in GRGERST.basis(g):
            assert _ints(derivation(gerst_basis_element(g, s)).terms.values())
        if g.n < 2:
            continue
        rels = [gravity_relations(g), hypercom_relations(g)]
        assert _ints(x for r in rels for v in r.vectors for x in v)
        for r1 in rels:
            for r2 in rels:
                assert _ints(x for row in relation_pairing(r1, r2) for x in row)


def test_rational_coefficients_stay_exact():
    g = family("path", 3)
    x = GerstElement(g, {(1,): Fraction(1, 2), (2, 3): Fraction(-1, 3)})
    assert (x + x - gerst_basis_element(g, (1,))).terms == {(2, 3): Fraction(-2, 3)}
    dx = derivation(x)
    assert dx.terms == {(1, 2): Fraction(-1, 2), (1, 3): Fraction(-1, 2), (1, 2, 3): Fraction(-1, 3)}
    assert derivation(dx).is_zero()
