import itertools
import math
import random
from collections.abc import Iterator
from fractions import Fraction
from functools import partial

import pytest

from grakit import (
    EMPTY_GRAPH,
    GRCOM,
    GRGERST,
    GrComX,
    NotConnectedError,
    RelationSet,
    automorphisms,
    betti,
    check_axioms,
    check_gravity_relations,
    derivation,
    family,
    free_weight2_basis,
    gerst_derivation_matrix,
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
from grakit import engine
from grakit.exactla import _rank_exact
from grakit.graphs import automorphism_generators
from conftest import (
    BROKEN_GERST,
    gerst_decomposition_count,
    is_zero,
    kernel_basis,
    matmul,
    oracle_check_axioms,
    oracle_derivation_column,
    oracle_inversion_sign,
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
    assert GRGERST.circ(k2, (1,), {(2,): Fraction(1)}, {(1,): Fraction(1)}) == {(1, 2): Fraction(-1)}
    # opposite slotting has no inversion
    assert GRGERST.circ(k2, (2,), {(1,): Fraction(1)}, {(2,): Fraction(1)}) == {(1, 2): Fraction(1)}


def test_circ_refuses_the_empty_tube():
    # a tube composition has one inner factor, and the empty set has no
    # component to take it
    p2 = family("path", 2)
    with pytest.raises(ValueError, match="expected 0 inner factors, got 1"):
        GRGERST.circ(p2, (), {(1,): 1}, {(2,): 5})
    with pytest.raises(ValueError, match="expected 0 inner factors, got 1"):
        GRGERST.circ(p2, (), {(): 1}, {(): 1})


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


def test_square_zero_circ_matches_swap_oracle(classes_upto_4):
    # every tube and every pair of basis elements, on each class and on a
    # relabelled copy whose labels are not 1..n
    rng = random.Random(1104)
    for g0 in classes_upto_4:
        for g in (g0, relabelled(g0, rng)):
            for t in tubes(g):
                gs, gt = reconnected_complement(g, t), induced(g, t)
                for sx in _subsets(gs.vertices):
                    for sy in _subsets(gt.vertices):
                        got = GRGERST.circ(g, t, {sx: 1}, {sy: 1})
                        want = {tuple(sorted(sx + sy)): _swap_sign(sx + sy)}
                        assert got == want, (g, t, sx, sy)


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


def _combine(x: dict, y: dict, c=1) -> dict:
    """x + c*y with the zero coefficients dropped."""
    out = dict(x)
    for k, v in y.items():
        out[k] = out.get(k, 0) + c * v
    return {k: v for k, v in out.items() if v}


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
                        x, y = {sx: 1}, {sy: 1}
                        lhs = derivation(g, GRGERST.circ(g, t, x, y))
                        rhs = _combine(GRGERST.circ(g, t, derivation(gs, x), y),
                                       GRGERST.circ(g, t, x, derivation(gt, y)),
                                       -1 if len(sx) % 2 else 1)
                        assert lhs == rhs


def _derivation_disagreements(g) -> list:
    """Basis keys whose derivation, as a sparse column, through the public
    entry or as a column of the dense matrix, differs from the oracle's."""
    bad = []
    for k in range(g.n + 1):
        keys = list(itertools.combinations(g.vertices, k))
        rows = list(itertools.combinations(g.vertices, k + 1))
        m = gerst_derivation_matrix(g, k)
        for j, (s, col) in enumerate(zip(keys, engine._derivation_columns(g, k), strict=True)):
            want = oracle_derivation_column(g, s)
            dense = {t: m.entries[i][j] for i, t in enumerate(rows) if m.entries[i][j]}
            if not col == dense == derivation(g, {s: 1}) == want:
                bad.append(s)
    return bad


def _oracle_corpus() -> list:
    rng = random.Random(1907)
    graphs = [family(kind, n) for kind in ("path", "cycle", "complete")
              for n in range(3 if kind == "cycle" else 1, 9)]
    return graphs + [relabelled(g, rng) for g in graphs]


def test_derivation_matches_the_oracle():
    for g in _oracle_corpus():
        assert _derivation_disagreements(g) == [], g


def test_mirrored_derivation_sign_squares_to_zero_but_fails_the_oracle(monkeypatch):
    # negative control: counting the b-vertices above v instead of below it
    # still gives a differential with the same kernel, so squaring to zero
    # and the gravity checks pass; the oracle comparison sees the sign
    monkeypatch.setattr(engine, "_derive", partial(oracle_derivation_column, mirrored=True))
    for g in (family("path", 4), family("cycle", 5), family("complete", 4)):
        for k in range(g.n):
            assert is_zero(matmul(gerst_derivation_matrix(g, k + 1), gerst_derivation_matrix(g, k)))
        assert sum(gravity_dims(g).values()) == 2 ** (g.n - 1)
        assert not derivation(g, gravity_generator(g))
        results, total = check_gravity_relations(g)
        assert total and all(ok for _, ok in results)
        assert _derivation_disagreements(g), g


def test_gravity_dims_examples():
    assert sum(gravity_dims(family("complete", 2)).values()) == 2
    assert sum(gravity_dims(family("path", 3)).values()) == 4
    assert gravity_dims(family("path", 1)) == {0: 0, 1: 1}


def test_gravity_generator():
    p1 = family("path", 1)
    assert gravity_generator(p1) == {(1,): 1}
    k2 = family("complete", 2)
    assert gravity_generator(k2) == {(1,): 1, (2,): 1}


def test_gravity_generator_in_kernel(classes_upto_6):
    for g in classes_upto_6:
        assert not derivation(g, gravity_generator(g))


def test_gravity_generator_is_equivariant(classes_upto_5):
    from grakit import automorphisms

    for g in classes_upto_5:
        lam = gravity_generator(g)
        for alpha in automorphisms(g):
            assert GRGERST.relabel(alpha, lam) == lam


def test_gravity_relations_hold():
    k2 = family("complete", 2)
    results, total = check_gravity_relations(k2)
    assert total and results == ()
    p3 = family("path", 3)
    results, total = check_gravity_relations(p3)
    assert dict(results)[(1, 2)] is True
    assert total and all(ok for _, ok in results)


def test_gravity_check_fails_without_koszul_signs(monkeypatch):
    # negative control: with every merge sign +1 the model is no longer the
    # square-zero one, and the check must see it at every tube and in total
    monkeypatch.setattr(GrComX, "_merge_sign", lambda self, seq: 1)
    for kind, n in (("path", 3), ("cycle", 4), ("star", 4), ("complete", 4)):
        results, total = check_gravity_relations(family(kind, n))
        assert results and not any(ok for _, ok in results), (kind, n)
        assert not total, (kind, n)


def test_gravity_check_reads_the_relation_vectors(monkeypatch):
    # negative control: the check evaluates gravity_relations' own vectors,
    # so flipping one coefficient of one vector fails that vector's tube, or
    # the total for the all-singleton sum, and nothing else
    original = engine.gravity_relations
    for kind, n in (("path", 3), ("cycle", 4), ("star", 4), ("complete", 4)):
        g = family(kind, n)
        rel = original(g)
        for j, vector in enumerate(rel.vectors):
            tube = max((rel.basis_tubes[i] for i in vector), key=len)
            want = [tube] if len(tube) > 1 else ["total"]
            for i, c in vector.items():
                flipped = rel.vectors[:j] + ({**vector, i: -c},) + rel.vectors[j + 1:]
                monkeypatch.setattr(engine, "gravity_relations",
                                    lambda h, cap: RelationSet(h, rel.basis, flipped))
                results, total = check_gravity_relations(g)
                failed = [t for t, ok in results if not ok] + ([] if total else ["total"])
                assert failed == want, (g, j, i)


def test_square_zero_basis_size(classes_upto_5):
    for g in classes_upto_5:
        assert len(GRGERST.basis(g)) == 2 ** g.n == gerst_decomposition_count(g)


def test_hypercom_relations_k2():
    k2 = family("complete", 2)
    rel = hypercom_relations(k2)
    assert rel.basis_tubes == ((2,), (1,))
    assert rel.vectors == ({0: -1, 1: 1},)
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
                    tree_rows.append([rel.vectors[i].get(j, 0) for j in range(len(rel.basis))])
        assert rank(QMatrix.from_rows(tree_rows)) == g.n - 1


def test_gravity_relations_examples():
    k2 = family("complete", 2)
    rel = gravity_relations(k2)
    assert rel.vectors == ({0: 1, 1: 1},)
    p3 = family("path", 3)
    assert gravity_relations(p3).span_dim() == 3


def test_relation_set_refuses_vectors_outside_its_basis():
    # a vector is a {basis position: coefficient} dict, the form exact ranks take
    rel = gravity_relations(family("path", 3))
    for bad in ((1, 0, 0, 0, 0), {5: 1}, {-1: 1}, {"0": 1}):
        with pytest.raises(ValueError):
            RelationSet(rel.host, rel.basis, (bad,))


def test_gravity_dims_stream_the_derivation_columns(monkeypatch):
    # no degree's columns are listed whole before they are ranked
    seen = []

    def spy(columns):
        seen.append(isinstance(columns, Iterator))
        return _rank_exact(columns)

    monkeypatch.setattr(engine, "_rank_exact", spy)
    assert gravity_dims(family("path", 4)) == {0: 0, 1: 1, 2: 3, 3: 3, 4: 1}
    assert seen == [True] * 5


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
        assert not check_axioms(GRCOM, g)
        assert not check_axioms(GRGERST, g)


def test_broken_model_fails_consecutive():
    violations = check_axioms(BROKEN_GERST, family("path", 3))
    assert {name for name, _ in violations} == {"consecutive", "parallel", "unit"}


def test_unsigned_merge_fails_parallel_and_equivariance(monkeypatch):
    # negative control: without the Koszul sign of a merge the parallel loop
    # fails, wherever the host has a disjoint non-adjacent tube pair
    monkeypatch.setattr(GrComX, "_merge_sign", lambda self, seq: 1)
    for kind, n in (("path", 3), ("path", 4), ("cycle", 4), ("star", 4)):
        violations = check_axioms(GRGERST, family(kind, n))
        assert {name for name, _ in violations} == {"equivariance", "parallel"}, (kind, n)
    # complete:4 has no such pair
    assert {name for name, _ in check_axioms(GRGERST, family("complete", 4))} == {"equivariance"}


def _relabel_action_failures(model: GrComX, g) -> list:
    """The (α, β, key) with relabel(α, relabel(β, e_key)) != relabel(α∘β,
    e_key), over all automorphisms α, β of g and every basis key.  Each
    relabelling of a basis element is computed once, so the check is a table
    lookup per triple."""
    vs = g.vertices
    group = automorphisms(g)
    table = {tuple(a[v] for v in vs): {key: model.relabel(a, {key: 1}) for key in model.basis(g)}
             for a in group}
    failures = []
    for alpha in group:
        for beta in group:
            ab = table[tuple(alpha[beta[v]] for v in vs)]
            for key, image in table[tuple(beta[v] for v in vs)].items():
                (k, c), = image.items()
                (k2, c2), = table[tuple(alpha[v] for v in vs)][k].items()
                if ab[key] != {k2: c * c2}:
                    failures.append((alpha, beta, key))
    return failures


def test_relabel_is_a_group_action(classes_upto_5):
    # the soundness of checking equivariance on a generating set only
    for g in classes_upto_5:
        for model in (GRCOM, GRGERST):
            assert not _relabel_action_failures(model, g), g


class _UnsignedRelabel(GrComX):
    """Square-zero model whose relabelling drops the Koszul sign."""

    def relabel(self, alpha, x):
        return {tuple(sorted(alpha[u] for u in key)): c for key, c in x.items()}


def test_unsigned_relabel_fails_equivariance():
    # negative control: the generators alone see a relabelling without sign
    for kind, n in (("path", 3), ("cycle", 4), ("star", 4), ("complete", 4)):
        violations = check_axioms(_UnsignedRelabel((0, 1)), family(kind, n))
        assert violations and {name for name, _ in violations} == {"equivariance"}, (kind, n)


@pytest.mark.parametrize("name", ["GRCOM", "GRGERST", "BROKEN_GERST", "unsigned relabel", "unsigned merge"])
def test_check_axioms_matches_the_per_triple_oracle(name, classes_upto_4, monkeypatch):
    # each inner composition is reused across triples; the violations, their
    # order and their details must be those of one evaluation per triple
    if name == "unsigned merge":
        monkeypatch.setattr(GrComX, "_merge_sign", lambda self, seq: 1)
    model = {"GRCOM": GRCOM, "GRGERST": GRGERST, "BROKEN_GERST": BROKEN_GERST,
             "unsigned relabel": _UnsignedRelabel((0, 1)), "unsigned merge": GRGERST}[name]
    for g in classes_upto_4 + [family("path", 5), family("cycle", 5)]:
        assert check_axioms(model, g) == oracle_check_axioms(model, g), g


def test_relabel_mutated_off_the_generators_needs_the_action_test():
    # negative control: a relabelling wrong on one automorphism outside the
    # generating set breaks the action, and the action test sees it.
    # check_axioms only relabels along the generators, so it alone cannot.
    g = family("complete", 4)
    gens = automorphism_generators(g)
    bad = next(a for a in automorphisms(g) if a not in gens and any(a[v] != v for v in g.vertices))

    class Mutated(GrComX):
        def relabel(self, alpha, x):
            out = super().relabel(alpha, x)
            return {k: -c for k, c in out.items()} if alpha == bad else out

    mutated = Mutated((0, 1))
    assert _relabel_action_failures(mutated, g)
    assert not check_axioms(mutated, g)


def test_inversion_sign_matches_the_pair_count():
    rng = random.Random(21)
    for _ in range(2000):
        seq = rng.sample(range(rng.choice((12, 64))), rng.randint(0, 12))
        assert engine._inversion_sign(seq) == oracle_inversion_sign(seq), seq


def test_descending_merge_sign_is_the_negated_labels_mutation():
    # the control model reverses the sequence instead of negating its
    # entries: both give C(L, 2) minus the inversions of seq
    rng = random.Random(22)
    for _ in range(500):
        seq = rng.sample(range(20), rng.randint(0, 9))
        assert BROKEN_GERST._merge_sign(seq) == oracle_inversion_sign([-v for v in seq]), seq


def test_component_count_cache_is_bounded():
    from grakit.graphs import connected_components

    cached = engine._compose_plan
    assert cached.cache_info().maxsize is not None
    cached.cache_clear()
    # more (host, subset) pairs than the cache holds: paths shifted along the labels
    hosts = [make_graph([k + 1, k + 2, k + 3], [(k + 1, k + 2), (k + 2, k + 3)])
             for k in range(cached.cache_info().maxsize // 7 + 5)]
    for h in hosts:
        for r in range(h.n + 1):
            for v in itertools.combinations(h.vertices, r):
                parts = len(connected_components(induced(h, v)))
                assert GRCOM.compose(h, v, {(): 1}, [{(): 1}] * parts) == {(): 1}
    info = cached.cache_info()
    assert info.currsize == info.maxsize and info.misses > info.maxsize
    p3 = family("path", 3)
    with pytest.raises(ValueError, match="expected 2 inner factors"):
        GRCOM.compose(p3, (1, 3), {(): 1}, [{(): 1}])  # counted again after eviction
    GRCOM.compose(p3, (1, 3), {(): 1}, [{(): 1}] * 2)
    assert cached.cache_info().hits == info.hits + 1


def test_kernel_matches_gravity_dims():
    g = family("path", 4)
    for k, want in gravity_dims(g).items():
        assert len(kernel_basis(gerst_derivation_matrix(g, k))) == want


def test_gravity_dims_are_binomials():
    for kind in ("path", "cycle", "star", "complete"):
        for n in range(3 if kind == "cycle" else 1, 13):
            dims = gravity_dims(family(kind, n))
            assert dims == {k: math.comb(n - 1, k - 1) if k else 0 for k in range(n + 1)}, (kind, n)
            assert sum(dims.values()) == 2 ** (n - 1)


def test_derivation_rejects_bad_keys():
    p2 = family("path", 2)
    # an unsorted key would collide with its sorted twin, a repeated vertex
    # would survive as a key that the derivation then mangles, and a foreign
    # or non-tuple key names no basis element of the host
    for terms in ({(2, 1): 1, (1, 2): 1}, {(1, 1): 1}, {(3,): 1}, {frozenset({1}): 1}, {1: 1}):
        with pytest.raises(ValueError, match="not an ascending tuple of host vertices"):
            derivation(p2, terms)
    # zero coefficients, given or produced, are dropped
    assert derivation(p2, {(1,): 2, (): 0}) == {(1, 2): -2}
    assert derivation(p2, {(1,): 1, (2,): 1}) == {}
    assert derivation(p2, {(1,): 0}) == {}


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
            assert _ints(derivation(g, {s: 1}).values())
        if g.n < 2:
            continue
        rels = [gravity_relations(g), hypercom_relations(g)]
        assert _ints(x for r in rels for v in r.vectors for x in v.values())
        for r1 in rels:
            for r2 in rels:
                assert _ints(x for row in relation_pairing(r1, r2) for x in row)


def test_rational_coefficients_stay_exact():
    g = family("path", 3)
    x = {(1,): Fraction(1, 2), (2, 3): Fraction(-1, 3)}
    assert _combine(_combine(x, x), {(1,): 1}, -1) == {(2, 3): Fraction(-2, 3)}
    dx = derivation(g, x)
    assert dx == {(1, 2): Fraction(-1, 2), (1, 3): Fraction(-1, 2), (1, 2, 3): Fraction(-1, 3)}
    assert all(type(c) is Fraction for c in dx.values())
    assert not derivation(g, dx)
