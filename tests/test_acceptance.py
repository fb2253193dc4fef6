"""Acceptance suite: every desk-scale identity the library promises.

Run with ``pytest -s tests/test_acceptance.py -v`` to see one PASS/FAIL line
per criterion.  All arithmetic is exact; tolerances are equalities, and the
stated runtime ceilings are asserted.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

import pytest

from grakit import (
    GRCOM,
    GRGERST,
    QMatrix,
    betti,
    check_axioms,
    check_gravity_relations,
    enumerate_nested,
    f_vector,
    family,
    gerst_derivation_matrix,
    gravity_dims,
    gravity_relations,
    h_poly_from_descents,
    h_poly_from_f,
    hypercom_relations,
    induction,
    is_normal,
    koszul_check,
    maximal_nested,
    normal_counts,
    normal_monomials,
    rank,
    reduction,
    relation_pairing,
    tubes,
)
from conftest import (
    BROKEN_GERST,
    gerst_decomposition_count,
    identity_matrix,
    matmul,
    random_connected_graphs,
    transpose,
    zero_matrix,
)


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL: {desc}")
        raise
    print(f"ACCEPTANCE {num:02d} PASS: {desc}")


@pytest.fixture(scope="module")
def corpus_stats(classes_upto_6, random_sevens):
    """(graph, f, h-from-f, h-from-descents) for the whole corpus, and the
    wall time spent producing it."""
    t0 = time.monotonic()
    stats = []
    for g in list(classes_upto_6) + list(random_sevens):
        f = f_vector(g)
        stats.append((g, f, h_poly_from_f(f), h_poly_from_descents(g)))
    return stats, time.monotonic() - t0


def test_criterion_01_pentagon():
    with criterion(1, "pentagon: f = [5,5,1], h = 1+3t+t^2, betti = [1,3,1], < 1 s"):
        t0 = time.monotonic()
        p3 = family("path", 3)
        f = f_vector(p3)
        assert f == [5, 5, 1]
        assert h_poly_from_f(f) == [1, 3, 1]
        assert betti(p3) == [1, 3, 1]
        assert time.monotonic() - t0 < 1.0


def test_criterion_02_h_identity(corpus_stats):
    stats, elapsed = corpus_stats
    with criterion(2, "h from faces = h from descents on all classes <= 6 "
                      "and 100 random 7-vertex graphs, < 5 min"):
        assert len(stats) == 143 + 100
        for g, _, h_f, h_desc in stats:
            assert h_f == h_desc, g
        assert elapsed < 300.0


def test_criterion_03_dehn_sommerville(corpus_stats):
    stats, _ = corpus_stats
    with criterion(3, "h-vector palindromic on the same corpus"):
        for g, _, h_f, _ in stats:
            assert h_f == h_f[::-1], g


def test_criterion_04_known_families():
    with criterion(4, "path polytopes count 2,5,14,42,132 vertices; "
                      "complete ones count n!"):
        assert [f_vector(family("path", n))[0] for n in range(2, 7)] == \
            [2, 5, 14, 42, 132]
        for n in range(2, 6):
            assert f_vector(family("complete", n))[0] == math.factorial(n)


def test_criterion_05_koszulness(classes_upto_6):
    with criterion(5, "cobar homology is a point for <= 6 vertices, complete:6 "
                      "and path/cycle/star:7 and :8 (squared differential "
                      "checked on each), < 10 min"):
        t0 = time.monotonic()
        reach = [family("complete", 6)] + [family(k, n) for n in (7, 8)
                                           for k in ("path", "cycle", "star")]
        for g in list(classes_upto_6) + reach:
            # building the complex runs the squared-differential gate
            assert koszul_check(g) == {k: int(k == 0) for k in range(g.n)}, g
        assert time.monotonic() - t0 < 600.0


def test_criterion_06_gerstenhaber_dimensions(classes_upto_6):
    with criterion(6, "model dimension 2^n matches the product decomposition "
                      "count up to 8 vertices"):
        graphs = list(classes_upto_6)
        for n in (7, 8):
            graphs += [family(kind, n) for kind in ("path", "cycle", "complete", "star")]
            graphs += random_connected_graphs(n, 10, seed=800 + n)
        for g in graphs:
            assert len(GRGERST.basis(g)) == 2 ** g.n == gerst_decomposition_count(g)


def test_criterion_07_gravity_dimension(classes_upto_5, classes_upto_6):
    with criterion(7, "kernel of the derivation has total dimension 2^(n-1) "
                      "for <= 6; the complex is acyclic with averaged "
                      "contracting homotopy for <= 5"):
        for g in classes_upto_6:
            assert sum(gravity_dims(g).values()) == 2 ** (g.n - 1), g
        for g in classes_upto_5:
            n = g.n
            d = {k: gerst_derivation_matrix(g, k) for k in range(n + 1)}
            # exactness in every degree: ker d_k = im d_{k-1}
            for k in range(n + 1):
                ker = d[k].cols - rank(d[k])
                im = rank(d[k - 1]) if k >= 1 else 0
                assert ker == im, (g, k)
            # averaged homotopy on the dual exterior model
            for k in range(n + 1):
                h_k = _averaged_homotopy(g, k)
                h_km1 = _averaged_homotopy(g, k - 1)
                ident = identity_matrix(math.comb(n, k))
                term1 = matmul(transpose(d[k]), h_k)
                term2 = matmul(h_km1, transpose(d[k - 1])) if k >= 1 else zero_matrix(
                    ident.rows, ident.cols)
                total = QMatrix.from_rows(
                    [
                        [a + b for a, b in zip(r1, r2)]
                        for r1, r2 in zip(term1.entries, term2.entries)
                    ],
                    cols=ident.cols,
                )
                assert total == ident, (g, k)


def _averaged_homotopy(g, k: int) -> QMatrix:
    """Average over vertices of left multiplication by a degree-one
    generator, from exterior degree k to k + 1."""
    n = g.n
    if k < 0:
        return zero_matrix(math.comb(n, 0), 0)
    dom = list(combinations(g.vertices, k))
    cod = list(combinations(g.vertices, k + 1))
    index = {s: i for i, s in enumerate(cod)}
    rows = [[Fraction(0)] * len(dom) for _ in cod]
    for j, s in enumerate(dom):
        for v in g.vertices:
            if v in s:
                continue
            sgn = -1 if sum(1 for u in s if u < v) % 2 else 1
            rows[index[tuple(sorted(s + (v,)))]][j] += Fraction(sgn, n)
    return QMatrix(len(cod), len(dom), tuple(tuple(r) for r in rows))


def test_criterion_08_gravity_relations(classes_upto_5):
    with criterion(8, "tube expansion and total-sum relations hold exactly "
                      "in the square-zero model for <= 5 vertices"):
        for g in classes_upto_5:
            if g.n < 2:
                continue
            results, total = check_gravity_relations(g)
            assert total and all(ok for _, ok in results), g
            expected_tubes = sum(1 for t in tubes(g)[:-1] if len(t) >= 2)
            assert len(results) == expected_tubes


def test_criterion_09_koszul_pairing(classes_upto_6):
    with criterion(9, "gravity and hypercommutative relation spans are "
                      "orthogonal complements; hyper span has dimension n-1, "
                      "for <= 6 vertices; complete:9-10 and path/cycle:12 "
                      "together in < 10 s"):
        for g in classes_upto_6:
            if g.n >= 2:
                _check_koszul_pairing(g)
        t0 = time.monotonic()
        for g in (family("complete", 9), family("complete", 10),
                  family("path", 12), family("cycle", 12)):
            _check_koszul_pairing(g)
        assert time.monotonic() - t0 < 10.0


def _check_koszul_pairing(g):
    rg = gravity_relations(g, cap=g.n)
    rh = hypercom_relations(g, cap=g.n)
    assert all(x == 0 for row in relation_pairing(rg, rh) for x in row), g
    assert rh.span_dim() == g.n - 1, g
    assert rg.span_dim() + rh.span_dim() == len(rg.basis), g


def test_criterion_10_groebner_counts(classes_upto_6):
    with criterion(10, "normal monomials by degree, enumerated and counted by "
                       "the tube recursion: binom(n-1, k) for gravity, the "
                       "h-vector for hypercommutative (h(1) = the polytope's "
                       "vertex count), one maximal set for grcom, "
                       "for <= 6 vertices"):
        for g in classes_upto_6:
            n = g.n
            h = h_poly_from_f(f_vector(g))
            assert sum(h) == len(maximal_nested(g)), g
            want = {"grav": [math.comb(n - 1, k) for k in range(n)],
                    "hyper": h + [0] * (n - len(h)),
                    "grcom": [1] + [0] * (n - 1)}
            for system, counts in want.items():
                by_degree = [0] * n
                for ns in normal_monomials(g, system):
                    by_degree[n - len(ns)] += 1
                assert by_degree == normal_counts(g, system) == counts, (g, system)


def test_criterion_11_reduction_induction(classes_upto_6):
    with criterion(11, "reduction lands on normal monomials; induction is a "
                       "section and is injective on them, for <= 6 vertices"):
        for g in classes_upto_6:
            normals = set(normal_monomials(g, "hyper"))
            for tau in maximal_nested(g):
                assert is_normal(reduction(tau), "hyper"), (g, tau)
            for w in enumerate_nested(g, augmented=True):
                back = reduction(induction(w))
                assert set(back.tubes) <= set(w.tubes), (g, w)
                if w in normals:
                    assert back == w, (g, w)
            images = {induction(w) for w in normals}
            assert len(images) == len(normals), g


def test_criterion_12_axiom_suite(classes_upto_5):
    with criterion(12, "unit, parallel, consecutive, equivariance pass for "
                       "both models on <= 5 vertices and complete:6; the "
                       "sign-mutated model is rejected"):
        for g in classes_upto_5 + [family("complete", 6)]:
            assert not check_axioms(GRCOM, g), g
            assert not check_axioms(GRGERST, g), g
        broken = check_axioms(BROKEN_GERST, family("path", 3))
        assert {name for name, _ in broken} == {"consecutive", "parallel", "unit"}
