import math

import pytest
from hypothesis import given, strategies as st

from grakit import (
    NotConnectedError,
    betti,
    f_vector,
    family,
    h_poly_from_descents,
    h_poly_from_f,
    make_graph,
    maximal_nested,
)


def test_f_vector_examples():
    assert f_vector(family("path", 3)) == [5, 5, 1]
    assert f_vector(family("complete", 2)) == [2, 1]
    assert f_vector(family("complete", 3)) == [6, 6, 1]
    assert f_vector(family("path", 1)) == [1]


def test_f_vector_errors():
    with pytest.raises(NotConnectedError):
        f_vector(make_graph([], []))
    with pytest.raises(NotConnectedError):
        f_vector(make_graph([1, 2], []))


def test_h_poly_from_f_examples():
    assert h_poly_from_f([5, 5, 1]) == [1, 3, 1]
    assert h_poly_from_f([2, 1]) == [1, 1]
    assert h_poly_from_f([1]) == [1]
    with pytest.raises(ValueError):
        h_poly_from_f([])


@given(st.lists(st.integers(-50, 50), min_size=1, max_size=7))
def test_h_poly_matches_pointwise_evaluation(f):
    # independent check: evaluate both sides of the binomial transform
    h = h_poly_from_f(f)
    for t in range(-3, 6):
        lhs = sum(c * t**i for i, c in enumerate(h))
        rhs = sum(fi * (t - 1) ** i for i, fi in enumerate(f))
        assert lhs == rhs


def test_h_poly_from_descents_examples():
    assert h_poly_from_descents(family("path", 3)) == [1, 3, 1]
    assert h_poly_from_descents(family("complete", 3)) == [1, 4, 1]
    assert h_poly_from_descents(family("path", 1)) == [1]


def test_betti_examples():
    assert betti(family("path", 3)) == [1, 3, 1]
    assert betti(family("complete", 2)) == [1, 1]
    assert betti(family("complete", 3)) == [1, 4, 1]


def test_h_at_one_counts_vertices(classes_upto_5):
    for g in classes_upto_5:
        h = h_poly_from_f(f_vector(g))
        assert sum(h) == f_vector(g)[0] == len(maximal_nested(g))


def test_known_families():
    catalan = {2: 2, 3: 5, 4: 14, 5: 42, 6: 132}
    for n, c in catalan.items():
        assert f_vector(family("path", n))[0] == c
    import math

    for n in range(2, 6):
        assert f_vector(family("complete", n))[0] == math.factorial(n)


def test_h_identity_and_symmetry_small(classes_upto_5):
    for g in classes_upto_5:
        h = h_poly_from_f(f_vector(g))
        assert h == h_poly_from_descents(g)
        assert h == h[::-1]


def _stirling2(n: int, k: int) -> int:
    """Partitions of an n-set into k nonempty blocks, by inclusion-exclusion."""
    return sum((-1) ** i * math.comb(k, i) * (k - i) ** n for i in range(k + 1)) // math.factorial(k)


def test_f_vector_closed_forms_at_reach():
    # The i-faces of the permutohedron are the ordered set partitions into n - i
    # blocks, (n - i)! S(n, n - i) of them; all faces together make a Fubini number.
    fubini = [1]
    for n in range(1, 11):
        fubini.append(sum(math.comb(n, k) * fubini[n - k] for k in range(1, n + 1)))
    assert fubini[8] == 545835
    for n in range(1, 11):
        f = f_vector(family("complete", n), cap=12)
        assert f == [math.factorial(n - i) * _stirling2(n, n - i) for i in range(n)], n
        assert sum(f) == fubini[n]
    # The i-faces of the associahedron are the dissections of an (n+2)-gon by
    # j = n-1-i diagonals, C(n-1, j) C(n+1+j, j) / (j+1) of them (Kirkman-Cayley);
    # all faces together make a little Schröder number.
    for n in range(1, 13):
        f = f_vector(family("path", n), cap=12)
        assert f == [math.comb(n - 1, j) * math.comb(n + 1 + j, j) // (j + 1)
                     for j in range(n - 1, -1, -1)], n
        assert n != 9 or sum(f) == 103049
