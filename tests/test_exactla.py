import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from grakit import ChainComplex, QMatrix, homology_dims, rank
from grakit.exactla import _rank_exact
from conftest import (
    euler_characteristic,
    identity_matrix,
    kernel_basis,
    matmul,
    rank_bareiss,
    rref,
    sparse_columns,
    transpose,
    zero_matrix,
)


def M(rows):
    return QMatrix.from_rows(rows)


def test_rank_examples():
    assert rank(identity_matrix(2)) == 2
    assert rank(zero_matrix(3, 4)) == 0
    assert rank(M([[1, 2], [2, 4]])) == 1


def test_rank_transpose_and_bounds():
    rng = random.Random(12)
    for _ in range(40):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = M([[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)])
        r = rank(m)
        assert r == rank(transpose(m))
        assert r <= min(rows, cols)
    # non-unit pivots bring in Fractions
    m = M([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(2, 1)]])
    assert any(x.denominator != 1 for row in m.entries for x in row)
    assert rank(m) == rank(transpose(m)) == 2
    singular = M([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1, 1)]])
    assert rank(singular) == 1


def _rank_by_minors(m: QMatrix) -> int:
    """Independent oracle: largest size of a nonvanishing square minor."""
    def det(rows):
        n = len(rows)
        if n == 0:
            return Fraction(1)
        total = Fraction(0)
        for p in itertools.permutations(range(n)):
            sign = 1
            for i in range(n):
                for j in range(i + 1, n):
                    if p[i] > p[j]:
                        sign = -sign
            prod = Fraction(1)
            for i in range(n):
                prod *= rows[i][p[i]]
            total += sign * prod
        return total

    best = 0
    for k in range(1, min(m.rows, m.cols) + 1):
        for ri in itertools.combinations(range(m.rows), k):
            for ci in itertools.combinations(range(m.cols), k):
                sub = [[m.entries[i][j] for j in ci] for i in ri]
                if det(sub) != 0:
                    best = k
                    break
            else:
                continue
            break
    return best


def test_rank_against_minor_oracle():
    rng = random.Random(8)
    for _ in range(25):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = M([[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)])
        assert rank(m) == _rank_by_minors(m)


def test_kernel_examples():
    assert kernel_basis(identity_matrix(3)) == []
    assert len(kernel_basis(zero_matrix(2, 3))) == 3
    (v,) = kernel_basis(M([[1, 1]]))
    assert v[0] == -v[1] != 0


def test_kernel_annihilates_and_counts():
    rng = random.Random(21)
    for _ in range(30):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = M([[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)])
        basis = kernel_basis(m)
        assert len(basis) == cols - rank(m)
        for v in basis:
            assert all(
                sum(a * b for a, b in zip(row, v)) == 0 for row in m.entries
            )


def test_qmatrix_validation():
    with pytest.raises(ValueError):
        QMatrix(2, 2, ((Fraction(1),),))
    m = M([[Fraction(1, 2), 3]])
    assert m.entries == ((Fraction(1, 2), Fraction(3)),)
    with pytest.raises(ValueError):
        matmul(m, m)


def test_chain_complex_validation():
    good = ChainComplex({0: 1, 1: 1}, {1: [{0: 1}]})
    assert euler_characteristic(good) == 0
    assert euler_characteristic(ChainComplex({0: 2, 1: 3}, {})) == -1  # zero differentials
    with pytest.raises(ValueError, match="columns"):
        ChainComplex({0: 1, 1: 1}, {1: [{0: 1}, {0: 1}]})  # wrong column count
    with pytest.raises(ValueError, match="row outside"):
        ChainComplex({0: 1, 1: 1}, {1: [{1: 1}]})  # row past the degree below
    with pytest.raises(ValueError, match="row outside"):
        ChainComplex({0: 1, 1: 1}, {1: [{-1: 1}]})  # negative row
    with pytest.raises(ValueError, match="row outside"):
        ChainComplex({0: 1, 1: 1}, {0: [{0: 1}]})  # no degree below 0
    with pytest.raises(ValueError, match="squared differential"):
        # d at degree 1 then degree 2 with nonzero composite
        ChainComplex({0: 1, 1: 1, 2: 1}, {1: [{0: 1}], 2: [{0: 1}]})
    with pytest.raises(ValueError, match="contiguous"):
        ChainComplex({0: 1, 2: 1}, {})


def test_chain_complex_gate_rejects_a_flipped_entry():
    # negative control on the pentagon's cells: negating one entry of the
    # boundary of the 2-cell leaves d∘d nonzero, with int entries and with
    # every entry scaled by a Fraction
    from grakit import cobar_complex, family

    cx = cobar_complex(family("path", 3))
    for scale in (1, Fraction(2, 3)):
        columns = {k: [{r: scale * c for r, c in col.items()} for col in cols]
                   for k, cols in cx.columns.items()}
        ChainComplex(cx.dims, columns)  # the unflipped copy passes
        (top,) = columns[2]
        r = next(iter(top))
        top[r] = -top[r]
        with pytest.raises(ValueError, match="squared differential is nonzero"):
            ChainComplex(cx.dims, columns)


def test_homology_examples():
    all_zero = ChainComplex({0: 2, 1: 3}, {1: [{}, {}, {}]})
    assert homology_dims(all_zero) == {0: 2, 1: 3}
    assert homology_dims(ChainComplex({0: 2, 1: 3}, {})) == {0: 2, 1: 3}
    acyclic = ChainComplex({0: 1, 1: 1}, {1: [{0: 1}]})
    assert homology_dims(acyclic) == {0: 0, 1: 0}


def test_homology_pentagon_cells():
    from grakit import cobar_complex, family

    c = cobar_complex(family("path", 3))
    assert c.dims == {0: 5, 1: 5, 2: 1}
    assert homology_dims(c) == {0: 1, 1: 0, 2: 0}


def test_euler_characteristic_invariance():
    # chi of homology equals chi of the complex; build complexes with
    # d2 = a kernel basis of d1 so that d1 d2 = 0 by construction
    rng = random.Random(33)
    for _ in range(15):
        c0 = rng.randint(1, 3)
        c1 = rng.randint(1, 4)
        d1 = M([[rng.randint(-2, 2) for _ in range(c1)] for _ in range(c0)])
        ker = kernel_basis(d1)
        if not ker:
            continue
        d2 = QMatrix.from_rows([list(col) for col in zip(*ker)], cols=len(ker))
        cx = ChainComplex({0: c0, 1: c1, 2: len(ker)},
                          {1: sparse_columns(d1), 2: sparse_columns(d2)})
        hom = homology_dims(cx)
        chi_h = sum((-1) ** k * d for k, d in hom.items())
        assert chi_h == euler_characteristic(cx)


def _columns(m: QMatrix) -> list[dict]:
    return [{i: int(x) for i, x in col.items()} for col in sparse_columns(m)]


def _integer_rows(m: QMatrix) -> list[list[int]]:
    """m with each row scaled by the lcm of its denominators: an integer
    matrix of the same rank."""
    out = []
    for row in m.entries:
        d = math.lcm(*(x.denominator for x in row))
        out.append([int(x * d) for x in row])
    return out


_ENTRIES = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


@given(st.integers(1, 5).flatmap(lambda cols: st.lists(
    st.lists(_ENTRIES, min_size=cols, max_size=cols), min_size=1, max_size=5)))
def test_sparse_rank_matches_dense_oracles(rows):
    m = M(rows)
    want = _rank_by_minors(m)
    columns = [{i: x for i, x in enumerate(col) if x} for col in zip(*m.entries)]
    assert _rank_exact(columns) == rank(m) == len(rref(m)[1]) == want
    # the same rank on integers, against the Bareiss oracle
    z = M(_integer_rows(m))
    assert rank_bareiss(z) == _rank_exact(_columns(z)) == want


def test_sparse_rank_keeps_integers_under_unit_pivots():
    # integral Fractions enter as ints; a ±1 pivot scales by itself, so no
    # Fraction is made, and a pivot led by 2 makes the rank exact still
    cols = [{0: Fraction(1), 1: -1}, {1: 1, 2: Fraction(-1)}, {0: 1, 2: -1}]
    assert _rank_exact(cols) == 2
    assert _rank_exact([{0: 2, 1: 1}, {0: 1, 1: 2}]) == 2
    assert _rank_exact([{0: 2, 1: 4}, {0: 1, 1: 2}]) == 1
    assert _rank_exact([]) == _rank_exact([{}]) == 0
