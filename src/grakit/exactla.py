"""Exact linear algebra: sparse rank over ℚ, and chain complexes held in
sparse columns, with their homology.

No floating point anywhere.  Every rank goes through one sparse
column-elimination routine, ``_rank_exact``, on columns given as
{row: entry} dicts.  The dense ``rank(QMatrix)`` ranks the matrix's
columns by it.  A :class:`ChainComplex` holds each differential as such
columns and checks d∘d = 0 exactly when built; :func:`homology_dims` reads
its homology off exact ranks of them.

Integer entries stay integers under pivots led by ±1: such a pivot is its
own inverse, so storing it scaled multiplies it by ±1, and reducing a
column by it subtracts an integer multiple of an integer vector.  A
Fraction is built only when a pivot is led by any other entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence


@dataclass(frozen=True)
class QMatrix:
    """Immutable dense matrix with exact rational entries (row-major tuples),
    the form ``rank`` and the engine's derivation matrix take."""

    rows: int
    cols: int
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise ValueError("entry shape does not match declared dimensions")

    @staticmethod
    def from_rows(rows: Sequence[Sequence], cols: int | None = None) -> "QMatrix":
        data = tuple(tuple(Fraction(x) for x in r) for r in rows)
        if data:
            cols = len(data[0])
        elif cols is None:
            cols = 0
        return QMatrix(len(data), cols, data)


def _rank_exact(columns: Iterable[dict]) -> int:
    """Exact rank over ℚ of the matrix with the given sparse columns
    ({row: entry}, rows any comparable keys, entries ints or Fractions).

    Each pivot column is stored scaled to 1 at its largest row; a new column
    is reduced at its largest row until that row is no pivot's or the column
    vanishes.  An integral entry is held as an int and a pivot led by ±1 is
    its own inverse, so the stored pivot and every reduced column stay
    integer vectors; Fractions enter only when a pivot led by another entry
    is scaled.
    """
    pivots: dict = {}
    for col in columns:
        v = {r: x.numerator if x.denominator == 1 else x for r, x in col.items() if x}
        while v:
            r = max(v)
            f = v[r]
            piv = pivots.get(r)
            if piv is None:
                inv = f if f in (1, -1) else 1 / Fraction(f)
                pivots[r] = {i: x * inv for i, x in v.items()}
                break
            for i, x in piv.items():
                y = v.get(i, 0) - f * x
                if y:
                    v[i] = y
                else:
                    v.pop(i, None)
    return len(pivots)


def rank(m: QMatrix) -> int:
    """Exact rank of a dense matrix, by the sparse route over its columns."""
    return _rank_exact({i: row[j] for i, row in enumerate(m.entries) if row[j]}
                       for j in range(m.cols))


@dataclass(frozen=True, eq=False)
class ChainComplex:
    """Finite chain complex over the rationals with differential of degree -1.

    ``dims[k]`` is the dimension in degree k, over a contiguous range of
    degrees.  ``columns[k]`` holds the boundary of each cell of degree k as
    one {row in degree k-1: entry} dict, entries ints or Fractions; a degree
    with no entry in ``columns`` has the zero differential.  The shapes and
    d∘d = 0 are checked exactly on construction.
    """

    dims: dict
    columns: dict

    def __post_init__(self):
        degs = sorted(self.dims)
        if degs and degs != list(range(degs[0], degs[-1] + 1)):
            raise ValueError("degrees must form a contiguous range")
        for k, cols in self.columns.items():
            want, lower = self.dims.get(k, 0), self.dims.get(k - 1, 0)
            if len(cols) != want:
                raise ValueError(f"degree {k} has {len(cols)} columns, expected {want}")
            if any(col and (min(col) < 0 or max(col) >= lower) for col in cols):
                raise ValueError(f"a column of degree {k} has a row outside 0..{lower - 1}")
        # squared-differential gate: each column times the columns one degree down
        for k, cols in self.columns.items():
            below = self.columns.get(k - 1)
            if below is None:
                continue
            for j, col in enumerate(cols):
                acc: dict = {}
                for r, c in col.items():
                    for r2, c2 in below[r].items():
                        acc[r2] = acc.get(r2, 0) + c * c2
                if any(acc.values()):
                    raise ValueError(f"squared differential is nonzero on cell {j} of degree {k}")


def homology_dims(c: ChainComplex) -> dict[int, int]:
    """dim H_k = dim ker d_k - rank d_{k+1} = dims[k] - rank d_k - rank d_{k+1},
    by exact ranks of the columns; a degree with no columns has rank 0."""
    ranks = {k: _rank_exact(cols) for k, cols in c.columns.items()}
    return {k: c.dims[k] - ranks.get(k, 0) - ranks.get(k + 1, 0) for k in sorted(c.dims)}
