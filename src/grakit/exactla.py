"""Exact linear algebra: sparse rank over GF(p) or ℚ, and the homology of
chain complexes.

No floating point anywhere.  Every rank goes through one sparse
column-elimination routine, ``_eliminate``, on columns given as
{row: entry} dicts.  Exactly over ℚ (``_rank_exact``), integer entries stay
integers and Fractions appear only after scaling a pivot not led by ±1.
Modulo the prime p = 2^61 - 1 (``_rank_mod_p``), integer entries are
reduced mod p.  The dense ``rank(QMatrix)`` ranks the matrix's columns by
the exact route.

The mod-p rank never exceeds the rank over the rationals: a minor that is
nonzero mod p is a nonzero integer.  So for an integer chain complex,
dim H_k over GF(p) >= dim H_k over Q in every degree, while both
homologies have the Euler characteristic of the complex.  Hence a complex
whose mod-p homology is a point (one dimension in degree 0, none elsewhere)
has the rational homology of a point.  Any other mod-p answer proves
nothing, and the caller must fall back to the exact rank.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence


@dataclass(frozen=True)
class QMatrix:
    """Immutable matrix with exact rational entries (row-major tuples)."""

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

    @staticmethod
    def zero(rows: int, cols: int) -> "QMatrix":
        return QMatrix(rows, cols, tuple((Fraction(0),) * cols for _ in range(rows)))

    @staticmethod
    def identity(n: int) -> "QMatrix":
        return QMatrix(n, n, tuple(
            tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
        ))

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        return self.entries[ij[0]][ij[1]]

    def transpose(self) -> "QMatrix":
        if not self.entries:
            return QMatrix(self.cols, self.rows, tuple(() for _ in range(self.cols)))
        return QMatrix(self.cols, self.rows, tuple(zip(*self.entries)))

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        zero = Fraction(0)
        out = []
        for row in self.entries:
            acc = [zero] * other.cols
            for k, a in enumerate(row):
                if a:
                    brow = other.entries[k]
                    acc = [x + a * b for x, b in zip(acc, brow)]
            out.append(tuple(acc))
        return QMatrix(self.rows, other.cols, tuple(out))

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

    def to_json(self) -> list[list[str]]:
        """Entries as "p/q" strings, for debugging dumps."""
        return [[f"{x.numerator}/{x.denominator}" for x in row] for row in self.entries]


_P = (1 << 61) - 1


def _eliminate(columns: Iterable[dict], p: int) -> int:
    """Rank of the matrix with the given sparse columns ({row: entry}, rows
    any comparable keys), over GF(p) for a prime p, or over ℚ when p is 0.

    Each pivot column is stored scaled to 1 at its largest row; a new column
    is reduced at its largest row until that row is no pivot's or the column
    vanishes.  Over ℚ an integral entry is held as an int and a pivot led by
    ±1 is its own inverse, so Fractions enter only when a pivot led by
    another entry is scaled.
    """
    pivots: dict = {}
    for col in columns:
        if p:
            v = {r: x % p for r, x in col.items() if x % p}
        else:
            v = {r: x.numerator if x.denominator == 1 else x for r, x in col.items() if x}
        while v:
            r = max(v)
            f = v[r]
            piv = pivots.get(r)
            if piv is None:
                if p:
                    inv = pow(f, -1, p)
                    pivots[r] = {i: x * inv % p for i, x in v.items()}
                else:
                    inv = f if f in (1, -1) else 1 / Fraction(f)
                    pivots[r] = {i: x * inv for i, x in v.items()}
                break
            for i, x in piv.items():
                y = v.get(i, 0) - f * x
                if p:
                    y %= p
                if y:
                    v[i] = y
                else:
                    v.pop(i, None)
    return len(pivots)


def _rank_mod_p(columns: Iterable[dict]) -> int:
    """Rank over GF(p), p = _P, of the integer matrix with the given sparse
    columns; at most the exact rank (see the module docstring)."""
    return _eliminate(columns, _P)


def _rank_exact(columns: Iterable[dict]) -> int:
    """Exact rank over ℚ of the matrix with the given sparse columns of
    integer or Fraction entries."""
    return _eliminate(columns, 0)


def rank(m: QMatrix) -> int:
    """Exact rank of a dense matrix, by the sparse route over its columns."""
    return _rank_exact({i: row[j] for i, row in enumerate(m.entries) if row[j]}
                       for j in range(m.cols))


@dataclass(frozen=True, eq=False)
class ChainComplex:
    """Finite chain complex over the rationals with differential of degree -1.

    ``dims[k]`` is the dimension in degree k for k in the contiguous range
    ``degrees``; ``differentials[k]`` maps degree k to degree k-1 and must
    have shape dims[k-1] x dims[k].  d∘d = 0 is verified on construction.
    """

    dims: dict
    differentials: dict

    def __post_init__(self):
        degs = sorted(self.dims)
        if degs and degs != list(range(degs[0], degs[-1] + 1)):
            raise ValueError("degrees must form a contiguous range")
        for k, d in self.differentials.items():
            lower = self.dims.get(k - 1, 0)
            if d.rows != lower or d.cols != self.dims.get(k, 0):
                raise ValueError(f"differential at degree {k} has shape "
                                 f"{d.rows}x{d.cols}, expected {lower}x{self.dims.get(k, 0)}")
        for k in degs:
            d_k = self.differentials.get(k)
            d_next = self.differentials.get(k + 1)
            if d_k is not None and d_next is not None and not (d_k @ d_next).is_zero():
                raise ValueError(f"d∘d != 0 between degrees {k + 1} and {k - 1}")

    @property
    def degrees(self) -> list[int]:
        return sorted(self.dims)

    def differential(self, k: int) -> QMatrix:
        d = self.differentials.get(k)
        if d is None:
            d = QMatrix.zero(self.dims.get(k - 1, 0), self.dims.get(k, 0))
        return d

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * dim for k, dim in self.dims.items())


def _homology(dims: dict, ranks: dict) -> dict[int, int]:
    """dim H_k = dims[k] - rank d_k - rank d_{k+1}; a missing rank is 0."""
    return {k: dims[k] - ranks.get(k, 0) - ranks.get(k + 1, 0) for k in sorted(dims)}


def homology_dims(c: ChainComplex) -> dict[int, int]:
    """dim H_k = dim ker d_k - rank d_{k+1}, per degree of the complex."""
    return _homology(c.dims, {k: rank(c.differential(k)) for k in c.dims})
