"""Exact linear algebra helpers.

Two layers:

* fraction-free kernels for rational matrices (``mat_vec``, ``rref``,
  ``rank`` and what is built on them); tagged constants of Q(T)
  (``fields.RationalFunction``) are read as their rational values
  (``_constant_matrix``) by the same kernels, which return Fractions over
  every field, and
* integer routines (column Hermite normal form, kernels, intersections,
  Smith normal form, the adjugate and determinant of a square matrix) used
  by the lattice and adelic code and by the inverse of a rational basis.

Matrices are lists of rows throughout.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import List, Optional, Sequence

from .fields import _constant_value

Matrix = List[list]


def identity(n: int) -> Matrix:
    one, zero = Fraction(1), Fraction(0)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_vec(a: Sequence[Sequence], v: Sequence) -> list:
    """a v as Fractions, from the integer kernel; entries may be rationals
    or constants of Q(T)."""
    return _mat_vec_integer(map(_integer_row, _constant_matrix(a)), *_integer_row(_constants(v)))


def _mat_vec_integer(rows, w: Sequence[int], d_w: int) -> list:
    """``mat_vec`` fraction-free over rows already scaled to integers, as
    (integers, d) pairs (``_integer_row``), and the vector w / d_w: each
    entry is one integer dot product and one Fraction."""
    return [Fraction(sum(map(mul, ints, w)), d * d_w) for ints, d in rows]


def _is_rational(values) -> bool:
    return all(isinstance(x, (int, Fraction)) for x in values)


def _constants(values: Sequence) -> Sequence:
    """values itself when rational, else as Fractions: each is a rational
    or a constant of Q(T) (``fields._constant_value``)."""
    return values if _is_rational(values) else list(map(_constant_value, values))


def _constant_matrix(m: Sequence[Sequence]) -> Matrix:
    """m itself when rational, else its rows as ``_constants``."""
    return m if all(map(_is_rational, m)) else list(map(_constants, m))


def _integer_row(row: Sequence) -> tuple[list, int]:
    """A rational row as (integers, d) with row = integers / d, where d is
    the lcm of its denominators."""
    dens = [x.denominator for x in row]
    d = lcm(*dens)
    return [x.numerator * (d // e) for x, e in zip(row, dens)], d


def _integer_matrix(m: Sequence[Sequence]) -> tuple[Matrix, int]:
    """A rational matrix as (integers, d) with m = integers / d, where d is
    the lcm of all its denominators."""
    d = lcm(*(x.denominator for row in m for x in row))
    return [[x.numerator * (d // x.denominator) for x in row] for row in m], d


def transpose(a: Sequence[Sequence]) -> Matrix:
    return [list(col) for col in zip(*a)]


def rref(m: Sequence[Sequence]) -> tuple[Matrix, list[int]]:
    """Reduced row-echelon form; returns (rref matrix, pivot columns), as
    Fractions for entries that are rationals or constants of Q(T)."""
    return _rref_integer(_constant_matrix(m))


def _rref_integer(m: Sequence[Sequence]) -> tuple[Matrix, list[int]]:
    """Gauss-Jordan elimination of a rational matrix, fraction-free:
    ``_bareiss`` on the rows scaled to integers, each row divided by its
    pivot only at the end."""
    a = [_integer_row(row)[0] for row in m]
    pivots = _bareiss(a)
    zero = Fraction(0)
    return ([[Fraction(x, row[c]) if x else zero for x in row]
             for row, c in zip(a, pivots)]
            + [[zero] * len(row) for row in a[len(pivots):]], pivots)


def _bareiss(a: List[list[int]]) -> list[int]:
    """Gauss-Jordan elimination of integer rows in place, fraction-free
    (Bareiss, Math. Comp. 22, 1968); returns the pivot columns.  Each row
    is kept a primitive integer multiple of its row in the Gauss-Jordan
    elimination over Q, so pivots and swaps agree."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        for pivot in range(r, rows):
            if a[pivot][c]:
                break
        else:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        top, p = a[r], a[r][c]
        for i in range(rows):
            f = a[i][c]
            if i != r and f:
                row = [p * x - f * y for x, y in zip(a[i], top)]
                g = gcd(*row)
                a[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return pivots


def rank(m: Sequence[Sequence]) -> int:
    """The rank, by ``_bareiss``; it builds no Fraction."""
    return len(_bareiss([_integer_row(row)[0] for row in _constant_matrix(m)]))


def extend_basis(base: Sequence[Sequence], candidates: Sequence[Sequence],
                 size: int) -> List[int]:
    """Greedy basis completion: the indices of the candidates, scanned in
    order, that raise the rank of the independent rows ``base`` plus those
    kept so far, until ``size`` rows are kept in all.  Constants of Q(T)
    are unwrapped once, not at every ``rank``."""
    rows = list(_constant_matrix(base))
    kept: List[int] = []
    for i, v in enumerate(_constant_matrix(candidates)):
        if len(rows) >= size:
            break
        if rank(rows + [v]) > len(rows):
            rows.append(v)
            kept.append(i)
    return kept


def solve(a: Sequence[Sequence], b: Sequence) -> Optional[list]:
    """One solution x of a x = b, or None if inconsistent."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    aug = [list(a[i]) + [b[i]] for i in range(rows)]
    red, pivots = rref(aug)
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for r, c in enumerate(pivots):
        x[c] = red[r][cols]
    return x


def invert(a: Sequence[Sequence]) -> Matrix:
    """Inverse of a square matrix; raises ValueError if singular."""
    a = _constant_matrix(a)
    if not any(map(any, a)):
        raise ValueError("singular matrix (zero)")
    n = len(a)
    red, pivots = rref([list(row) + e for row, e in zip(a, identity(n))])
    if pivots != list(range(n)):
        raise ValueError("singular matrix")
    return [row[n:] for row in red]


def adjugate(m: Sequence[Sequence[int]]) -> tuple[Optional[Matrix], int]:
    """(adj m, det m) of a square integer matrix, or (None, 0) if m is
    singular, by fraction-free Gauss-Jordan elimination of [m | I]
    (Bareiss, Math. Comp. 22, 1968): every entry stays an integer, each
    step divides exactly by the previous pivot, and at the end [m | I] is
    [+-det I | +-adj], the sign being that of the row swaps."""
    n = len(m)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    prev, sign = 1, 1
    for k in range(n):
        for pivot in range(k, n):
            if a[pivot][k]:
                break
        else:
            return None, 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        top, p = a[k], a[k][k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], top)]
        prev = p
    return [[sign * x for x in row[n:]] for row in a], sign * prev


def kernel_basis(m: Sequence[Sequence]) -> Matrix:
    """Basis (list of vectors) of the right kernel of m."""
    cols = len(m[0]) if m else 0
    red, pivots = rref(m)
    basis = []
    for f in range(cols):
        if f not in pivots:
            v = [Fraction(0)] * cols
            v[f] = Fraction(1)
            for r, c in enumerate(pivots):
                v[c] = -red[r][f]
            basis.append(v)
    return basis


# ----------------------------------------------------------------------
# Integer lattice routines (columns span the lattice)
# ----------------------------------------------------------------------


def _int_col_reduce(cols: List[list[int]]) -> List[list[int]]:
    """Column-style Hermite normal form of the lattice spanned by
    ``cols`` (each an integer vector of common length).  Returns a basis
    in lower-staircase form: pivots positive, entries right of a pivot
    reduced into [0, pivot)."""
    work = [list(c) for c in cols if any(c)]
    if not work:
        return []
    n = len(work[0])
    basis: List[list[int]] = []
    row = 0
    while work and row < n:
        # bring every column's `row` entry to a single pivot via gcd steps
        while True:
            nz = [c for c in work if c[row] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda c: abs(c[row]))
            a, b = nz[0], nz[1]
            q = b[row] // a[row]
            for i in range(n):
                b[i] -= q * a[i]
        pivot_col = next((c for c in work if c[row] != 0), None)
        if pivot_col is not None:
            work.remove(pivot_col)
            work = [c for c in work if any(c)]
            if pivot_col[row] < 0:
                pivot_col = [-x for x in pivot_col]
            basis.append(pivot_col)
        row += 1
    # reduce entries of earlier basis vectors against later pivots
    pivot_rows = [next(r for r, x in enumerate(b) if x) for b in basis]
    for j in range(len(basis)):
        for k in range(j + 1, len(basis)):
            r = pivot_rows[k]
            p = basis[k][r]
            q = basis[j][r] // p
            if q:
                for i in range(len(basis[j])):
                    basis[j][i] -= q * basis[k][i]
    return basis


def hnf_column_basis(cols: Sequence[Sequence[int]]) -> List[list[int]]:
    """Canonical integer basis (as columns) of the lattice spanned by cols."""
    return _int_col_reduce([list(c) for c in cols])


def integer_kernel(m: Sequence[Sequence[int]]) -> List[list[int]]:
    """Z-basis of the full integer kernel {x in Z^cols : m x = 0}: the
    column HNF of the vectors (m e_j ; e_j) is in staircase form, so the
    kernel is spanned by the tails of its basis vectors with zero head."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    hnf = _int_col_reduce([[m[i][j] for i in range(rows)] +
                           [1 if k == j else 0 for k in range(cols)]
                           for j in range(cols)])
    return hnf_column_basis([b[rows:] for b in hnf if not any(b[:rows])])


def lattice_intersection(a_cols: Sequence[Sequence[int]],
                         b_cols: Sequence[Sequence[int]]) -> List[list[int]]:
    """Basis of the intersection of two full-rank integer lattices in Z^n,
    given by basis columns."""
    n = len(a_cols[0])
    # x in A cap B  <=>  x = A u = B v; solve [A | -B] (u,v)^T = 0 over Z.
    m = [[a_cols[j][i] for j in range(len(a_cols))] +
         [-b_cols[j][i] for j in range(len(b_cols))]
         for i in range(n)]
    ker = integer_kernel(m)
    # x = A u for the head u of each kernel vector (map stops at len(u))
    return hnf_column_basis([[sum(map(mul, row, w)) for row in zip(*a_cols)]
                             for w in ker])


def smith_diagonal(m: Sequence[Sequence[int]]) -> list[int]:
    """Elementary divisors (Smith normal form diagonal) of an integer
    matrix, nonzero entries only, each dividing the next."""
    a = [list(row) for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    divisors = []
    top = 0
    left = 0
    while top < rows and left < cols:
        # find the nonzero entry of least absolute value in the submatrix
        best = None
        for i in range(top, rows):
            for j in range(left, cols):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        a[top], a[bi] = a[bi], a[top]
        for row in a:
            row[left], row[bj] = row[bj], row[left]
        p = a[top][left]
        dirty = False
        for i in range(top + 1, rows):
            q = a[i][left] // p
            if q:
                for j in range(left, cols):
                    a[i][j] -= q * a[top][j]
            if a[i][left] != 0:
                dirty = True
        for j in range(left + 1, cols):
            q = a[top][j] // p
            if q:
                for i in range(top, rows):
                    a[i][j] -= q * a[i][left]
            if a[top][j] != 0:
                dirty = True
        if dirty:
            continue
        # pivot must divide every remaining entry
        ok = True
        for i in range(top + 1, rows):
            for j in range(left + 1, cols):
                if a[i][j] % p != 0:
                    for k in range(left, cols):
                        a[top][k] += a[i][k]
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        divisors.append(abs(p))
        top += 1
        left += 1
    return divisors
