"""Finite-dimensional ultrametric normed spaces with orthogonal bases.

A norm is represented by an invertible matrix whose columns form an
orthogonal basis together with positive weights: for v with coordinates
a = basis^{-1} v, ``norm(v) = max_i |a_i| * w_i``.  Every operation here
(orthogonalizing a flag, distances to subspaces, quotient and dual
norms, scalar extension, unit-ball lattices) is carried out in exact
arithmetic.  The orthogonal elimination keeps each coordinate row as one
(integers, d) pair, the rational row integers / d, from the coordinates to
the result: the pivot and the norm come from valuations of integers
(``_weighted_max``, the package's one weighted sup norm, which also gives
``norm``, the Gauss and dual norms and point pivots), each clearing step is
one integer row operation over a gcd (``_reduce``), and Fractions are built
only where a result leaves.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence

from . import linalg
from .fields import Magnitude, PreconditionError, RationalFunction, ValuedField, _sign_scaled, _vp


@dataclass
class NormedSpace:
    """Ultrametric norm given by an orthogonal basis with weights.

    ``basis`` is a square matrix (list of rows) over the field whose
    columns are the orthogonal vectors; ``weights[i]`` is the norm of
    column i.  The standard basis with unit weights gives the sup norm.
    Entries are rationals or constants of Q(T); every result built from
    the integer forms (coordinates, vectors, the basis inverse) is Fractions.
    """

    field: ValuedField
    basis: List[list]
    weights: List[Magnitude]

    def __post_init__(self):
        r = len(self.basis)
        if any(len(row) != r for row in self.basis):
            raise PreconditionError("basis matrix must be square")
        if len(self.weights) != r:
            raise PreconditionError("one weight per basis vector required")
        if any(w.is_zero for w in self.weights):
            raise PreconditionError("weights must be positive")
        self._inverse = None
        self._columns = None
        self._integer = {}

    # -- constructors ----------------------------------------------------

    @classmethod
    def standard(cls, field: ValuedField, dim: int,
                 weights: Optional[Sequence[Magnitude]] = None) -> "NormedSpace":
        if weights is None:
            weights = [field.one_magnitude() for _ in range(dim)]
        return cls(field, linalg.identity(dim), list(weights))

    @property
    def dim(self) -> int:
        return len(self.weights)

    def basis_inverse(self) -> List[list]:
        """The inverse of the basis matrix, built once: one Fraction per
        entry of ``_integer_form("inverse")``."""
        if self._inverse is None:
            self._inverse = [[Fraction(x, d) for x in ints]
                             for ints, d in self._integer_form("inverse")]
        return self._inverse

    def _inverse_form(self, basis: List[list]) -> List[tuple]:
        """The rows of the inverse of the rational basis B (``basis``) as
        (integers, d) pairs: with D the lcm of B's denominators, row i of
        B^-1 is D adj(D B)_i / det(D B), reduced by the gcd of its entries
        and det."""
        ints, den = linalg._integer_matrix(basis)
        adj, det = linalg.adjugate(ints)
        if not (det and ints):
            reason = "singular matrix" if any(map(any, ints)) else "singular matrix (zero)"
            raise PreconditionError(f"basis is not invertible ({reason})")
        form = []
        for row in adj:
            row = [den * x for x in row]
            g = math.gcd(det, *row) * (1 if det > 0 else -1)
            form.append(([x // g for x in row], det // g))
        return form

    def column(self, i: int) -> list:
        return [row[i] for row in self.basis]

    def columns(self) -> List[list]:
        """The orthogonal basis vectors (the transposed basis), built once;
        row i of ``mat_vec(columns(), phi)`` is phi(e_i)."""
        if self._columns is None:
            self._columns = linalg.transpose(self.basis)
        return self._columns

    def integer_columns(self) -> List[tuple]:
        """Column i of the basis as (integers, d_i), where d_i is the lcm of
        its denominators and column i = integers / d_i; built once."""
        return self._integer_form("columns")

    def _integer_form(self, key: str) -> List[tuple]:
        """The rows of the basis ("basis") or of its transpose ("columns")
        as (integers, d) pairs (``linalg._integer_row``), or the
        ``_inverse_form`` ("inverse"); built once per key from the basis as
        Fractions (a Gauss space has its own, from its integer columns)."""
        if key not in self._integer:
            basis = linalg._constant_matrix(self.basis)
            if key == "inverse":
                self._integer[key] = self._inverse_form(basis)
            else:
                rows = basis if key == "basis" else linalg.transpose(basis)
                self._integer[key] = list(map(linalg._integer_row, rows))
        return self._integer[key]

    def coordinates(self, v: Sequence) -> list:
        """The inverse rows times v, one integer dot product per row, as Fractions."""
        if len(v) != self.dim:
            raise PreconditionError(
                f"vector has {len(v)} entries, the space has dimension {self.dim}")
        return linalg._mat_vec_integer(self._integer_form("inverse"),
                                       *linalg._integer_row(linalg._constants(v)))

    def norm(self, v: Sequence) -> Magnitude:
        """max_i |a_i| * w_i over the orthogonal coordinates a of v."""
        coords = linalg._integer_row(self.coordinates(v))
        return _weighted_max(self.field, self.weights, *coords)[1]

    def dual_weights(self) -> List[Magnitude]:
        """The reciprocal weights 1 / w_i, the norms of the dual basis; built once."""
        if "dual_weights" not in self._integer:
            self._integer["dual_weights"] = [Magnitude._normalized(w.rho, w.den, w.num, -w.n)
                                             for w in self.weights]
        return self._integer["dual_weights"]

    def _vectors(self, rows: List[tuple]) -> List[list]:
        """The vectors with coordinates r / d for each (integers, d) row r:
        one ``_mat_vec_integer`` per row over the "basis" integer form."""
        form = self._integer_form("basis")
        return [linalg._mat_vec_integer(form, *row) for row in rows]

    # -- value set ---------------------------------------------------------

    def norm_value_set(self):
        """Exact description of {norm(v) : v != 0} / the norm values.

        Discrete case: one representative weight per coset modulo the
        value group rho^Z (the full value set is these cosets times
        rho^Z).  Trivial case: the finite set of attained values
        (weights, deduplicated), which with 0 is the whole value set.
        """
        if self.dim == 0:
            return [self.field.zero_magnitude()]
        if self.field.is_discrete_nontrivial:
            # canonical normalization already strips the residue prime
            # from q, so cosets agree exactly when the q parts agree
            reps: dict[tuple, Magnitude] = {}
            for w in self.weights:
                reps.setdefault((w.num, w.den), w)
            return sorted(reps.values(), key=lambda m: (m.q, m.n))
        seen = [self.field.zero_magnitude()]
        for w in self.weights:
            if w not in seen:
                seen.append(w)
        return sorted(seen, key=lambda m: m.value())


# ----------------------------------------------------------------------
# Orthogonalization of compatible flags
# ----------------------------------------------------------------------


def _weighted_max(field: ValuedField, weights: Sequence[Magnitude], x: Sequence[int],
                  d: int, taken=()) -> tuple[Optional[int], Magnitude]:
    """The first j not in ``taken`` where |x_j| * w_j is largest, and
    max_j |x_j| * w_j / |d|, the weighted sup norm of the rational row
    x / d off ``taken``; (None, 0) when that part of x is zero.  Each value
    (num_j / den_j) rho^(n_j + v_p(x_j)), v_p read as 0 over Q and Q(T) where
    every nonzero rational has |c| = rho^0, compares in integers, exponent gap
    first (``fields._sign_scaled``); one Magnitude is built, the winner's."""
    P, p = field.prime or 1, field.prime if field.kind == "padic" else None
    best_j = None
    for j, a in enumerate(x):
        if a and j not in taken:
            w = weights[j]
            e = w.n + _vp(a, p) if p else w.n
            # (num/den) rho^e beats (A/B) rho^E exactly when num B P^(E - e) > A den
            if best_j is None or _sign_scaled(w.num * B, P, E - e, A * w.den) > 0:
                best_j, A, B, E = j, w.num, w.den, e
    if best_j is None:
        return None, field.zero_magnitude()
    return best_j, Magnitude._normalized(field.rho, A, B, E - _vp(d, p) if p else E)


def _reduce(target: tuple, r: Sequence[int], j: int) -> tuple:
    """The row t / d_t (``target``) minus the multiple of the row r / d that
    vanishes at coordinate j, as (integers, denominator): t <- r_j t - t_j r
    and d_t <- d_t r_j (d cancels), over the gcd of t and d_t (the sign
    stays on d_t); ``target`` itself when t_j = 0."""
    t, d_t = target
    tj, rj = t[j], r[j]
    if not tj:
        return target
    t = [rj * a - tj * b for a, b in zip(t, r)]
    g = math.gcd(*t, d_t * rj)
    return [a // g for a in t], d_t * rj // g


def _eliminate_integer(field: ValuedField, weights: Sequence[Magnitude],
                       rows: List[tuple], drop: bool = False) -> tuple[List[int], List[Magnitude]]:
    """Orthogonal elimination under the weighted sup norm
    max_j |row[j]| * weights[j], in place and in order, fraction-free over
    every field.  Each row is one (integers, d) pair, the rational row
    integers / d (``linalg._integer_row``), and stays one.

    Row i takes as pivot the coordinate j, not yet a pivot, where
    |r_i[j]| * w_j is largest (the first such j on ties; ``_weighted_max``,
    where the factor 1/|d_i| moves no pivot); every later row then loses
    the multiple of row i that clears its coordinate j (``_reduce``).
    A row that reduces to zero depends on the rows before it: it is an
    error, or with ``drop`` it leaves ``rows``, so the rows kept are the
    first independent ones in order.  Returns the pivots and the pivot
    values, which are the norms of the final rows."""
    pivots: List[int] = []
    norms: List[Magnitude] = []
    i = 0
    while i < len(rows):
        r, d = rows[i]
        j, norm = _weighted_max(field, weights, r, d, pivots)
        if j is None:
            if not drop:
                raise PreconditionError(f"flag vectors are linearly dependent at position {i}")
            del rows[i]
            continue
        pivots.append(j)
        norms.append(norm)
        for k in range(i + 1, len(rows)):
            rows[k] = _reduce(rows[k], r, j)
        i += 1
    return pivots, norms


def _integer_coordinates(space: NormedSpace, vectors: Sequence[Sequence]) -> List[tuple]:
    """The coordinates of each vector (``space.coordinates``) as one
    (integers, d) row."""
    return [linalg._integer_row(space.coordinates(v)) for v in vectors]


def orthogonalize_flag(space: NormedSpace, vectors: Sequence[Sequence]) -> tuple[
        List[list], List[Magnitude], List[int]]:
    """Orthogonalize vectors compatibly with the flag they generate.

    Given v_1, ..., v_t (linearly independent), returns vectors
    g_1, ..., g_t with span(g_1..g_i) = span(v_1..v_i) for each i, an
    orthogonal family for ``space``; also returns their norms and the
    pivot coordinate indices.  Raises PreconditionError on dependence.

    Each g_i differs from v_i by a combination of earlier v_j, so the
    flag is preserved; orthogonality holds because each g_i attains its
    norm on a pivot coordinate at which all later g_k vanish exactly and
    all earlier g_j (in any combination realizing the max) are dominated.
    The coordinate rows are made (integers, d) pairs once and stay so up to
    the basis product that gives the g_i.
    """
    work = _integer_coordinates(space, vectors)
    pivots, norms = _eliminate_integer(space.field, space.weights, work)
    return space._vectors(work), norms, pivots


def _complete_flag(space: NormedSpace, rows: Sequence[Sequence]) -> tuple[
        List[list], List[Magnitude]]:
    """The independent ``rows`` completed to a basis by standard vectors
    (``linalg.extend_basis``) and orthogonalized as a flag: the vectors of
    ``orthogonalize_flag`` and their norms, the completion after the rows."""
    std = linalg.identity(space.dim)
    flag = list(rows) + [std[j] for j in linalg.extend_basis(rows, std, space.dim)]
    g, norms, _ = orthogonalize_flag(space, flag)
    return g, norms


def distance_to_subspace(space: NormedSpace, x: Sequence,
                         subspace_vectors: Sequence[Sequence]) -> tuple[Magnitude, list]:
    """Exact distance from x to span(subspace_vectors) and a minimizer.

    Returns (dist, w) with w in the subspace and norm(x - w) = dist,
    which is the least value of norm(x - w') over the subspace.  The
    subspace vectors are orthogonalized as a flag; the residual of x
    after clearing every pivot coordinate is orthogonal to them, and dist
    is its norm.  The coordinates of x and of the flag are made (integers,
    d) rows once; the residual is cleared in integers (``_reduce``) and
    leaves through one ``_mat_vec_integer``.
    """
    if not subspace_vectors:
        return space.norm(x), [space.field.zero()] * space.dim
    residual, *work = _integer_coordinates(space, [x, *subspace_vectors])
    pivots, _ = _eliminate_integer(space.field, space.weights, work)
    for (r, _), j in zip(work, pivots):
        residual = _reduce(residual, r, j)
    dist = _weighted_max(space.field, space.weights, *residual)[1]
    g = space._vectors([residual])[0]
    return dist, [a - b for a, b in zip(linalg._constants(x), g)]


# ----------------------------------------------------------------------
# Quotients, duals, scalar extension
# ----------------------------------------------------------------------


def quotient_norm(space: NormedSpace, surjection: Sequence[Sequence]) -> tuple[
        "NormedSpace", List[list]]:
    """Quotient norm on the image of a surjective linear map.

    ``surjection`` is an s x r matrix (rows) of full row rank mapping
    the r-dimensional ``space`` onto the target.  Returns the quotient
    NormedSpace together with norm-attaining lifts of its basis columns.
    """
    s = len(surjection)
    r = space.dim
    for i, row in enumerate(surjection):
        if len(row) != r:
            raise PreconditionError(
                f"surjection row {i} has {len(row)} entries, the space has "
                f"dimension {r}")
    if linalg.rank(surjection) != s:
        raise PreconditionError("map is not surjective")
    ker = linalg.kernel_basis(surjection)
    d = len(ker)  # = r - s
    # the kernel, then s standard vectors completing it to a basis
    g, norms = _complete_flag(space, ker)
    lifts = g[d:]
    quot_basis = linalg.transpose([linalg.mat_vec(surjection, v) for v in lifts])
    quot = NormedSpace(space.field, quot_basis, norms[d:])
    return quot, lifts


def norm_attaining_lift(space: NormedSpace, surjection: Sequence[Sequence],
                        target_vector: Sequence,
                        quotient: Optional[NormedSpace] = None,
                        lifts: Optional[List[list]] = None) -> list:
    """A lift v of target_vector with norm(v) equal to the quotient norm."""
    if quotient is None or lifts is None:
        quotient, lifts = quotient_norm(space, surjection)
    out = [space.field.zero()] * space.dim
    for c, g in zip(quotient.coordinates(target_vector), lifts):
        if c:
            out = [a + c * b for a, b in zip(out, g)]
    return out


def dual_norm(space: NormedSpace) -> NormedSpace:
    """The operator norm on the dual space, in dual-basis coordinates.

    A functional is a row vector phi acting by phi . v; the dual of an
    orthogonal basis is orthogonal with reciprocal weights.
    """
    # the rows of basis^{-1}, the dual basis functionals, are its basis columns
    return NormedSpace(space.field, linalg.transpose(space.basis_inverse()),
                       list(space.dual_weights()))


def scalar_extension(space: NormedSpace, target: ValuedField) -> NormedSpace:
    """Extend a trivially-valued rational space to a Laurent field.

    The same basis stays orthogonal and keeps its weights, provided the
    target base prime was chosen so that no two norm values have a ratio
    whose prime support is exactly that prime (see choose_laurent_base).
    """
    if space.field.kind != "trivial":
        raise PreconditionError("scalar extension implemented from the trivial valuation")
    if target.kind != "laurent":
        raise PreconditionError("scalar extension target must be a Laurent field")
    # the same basis and integer forms over the new field and value group
    extended = copy.copy(space)
    extended.field = target
    extended.weights = [Magnitude(target.rho, w.q, 0) for w in space.weights]
    extended._integer = {key: space._integer_form(key) for key in ("basis", "inverse", "columns")}
    return extended


def lift_constant(matrix: Sequence[Sequence[Fraction]]) -> List[list]:
    """A rational matrix as a matrix of tagged constants of Q(T)."""
    return [[RationalFunction(x) for x in row] for row in matrix]


# ----------------------------------------------------------------------
# Lattices over the valuation ring of a p-adic field
# ----------------------------------------------------------------------


@dataclass
class Lattice:
    """Free module over Z_(p) (rationals with denominator prime to p)
    spanned by the columns of an invertible rational matrix, stored in a
    canonical form: each column is p^a times a column whose pivot entry
    is 1, in staircase shape with off-pivot entries reduced mod p^a."""

    field: ValuedField
    basis: List[list]  # rows; columns are the canonical generators

    def __post_init__(self):
        if self.field.kind != "padic":
            raise PreconditionError("lattices require a p-adic base field")

    @classmethod
    def from_columns(cls, field: ValuedField, cols: Sequence[Sequence[Fraction]]) -> "Lattice":
        if field.kind != "padic":  # checked before field.prime is read
            raise PreconditionError("lattices require a p-adic base field")
        for i, col in enumerate(cols):
            if len(col) != len(cols[0]):
                raise PreconditionError(
                    f"lattice column {i} has {len(col)} entries, column 0 has "
                    f"{len(cols[0])}")
        canon = canonical_lattice_columns(field.prime, [list(c) for c in cols])
        return cls(field, linalg.transpose(canon))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def columns(self) -> List[list]:
        return linalg.transpose(self.basis)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Lattice):
            return NotImplemented
        return self.field == other.field and self.basis == other.basis


def canonical_lattice_columns(p: int, cols: List[list]) -> List[list]:
    """Canonical basis of a full-rank Z_(p)-lattice given spanning columns.

    Hermite reduction over Z_(p), in integers.  Each column is scaled by
    a unit (the prime-to-p part of its denominators) and all by one p^S.
    Row by row, the unpivoted column of least valuation a (the first on
    ties), with entry u p^a, is the pivot P; every other column c becomes
    u c - (c[r] / p^a) P, a unit multiple of the Z_(p) elimination.  Each
    column is then divided by its u modulo p^D and reduced at every later
    pivot to [0, p^a); the error modulo p^D loses at most sum(a) powers
    of p on the way, so D = sum(a) + max(a) + 1 keeps each entry exact.
    """
    n = len(cols[0])
    work = [c for c in cols if any(x != 0 for x in c)]
    if len(work) != n:
        raise PreconditionError("lattice must be given by n independent columns")
    dens = [math.lcm(*(x.denominator for x in c)) for c in work]
    shifts = [_vp(d, p) for d in dens]
    S = max(shifts)
    work = [[x.numerator * (d // x.denominator) * p ** (S - e) for x in c]
            for c, d, e in zip(work, dens, shifts)]
    remaining = list(range(n))
    out = []  # (a, u, pivot column) per row
    for r in range(n):
        best = None  # (valuation, col_idx)
        for ci in remaining:
            x = work[ci][r]
            if x:
                v = _vp(x, p)
                if best is None or v < best[0]:
                    best = (v, ci)
        if best is None:
            raise PreconditionError("lattice columns are linearly dependent")
        a, ci = best
        remaining.remove(ci)
        pivot, pa = work[ci], p ** a
        u = pivot[r] // pa
        for cj in remaining:
            t = work[cj][r]
            if t:
                t //= pa
                work[cj] = [u * x - t * y for x, y in zip(work[cj], pivot)]
        out.append((a, u, pivot))
    # column j is zero above row j with u_j p^{a_j} on the diagonal
    vals = [a for a, _, _ in out]
    m = p ** (sum(vals) + max(vals) + 1)
    out = [[pow(u, -1, m) * x % m for x in col] for _, u, col in out]
    for j in range(n):
        col = out[j]
        for k in range(j + 1, n):
            c = col[k] // p ** vals[k]  # leaves col[k] mod p^{a_k}
            if c:
                col = col[:k] + [(y - c * z) % m
                                 for y, z in zip(col[k:], out[k][k:])]
        out[j] = col
    scale = p ** S
    return [[Fraction(x, scale) for x in col] for col in out]


def lattice_from_norm(space: NormedSpace) -> Lattice:
    """The unit ball {v : norm(v) <= 1} as a lattice (discrete case).

    With orthogonal basis e_i of weight w_i, the unit ball is the span
    of p^{m_i} e_i over Z_(p) where p^{-m_i} is the largest power of the
    uniformizer magnitude with p^{m_i} * w_i... concretely m_i is the
    least integer with |p^{m_i}| * w_i <= 1, i.e. p^{-m_i} <= 1/w_i.
    """
    field = space.field
    if field.kind != "padic":
        raise PreconditionError("unit-ball lattice requires a p-adic field")
    p = field.prime
    cols = []
    for i, w in enumerate(space.weights):
        # the smallest m with (1/p)^m * w <= 1 is k - n for w = q p^(-n),
        # where k is the smallest integer with p^k >= q = a / b, found by
        # comparing integers: p^k b >= a, and a p^(1-k) <= b below k = 1
        a, b = w.num, w.den
        k = 0
        while p ** k * b < a:
            k += 1
        while k < 1 and a * p ** (1 - k) <= b:
            k -= 1
        scale = Fraction(p) ** (k - w.n)
        cols.append([x * scale for x in space.column(i)])
    return Lattice.from_columns(field, cols)


def norm_from_lattice(lat: Lattice) -> NormedSpace:
    """The norm whose unit ball is the given lattice: its canonical
    basis is orthonormal."""
    weights = [lat.field.one_magnitude() for _ in range(lat.dim)]
    return NormedSpace(lat.field, [list(r) for r in lat.basis], weights)
