"""Homogeneous sections of O(n) on projective space, exactly.

A section is a homogeneous polynomial of degree n in m+1 variables with
rational coefficients, stored densely as one integer per monomial (in
``monomial_basis`` order) over one denominator; a product by a linear form
is one ``_times_form`` step on that list.  Subvarieties are finite rational
point sets or linear subspaces cut out by independent linear forms;
restriction kernels are computed by exact linear algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm
from operator import add, mul, sub
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from . import linalg
from .fields import FieldElement, ValuedField, _constant_value
from .spaces import PreconditionError, _weighted_max

Exponent = Tuple[int, ...]


def monomial_basis(m: int, n: int) -> List[Exponent]:
    """All degree-n exponent tuples in m+1 variables, graded-lex order
    (first variable's exponent decreasing first)."""
    if m < 0 or n < 0:
        raise PreconditionError("need m >= 0, n >= 0")
    out: List[Exponent] = []

    def rec(prefix: list, remaining_vars: int, remaining_deg: int):
        if remaining_vars == 1:
            out.append(tuple(prefix + [remaining_deg]))
            return
        for e in range(remaining_deg, -1, -1):
            rec(prefix + [e], remaining_vars - 1, remaining_deg - e)

    rec([], m + 1, n)
    return out


class Section:
    """A degree-n homogeneous polynomial over the field, dense: ``ints``, one
    integer per monomial in monomial_basis order, over one denominator
    ``den`` > 0 coprime to them (FLINT's fmpq_poly layout), so coefficient k
    is the rational ints[k] / den.  A tagged constant of Q(T) is read as its
    value when the section is built, and so is a point in ``evaluate``."""

    __slots__ = ("field", "num_vars", "degree", "ints", "den")

    def __init__(self, field: ValuedField, num_vars: int, degree: int,
                 coeffs: Optional[Dict[Exponent, FieldElement]] = None):
        index = {e: i for i, e in enumerate(monomial_basis(num_vars - 1, degree))}
        vec = [Fraction(0)] * len(index)
        for e, c in (coeffs or {}).items():
            e = tuple(int(x) for x in e)
            if e not in index:
                raise PreconditionError(f"bad exponent {e} for degree {degree}")
            vec[index[e]] = _constant_value(c)
        self.field, self.num_vars, self.degree = field, num_vars, degree
        self.ints, self.den = linalg._integer_row(vec)

    # -- constructors ---------------------------------------------------

    @classmethod
    def _dense(cls, field: ValuedField, num_vars: int, degree: int,
               ints: list, den: int) -> "Section":
        """The section ints / den (den > 0, ints in monomial_basis order),
        trusted; reduced by gcd(den, ints), so a zero section has den 1."""
        s = object.__new__(cls)
        s.field, s.num_vars, s.degree = field, num_vars, degree
        g = gcd(den, *ints)
        s.ints, s.den = ([v // g for v in ints], den // g) if g > 1 else (ints, den)
        return s

    @classmethod
    def zero(cls, field: ValuedField, num_vars: int, degree: int) -> "Section":
        return cls(field, num_vars, degree)

    @classmethod
    def monomial(cls, field: ValuedField, exponent: Sequence[int], coeff=1) -> "Section":
        e = tuple(int(x) for x in exponent)
        return cls(field, len(e), sum(e), {e: field.element(coeff)})

    @classmethod
    def from_vector(cls, field: ValuedField, m: int, n: int,
                    vec: Sequence[FieldElement]) -> "Section":
        if len(vec) != comb(m + n, m):
            raise PreconditionError(f"vector has {len(vec)} entries, degree {n} on P^{m} "
                                    f"has {comb(m + n, m)} monomials")
        return cls._dense(field, m + 1, n, *linalg._integer_row(linalg._constants(vec)))

    def to_vector(self) -> List[Fraction]:
        return [Fraction(v, self.den) for v in self.ints]

    @property
    def coeffs(self) -> Mapping[Exponent, Fraction]:
        """Read-only: exponent tuple -> nonzero coefficient."""
        exps = monomial_basis(self.num_vars - 1, self.degree)
        return MappingProxyType({e: Fraction(v, self.den) for e, v in zip(exps, self.ints) if v})

    @property
    def is_zero(self) -> bool:
        return not any(self.ints)

    # -- algebra ----------------------------------------------------------

    def __add__(self, other: "Section") -> "Section":
        return self._combine(other, add)

    def __sub__(self, other: "Section") -> "Section":
        return self._combine(other, sub)

    def _combine(self, other: "Section", op) -> "Section":
        """self op other over lcm of the denominators."""
        self._check(other, same_degree=True)
        L = lcm(self.den, other.den)
        a, b = L // self.den, L // other.den
        return Section._dense(self.field, self.num_vars, self.degree,
                              [op(a * x, b * y) for x, y in zip(self.ints, other.ints)], L)

    def scale(self, c) -> "Section":
        c = self.field.element(c)
        return Section._dense(self.field, self.num_vars, self.degree,
                              [c.numerator * v for v in self.ints], c.denominator * self.den)

    def __mul__(self, other: "Section") -> "Section":
        """One dense integer product over the product of the denominators:
        ``_times_form`` when a factor is linear, else one index per pair of
        nonzero monomials."""
        self._check(other, same_degree=False)
        if other.degree == 1:
            ints = _times_form(self.ints, other.ints, self.degree)
        elif self.degree == 1:
            ints = _times_form(other.ints, self.ints, other.degree)
        else:
            m = self.num_vars - 1
            index = {e: i for i, e in enumerate(monomial_basis(m, self.degree + other.degree))}
            ints = [0] * len(index)
            right = [(e, c) for e, c in zip(monomial_basis(m, other.degree), other.ints) if c]
            for e1, c1 in zip(monomial_basis(m, self.degree), self.ints):
                for e2, c2 in right if c1 else ():
                    ints[index[tuple(map(add, e1, e2))]] += c1 * c2
        return Section._dense(self.field, self.num_vars, self.degree + other.degree,
                              ints, self.den * other.den)

    def __pow__(self, d: int) -> "Section":
        """d - 1 products by self: a linear section's power is d - 1
        ``_times_form`` steps."""
        if d < 0:
            raise PreconditionError("negative section power")
        out = self if d else Section.monomial(self.field, (0,) * self.num_vars)
        for _ in range(d - 1):
            out = out * self
        return out

    def _check(self, other: "Section", same_degree: bool):
        if self.field != other.field or self.num_vars != other.num_vars:
            raise PreconditionError("sections live in different rings")
        if same_degree and self.degree != other.degree:
            raise PreconditionError("degree mismatch")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Section):
            return NotImplemented
        return (self.field == other.field and self.num_vars == other.num_vars
                and self.degree == other.degree and self.den == other.den
                and self.ints == other.ints)

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, point: Sequence[FieldElement]) -> Fraction:
        """One integer dot product with ``integer_evaluation_row``."""
        if len(point) != self.num_vars:
            raise PreconditionError("point dimension mismatch")
        row, d = integer_evaluation_row(self.degree, point)
        return Fraction(sum(map(mul, self.ints, row)), self.den * d)

    def __repr__(self) -> str:
        terms = " + ".join(f"{c}*x^{e}" for e, c in sorted(self.coeffs.items(), reverse=True))
        return f"Section({terms or 0})"


# ----------------------------------------------------------------------
# Subvarieties: rational point sets and linear subspaces
# ----------------------------------------------------------------------


def normalize_point(field: ValuedField, coords: Sequence) -> List[FieldElement]:
    """Scale homogeneous coordinates so the first coordinate of maximal
    magnitude becomes exactly 1 (the canonical representative used in
    all metric formulas).  The pivot is the weighted max under unit weights
    (``spaces._weighted_max``) of the coordinates, rationals or constants of
    Q(T), as integers over a common denominator; the result is Fractions."""
    pt = linalg._integer_row(linalg._constants(coords))[0]
    j = _weighted_max(field, [field.one_magnitude()] * len(pt), pt, 1)[0]
    if j is None:
        raise PreconditionError("zero vector is not a projective point")
    return [Fraction(x, pt[j]) for x in pt]


@dataclass
class Subvariety:
    """Either a finite set of rational points or a linear subspace.

    Exactly one of ``points`` (normalized homogeneous coordinates) and
    ``linear_forms`` (independent degree-1 sections, as coefficient
    vectors over the coordinates) is set.
    """

    field: ValuedField
    num_vars: int
    points: Optional[List[List[FieldElement]]] = None
    linear_forms: Optional[List[List[FieldElement]]] = None

    def __post_init__(self):
        if (self.points is None) == (self.linear_forms is None):
            raise PreconditionError("exactly one of points/linear_forms required")
        if self.points is not None:
            for i, p in enumerate(self.points):
                if len(p) != self.num_vars:
                    raise PreconditionError(
                        f"point {i} has {len(p)} coordinates, need {self.num_vars}")
            norm_pts = [normalize_point(self.field, p) for p in self.points]
            for i in range(len(norm_pts)):
                for j in range(i + 1, len(norm_pts)):
                    if norm_pts[i] == norm_pts[j]:
                        raise PreconditionError("points must be pairwise distinct")
            self.points = norm_pts
        else:
            forms = [[self.field.element(c) for c in f] for f in self.linear_forms]
            if any(len(f) != self.num_vars for f in forms):
                raise PreconditionError("linear form length mismatch")
            if linalg.rank(forms) != len(forms):
                raise PreconditionError("linear forms must be independent")
            self.linear_forms = forms

    @property
    def kind(self) -> str:
        return "points" if self.points is not None else "linear"


def integer_evaluation_row(n: int, point: Sequence) -> tuple[list, int]:
    """The degree-n monomials at a point x = a / D of rationals or constants
    of Q(T) (D the lcm of its denominators) as (a^e for each e in
    monomial_basis, D^n), stepped up from degree 0 (``step_row``)."""
    a, den = linalg._integer_row(linalg._constants(point))
    row = [1]
    for k in range(n):
        row = step_row(row, a, k)
    return row, den ** n


def step_row(row: list, a: Sequence, n: int, times=mul) -> list:
    """The degree-(n+1) monomials at the integer point a from the degree-n ones
    (monomial_basis order): block j is a_j times the last C(n+m-j, m-j), the
    monomials free of x_0..x_{j-1}; one ``times`` per monomial, no index map."""
    m = len(a) - 1
    return [times(x, v) for j, x in enumerate(a) for v in row[-comb(n + m - j, m - j):]]


def _times_form(P: list, F: Sequence[int], n: int) -> list:
    """The dense integer polynomial P of degree n (monomial_basis order, in
    len(F) variables) times the linear form sum_j F_j x_j, dense in degree
    n + 1.  As in ``step_row``, x_0 keeps the order, and x_1..x_m act inside
    each x_0 block: the block of degree k in x_1..x_m goes to block k + 1."""
    f, rest = F[0], F[1:]
    k = len(rest)
    if k == 0:
        return [f * P[0]]
    if k == 1:  # each block is one monomial, and x_1 moves it one place on
        return [f * a + rest[0] * b for a, b in zip(P + [0], [0] + P)]
    out = [f * v for v in P] + [0] * comb(n + k, k - 1)
    if any(rest):
        start = 0
        for deg in range(n + 1):
            end = start + comb(deg + k - 1, k - 1)
            block = _times_form(P[start:end], rest, deg)
            out[end:end + len(block)] = map(add, out[end:end + len(block)], block)
            start = end
    return out


def restriction_kernel(Y: Subvariety, n: int) -> List[List[FieldElement]]:
    """Basis (coefficient vectors over monomial_basis) of the degree-n
    sections vanishing on Y, as Fractions over every field."""
    if n < 0:
        raise PreconditionError("degree must be non-negative")
    m = Y.num_vars - 1
    if Y.kind == "points":
        # the monomials at x = a / D times D^n: each row keeps its reduced
        # echelon form, so the kernel is the same
        return linalg.kernel_basis([integer_evaluation_row(n, pt)[0] for pt in Y.points])
    # degree-n piece of the ideal: span of (form * degree-(n-1) monomials)
    if n == 0:
        return []
    basis_n = monomial_basis(m, n)
    index = {e: i for i, e in enumerate(basis_n)}
    vectors = []
    for form in Y.linear_forms:
        for e in monomial_basis(m, n - 1):
            vec = [Fraction(0)] * len(basis_n)
            for var, c in enumerate(form):
                if not c:
                    continue
                e2 = list(e)
                e2[var] += 1
                vec[index[tuple(e2)]] = vec[index[tuple(e2)]] + c
            vectors.append(vec)
    if len(Y.linear_forms) == 1:  # a nonzero form times distinct monomials: independent
        return vectors
    # column-reduce to an independent basis (deterministic selection)
    return [vectors[i] for i in linalg.extend_basis([], vectors, len(basis_n))]
