"""Homogeneous sections of O(n) on projective space, exactly.

A section is a homogeneous polynomial of degree n in m+1 variables with
coefficients in a valued field, stored sparsely as exponent-tuple ->
coefficient.  Subvarieties are finite rational point sets or linear
subspaces cut out by independent linear forms; restriction kernels are
computed by exact linear algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from math import comb
from operator import add, mul
from typing import Dict, List, Optional, Sequence, Tuple

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


@dataclass
class Section:
    """A degree-n homogeneous polynomial over the field, sparse.  Its
    coefficients are rationals: a tagged constant of Q(T) is read as its
    value when the section is built, and so is a point in ``evaluate``."""

    field: ValuedField
    num_vars: int
    degree: int
    coeffs: Dict[Exponent, FieldElement] = dc_field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for e, c in self.coeffs.items():
            e = tuple(int(x) for x in e)
            if len(e) != self.num_vars or sum(e) != self.degree or any(x < 0 for x in e):
                raise PreconditionError(f"bad exponent {e} for degree {self.degree}")
            c = _constant_value(c)
            if c:
                clean[e] = c
        self.coeffs = clean

    # -- constructors ---------------------------------------------------

    @classmethod
    def _trusted(cls, field: ValuedField, num_vars: int, degree: int,
                 coeffs: Dict[Exponent, FieldElement]) -> "Section":
        """A section whose exponents are valid and whose coefficients are
        rationals by construction (sums, products and multiples of
        sections); only zeros are dropped."""
        s = object.__new__(cls)
        s.field, s.num_vars, s.degree = field, num_vars, degree
        s.coeffs = {e: c for e, c in coeffs.items() if c}
        return s

    @classmethod
    def zero(cls, field: ValuedField, num_vars: int, degree: int) -> "Section":
        return cls(field, num_vars, degree, {})

    @classmethod
    def monomial(cls, field: ValuedField, exponent: Sequence[int], coeff=1) -> "Section":
        e = tuple(int(x) for x in exponent)
        return cls(field, len(e), sum(e), {e: field.element(coeff)})

    @classmethod
    def from_vector(cls, field: ValuedField, m: int, n: int,
                    vec: Sequence[FieldElement]) -> "Section":
        basis = monomial_basis(m, n)
        if len(vec) != len(basis):
            raise PreconditionError(f"vector has {len(vec)} entries, degree {n} on P^{m} "
                                    f"has {len(basis)} monomials")
        return cls._trusted(field, m + 1, n, dict(zip(basis, linalg._constants(vec))))

    def to_vector(self) -> List[FieldElement]:
        basis = monomial_basis(self.num_vars - 1, self.degree)
        zero = self.field.zero()
        return [self.coeffs.get(e, zero) for e in basis]

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    # -- algebra ----------------------------------------------------------

    def __add__(self, other: "Section") -> "Section":
        self._check(other, same_degree=True)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, self.field.zero()) + c
        return Section._trusted(self.field, self.num_vars, self.degree, out)

    def __sub__(self, other: "Section") -> "Section":
        self._check(other, same_degree=True)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, self.field.zero()) - c
        return Section._trusted(self.field, self.num_vars, self.degree, out)

    def scale(self, c) -> "Section":
        c = self.field.element(c)
        return Section._trusted(self.field, self.num_vars, self.degree,
                                {e: c * x for e, x in self.coeffs.items()})

    def __mul__(self, other: "Section") -> "Section":
        """Fraction-free over every field: each factor is an integer
        polynomial over the lcm of its denominators, and each product
        coefficient builds one Fraction."""
        self._check(other, same_degree=False)
        (a, da), (b, db) = _integer_coeffs(self.coeffs), _integer_coeffs(other.coeffs)
        out = {e: Fraction(v, da * db) for e, v in _polynomial_product(a, b).items()}
        return Section._trusted(self.field, self.num_vars,
                                self.degree + other.degree, out)

    def __pow__(self, d: int) -> "Section":
        if d < 0:
            raise PreconditionError("negative section power")
        out = Section.monomial(self.field, (0,) * self.num_vars, 1)
        base = self
        while d:
            if d & 1:
                out = out * base
            base = base * base
            d >>= 1
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
                and self.degree == other.degree and self.coeffs == other.coeffs)

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, point: Sequence[FieldElement]) -> FieldElement:
        if len(point) != self.num_vars:
            raise PreconditionError("point dimension mismatch")
        point = linalg._constants(point)
        total = self.field.zero()
        for e, c in self.coeffs.items():
            term = c
            for x, k in zip(point, e):
                for _ in range(k):
                    term = term * x
            total = total + term
        return total

    def __repr__(self) -> str:
        if self.is_zero:
            return "Section(0)"
        terms = []
        for e in sorted(self.coeffs, reverse=True):
            terms.append(f"{self.coeffs[e]}*x^{e}")
        return "Section(" + " + ".join(terms) + ")"


def _integer_coeffs(coeffs: Dict[Exponent, FieldElement]) -> tuple[dict, int]:
    """Rational coefficients as (integer polynomial, d) with coeffs =
    polynomial / d, d the lcm of the denominators."""
    ints, d = linalg._integer_row(list(coeffs.values()))
    return dict(zip(coeffs, ints)), d


def _polynomial_product(a: Dict[Exponent, int], b: Dict[Exponent, int]) -> dict:
    """The product of two integer polynomials stored as exponent tuple ->
    coefficient; sums may be zero."""
    out: Dict[Exponent, int] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            out[e] = out[e] + c1 * c2 if e in out else c1 * c2
    return out


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
