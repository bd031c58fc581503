"""The sparse implementation of sections, kept as the tests' oracle for the
dense ``ultranorm.sections.Section``.

A ``DictSection`` holds a degree-n form as exponent tuple -> Fraction, with
no zero kept.  Its arithmetic is the one ``Section`` had before it became an
integer list over one denominator: sums and scalings coefficient by
coefficient, products through ``polynomial_product`` on the integer
polynomials over the lcm of the denominators, powers by repeated squaring,
and evaluation as a Fraction power loop per monomial.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Dict, Tuple

from ultranorm import linalg
from ultranorm.fields import _constant_value
from ultranorm.sections import Section
from ultranorm.spaces import PreconditionError

Exponent = Tuple[int, ...]


def polynomial_product(a: Dict[Exponent, int], b: Dict[Exponent, int]) -> dict:
    """The product of two polynomials stored as exponent tuple -> coefficient;
    sums may be zero."""
    out: Dict[Exponent, int] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            out[e] = out[e] + c1 * c2 if e in out else c1 * c2
    return out


class DictSection:
    def __init__(self, field, num_vars: int, degree: int, coeffs: dict):
        self.field, self.num_vars, self.degree = field, num_vars, degree
        self.coeffs = {}
        for e, c in coeffs.items():
            e = tuple(int(x) for x in e)
            if len(e) != num_vars or sum(e) != degree or any(x < 0 for x in e):
                raise PreconditionError(f"bad exponent {e} for degree {degree}")
            c = _constant_value(c)
            if c:
                self.coeffs[e] = c

    @classmethod
    def of(cls, s: Section) -> "DictSection":
        return cls(s.field, s.num_vars, s.degree, dict(s.coeffs))

    def section(self) -> Section:
        """The dense section with these coefficients."""
        return Section(self.field, self.num_vars, self.degree, self.coeffs)

    def __add__(self, other: "DictSection") -> "DictSection":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, Fraction(0)) + c
        return DictSection(self.field, self.num_vars, self.degree, out)

    def __sub__(self, other: "DictSection") -> "DictSection":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, Fraction(0)) - c
        return DictSection(self.field, self.num_vars, self.degree, out)

    def scale(self, c) -> "DictSection":
        c = self.field.element(c)
        return DictSection(self.field, self.num_vars, self.degree,
                           {e: c * x for e, x in self.coeffs.items()})

    def __mul__(self, other: "DictSection") -> "DictSection":
        """Each factor as an integer polynomial over the lcm of its
        denominators, one Fraction per product coefficient."""
        (a, da), (b, db) = _integer_coeffs(self.coeffs), _integer_coeffs(other.coeffs)
        return DictSection(self.field, self.num_vars, self.degree + other.degree,
                           {e: Fraction(v, da * db)
                            for e, v in polynomial_product(a, b).items()})

    def __pow__(self, d: int) -> "DictSection":
        out = DictSection(self.field, self.num_vars, 0, {(0,) * self.num_vars: 1})
        base = self
        while d:
            if d & 1:
                out = out * base
            base = base * base
            d >>= 1
        return out

    def evaluate(self, point) -> Fraction:
        point = linalg._constants(point)
        total = Fraction(0)
        for e, c in self.coeffs.items():
            term = c
            for x, k in zip(point, e):
                for _ in range(k):
                    term = term * x
            total = total + term
        return total


def _integer_coeffs(coeffs: dict) -> tuple[dict, int]:
    """Rational coefficients as (integer polynomial, d) with coeffs =
    polynomial / d, d the lcm of the denominators."""
    ints, d = linalg._integer_row(list(coeffs.values()))
    return dict(zip(coeffs, ints)), d
