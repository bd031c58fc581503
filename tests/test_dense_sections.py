"""The dense ``Section`` (integers in monomial_basis order over one
denominator) against the sparse implementation it replaced
(``dict_sections.DictSection``): sums, differences, scalings, products,
powers and evaluation, over Q_3, Q_1000003, the trivial field and Q(T) with
tagged inputs, on P^0 to P^3 in degrees 0 to 6."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest

from ultranorm import LaurentRationals, PadicRationals, TrivialRationals, linalg
from ultranorm.fields import RationalFunction
from ultranorm.metrics import QuotientMetric
from ultranorm.sections import Section, monomial_basis
from ultranorm.spaces import NormedSpace, PreconditionError
from dict_sections import DictSection

F = Fraction
FIELDS = [PadicRationals(3), PadicRationals(1000003), TrivialRationals(), LaurentRationals(5)]
IDS = ["Q3", "Q1000003", "trivial", "laurent5"]
MAX_DEGREE = 6


def random_coeffs(rng, field, nv, degree, density):
    """A sparse coefficient dict, small or wide rationals; tags over Q(T)."""
    coeffs = {}
    for e in monomial_basis(nv - 1, degree):
        if rng.random() < density:
            den = rng.choice([1, 2, 3, 9, 10 ** 6 + 3, 2 ** 65])
            c = F(rng.randint(-9, 9), den)
            coeffs[e] = RationalFunction(c) if field.kind == "laurent" else c
    return coeffs


def pair(rng, field, nv, degree, density=None):
    """The same random form as a dense Section and as a DictSection."""
    density = rng.choice([0.0, 0.3, 1.0]) if density is None else density
    coeffs = random_coeffs(rng, field, nv, degree, density)
    return Section(field, nv, degree, coeffs), DictSection(field, nv, degree, coeffs)


def assert_same(got: Section, want: DictSection):
    assert (got.num_vars, got.degree) == (want.num_vars, want.degree)
    assert dict(got.coeffs) == want.coeffs
    assert all(type(c) is F and c for c in got.coeffs.values())
    exps = monomial_basis(want.num_vars - 1, want.degree)
    assert got.to_vector() == [want.coeffs.get(e, F(0)) for e in exps]
    # canonical: one positive denominator coprime to the integers
    assert len(got.ints) == len(exps) and got.den > 0 and gcd(got.den, *got.ints) == 1
    assert got.is_zero == (not want.coeffs)


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
@pytest.mark.parametrize("nv", [1, 2, 3, 4], ids=["P0", "P1", "P2", "P3"])
class TestAgainstDictSections:
    def test_construction_and_vectors(self, field, nv):
        rng = random.Random(f"dense/build/{field.kind}{field.prime}/{nv}")
        for degree in range(MAX_DEGREE + 1):
            for _ in range(4):
                s, want = pair(rng, field, nv, degree)
                assert_same(s, want)
                assert Section.from_vector(field, nv - 1, degree, s.to_vector()) == s
                tags = [RationalFunction(c) for c in s.to_vector()]
                if field.kind == "laurent":
                    assert Section.from_vector(field, nv - 1, degree, tags) == s
        assert Section.zero(field, nv, 3).ints == [0] * len(monomial_basis(nv - 1, 3))
        assert Section.zero(field, nv, 3).den == 1

    def test_sums_differences_and_scalings(self, field, nv):
        rng = random.Random(f"dense/add/{field.kind}{field.prime}/{nv}")
        for degree in range(MAX_DEGREE + 1):
            for _ in range(4):
                (s, ds), (t, dt) = pair(rng, field, nv, degree), pair(rng, field, nv, degree)
                assert_same(s + t, ds + dt)
                assert_same(s - t, ds - dt)
                assert_same(s - s, ds - ds)
                for c in (0, 1, F(-2, 3), F(7, 2 ** 65)):
                    c = RationalFunction(c) if field.kind == "laurent" else c
                    assert_same(s.scale(c), ds.scale(c))

    def test_products(self, field, nv):
        # linear factors take _times_form; the others (degree 0 included) the pair loop
        rng = random.Random(f"dense/mul/{field.kind}{field.prime}/{nv}")
        for a in range(MAX_DEGREE + 1):
            for b in range(MAX_DEGREE + 1 - a):
                for _ in range(2):
                    (s, ds), (t, dt) = pair(rng, field, nv, a), pair(rng, field, nv, b)
                    assert_same(s * t, ds * dt)
                    assert_same(t * s, ds * dt)

    def test_powers(self, field, nv):
        rng = random.Random(f"dense/pow/{field.kind}{field.prime}/{nv}")
        for degree in range(4):
            for _ in range(3):
                s, ds = pair(rng, field, nv, degree, density=rng.choice([0.0, 0.5, 1.0]))
                for d in range(MAX_DEGREE // max(degree, 1) + 1):
                    assert_same(s ** d, ds ** d)
        with pytest.raises(PreconditionError):
            Section.monomial(field, (1,) + (0,) * (nv - 1)) ** -1

    def test_evaluation(self, field, nv):
        rng = random.Random(f"dense/eval/{field.kind}{field.prime}/{nv}")
        for degree in range(MAX_DEGREE + 1):
            for _ in range(3):
                s, ds = pair(rng, field, nv, degree)
                pt = [F(rng.randint(-5, 5), rng.choice([1, 2, 7, 2 ** 65])) for _ in range(nv)]
                got = s.evaluate(pt)
                assert type(got) is F and got == ds.evaluate(pt)
                if field.kind == "laurent":
                    assert s.evaluate([RationalFunction(x) for x in pt]) == got
                assert s.evaluate([0] * nv) == ds.evaluate([0] * nv)


def test_bad_exponents_and_lengths_are_refused():
    Q3 = PadicRationals(3)
    for e in [(1, 1, 0), (2,), (3, -1), (1, 0)]:
        with pytest.raises(PreconditionError):
            Section(Q3, 2, 2, {e: F(1)})
    with pytest.raises(PreconditionError):
        Section.from_vector(Q3, 1, 2, [F(1), F(2)])
    with pytest.raises(PreconditionError):
        Section.monomial(Q3, (1, 0)) * Section.monomial(Q3, (1, 0, 0))
    with pytest.raises(PreconditionError):
        Section.monomial(Q3, (1, 0)) + Section.monomial(Q3, (2, 0))


def test_coeffs_is_read_only():
    s = Section.monomial(PadicRationals(3), (1, 0), F(2, 3))
    with pytest.raises(TypeError):
        s.coeffs[(0, 1)] = F(1)
    assert dict(s.coeffs) == {(1, 0): F(2, 3)}


def old_linear_forms(field, rows):
    """The degree-1 sections sum_i row[i] x_i the metric used to keep."""
    nv = len(rows)
    return [Section(field, nv, 1, {tuple(int(k == i) for k in range(nv)): row[i]
                                   for i in range(nv)}) for row in rows]


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_metric_factors_are_the_old_section_vectors(field):
    """The metric's Sym factors come from the base's integer forms; they are
    ``_integer_row`` of the frame and substitution sections it used to build
    from the Fraction basis and inverse, and so are its public forms."""
    rng = random.Random(f"dense/factors/{field.kind}{field.prime}")
    for nv in (1, 2, 3, 4):
        for _ in range(4):
            while True:
                basis = [[F(rng.randint(-4, 4), rng.choice([1, 2, 3, 2 ** 65])) for _ in range(nv)]
                         for _ in range(nv)]
                if linalg.rank(basis) == nv:
                    break
            weights = [field.one_magnitude()] * nv
            h = QuotientMetric(NormedSpace(field, basis, weights))
            frame = old_linear_forms(field, linalg.transpose(basis))
            subst = old_linear_forms(field, linalg.transpose(linalg.invert(basis)))
            for sym, forms in zip(h._sym, (frame, subst)):
                assert [(F_, d) for F_, d, _ in sym._factors] == [
                    linalg._integer_row(f.to_vector()) for f in forms]
            assert h.frame_forms() == frame and h.substitution() == subst
