"""Homogeneous sections, monomial bases, subvarieties, restriction kernels."""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

import pytest

from ultranorm import LaurentRationals, PadicRationals, TrivialRationals, linalg
from ultranorm.fields import RationalFunction, _is_zero
from ultranorm.sections import (Section, Subvariety, integer_evaluation_row,
                                monomial_basis, normalize_point, restriction_kernel,
                                step_row)
from ultranorm.spaces import PreconditionError
from dict_sections import polynomial_product

F = Fraction


def evaluation_row(n, point):
    """The degree-n monomials of monomial_basis(len(point) - 1, n) at point
    from ``integer_evaluation_row``: one Fraction per monomial, also at a
    point of constants of Q(T)."""
    ints, d = integer_evaluation_row(n, point)
    return [Fraction(v, d) for v in ints]


def _evaluation_row_products(field, m, n, point):
    """``evaluation_row`` by repeated field products: the oracle."""
    return [Section.monomial(field, e).evaluate(point) for e in monomial_basis(m, n)]


class TestMonomialBasis:
    def test_dimensions(self):
        # dim of degree-n forms in m+1 variables is C(m+n, n)
        assert len(monomial_basis(1, 3)) == 4
        assert len(monomial_basis(2, 2)) == 6
        assert len(monomial_basis(2, 0)) == 1

    def test_graded_lex_order_p1(self):
        assert monomial_basis(1, 2) == [(2, 0), (1, 1), (0, 2)]

    def test_all_exponents_sum_to_degree(self):
        for m, n in ((1, 4), (2, 3), (3, 2)):
            basis = monomial_basis(m, n)
            assert len(set(basis)) == len(basis)
            assert all(sum(e) == n and len(e) == m + 1 for e in basis)


class TestSection:
    def test_evaluate(self):
        Q2 = PadicRationals(2)
        xy = Section.monomial(Q2, (1, 1))
        assert xy.evaluate([F(1), F(2)]) == F(2)

    def test_product_expansion(self):
        Q2 = PadicRationals(2)
        x = Section.monomial(Q2, (1, 0))
        y = Section.monomial(Q2, (0, 1))
        sq = (x + y) * (x + y)
        assert sq.coeffs[(2, 0)] == F(1)
        assert sq.coeffs[(1, 1)] == F(2)
        assert sq.coeffs[(0, 2)] == F(1)

    def test_power(self):
        Q3 = PadicRationals(3)
        x = Section.monomial(Q3, (1, 0))
        y = Section.monomial(Q3, (0, 1))
        assert (x + y) ** 2 == (x + y) * (x + y)

    def test_vector_round_trip(self):
        Q2 = PadicRationals(2)
        basis = monomial_basis(1, 2)
        vec = [F(1), F(-3), F(1, 2)]
        s = Section.from_vector(Q2, 1, 2, vec)
        assert s.to_vector() == vec


def _random_section(rng, field, nv, degree):
    """Sparse, with small coefficients so that sums and products cancel."""
    coeffs = {}
    for e in monomial_basis(nv - 1, degree):
        if rng.random() < 0.6:
            coeffs[e] = field.element(F(rng.randint(-2, 2), rng.randint(1, 2)))
    return Section(field, nv, degree, coeffs)


class TestSectionAlgebraOracle:
    """``+``, ``-``, ``*`` and ``scale`` skip the exponent checks; the
    validating constructor, fed the coefficient sums directly, is the
    oracle, and no zero coefficient is kept."""

    @pytest.mark.parametrize("field", [PadicRationals(2), TrivialRationals(),
                                       LaurentRationals(3)])
    def test_matches_validating_constructor(self, field):
        rng = random.Random(field.kind)
        zero = field.zero()
        for _ in range(60):
            nv, d1, d2 = rng.randint(1, 3), rng.randint(0, 3), rng.randint(0, 3)
            s = _random_section(rng, field, nv, d1)
            t = _random_section(rng, field, nv, d1)
            u = _random_section(rng, field, nv, d2)
            c = field.element(F(rng.randint(-2, 2), rng.randint(1, 3)))
            keys = set(s.coeffs) | set(t.coeffs)
            cases = [
                (s + t, Section(field, nv, d1, {e: s.coeffs.get(e, zero)
                                                + t.coeffs.get(e, zero)
                                                for e in keys})),
                (s - t, Section(field, nv, d1, {e: s.coeffs.get(e, zero)
                                                - t.coeffs.get(e, zero)
                                                for e in keys})),
                (s.scale(c), Section(field, nv, d1, {e: c * x for e, x
                                                     in s.coeffs.items()})),
            ]
            prod = {}
            for e1, x in s.coeffs.items():
                for e2, y in u.coeffs.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    prod[e] = prod.get(e, zero) + x * y
            cases.append((s * u, Section(field, nv, d1 + d2, prod)))
            for got, want in cases:
                assert got == want
                assert (got.num_vars, got.degree) == (want.num_vars, want.degree)
                assert not any(_is_zero(x) for x in got.coeffs.values())
            assert (s - s).coeffs == {}
            assert s.scale(0).coeffs == {}

    def test_public_constructor_still_checks_exponents(self):
        Q2 = PadicRationals(2)
        for e in [(1, 1, 0), (2,), (3, -1)]:
            with pytest.raises(PreconditionError):
                Section(Q2, 2, 2, {e: F(1)})


BIG = 2 ** 64


def _wide_rational(rng):
    """Zero a third of the time; otherwise a denominator up to above 2^64."""
    if rng.random() < 0.3:
        return F(0)
    return F(rng.randint(-9, 9) or 1, rng.choice([1, 2, 3, 12, BIG + rng.randint(1, 99)]))


def _wide_section(rng, nv, degree):
    coeffs = {e: _wide_rational(rng) for e in monomial_basis(nv - 1, degree)}
    return Section(PadicRationals(3), nv, degree, coeffs)


def _lift(s, field):
    """A rational section with its coefficients tagged as constants of Q(T)."""
    return Section(field, s.num_vars, s.degree,
                   {e: RationalFunction(c) for e, c in s.coeffs.items()})


class TestFractionFreeKernels:
    """The integer product, power and evaluation row against the
    field-operation loops they replaced: the product loop run on the
    field coefficients, and the repeated-product row."""

    @pytest.mark.parametrize("field", [PadicRationals(3), TrivialRationals()],
                             ids=lambda K: K.kind)
    def test_product_and_power_equal_fraction_loop(self, field):
        rng = random.Random(f"product/{field.kind}")
        for _ in range(40):
            nv, d1, d2 = rng.randint(1, 3), rng.randint(0, 3), rng.randint(0, 2)
            s = Section(field, nv, d1, _wide_section(rng, nv, d1).coeffs)
            t = Section(field, nv, d2, _wide_section(rng, nv, d2).coeffs)
            want = Section(field, nv, d1 + d2, polynomial_product(s.coeffs, t.coeffs))
            assert s * t == want
            assert all(isinstance(c, F) and c for c in (s * t).coeffs.values())
            k = rng.randint(0, 4)
            power = Section.monomial(field, (0,) * nv)
            for _ in range(k):
                power = Section(field, nv, power.degree + d2,
                                polynomial_product(power.coeffs, t.coeffs))
            assert t ** k == power
        zero = Section.zero(field, 2, 1)
        assert (zero * Section.monomial(field, (1, 0))).is_zero
        assert (zero ** 3).is_zero and (zero ** 0) == Section.monomial(field, (0, 0))

    def test_laurent_product_takes_the_integer_kernel(self):
        K = LaurentRationals(5)
        rng = random.Random("product/laurent")
        for _ in range(20):
            nv, d1, d2 = rng.randint(1, 3), rng.randint(0, 2), rng.randint(0, 2)
            s, t = _wide_section(rng, nv, d1), _wide_section(rng, nv, d2)
            got = _lift(s, K) * _lift(t, K)
            assert all(type(c) is F for c in got.coeffs.values())
            assert got == _lift(s * t, K)
            assert _lift(t, K) ** 3 == _lift(t ** 3, K)
        # constants of Q(T) take the integer kernel; the field loop is the oracle
        x = Section(K, 2, 1, {(1, 0): RationalFunction(F(-7, 3)),
                              (0, 1): RationalFunction(F(1, BIG + 1))})
        assert x * x == Section(K, 2, 2, polynomial_product(x.coeffs, x.coeffs))

    def test_tagged_coefficients_and_points_are_read_as_rationals(self):
        """A section built from tagged constants of Q(T) equals its rational
        version and holds Fractions; so does ``evaluate`` at a tagged point,
        and a vector of tags through ``from_vector``."""
        K = LaurentRationals(5)
        rng = random.Random("sections/tags")
        for _ in range(20):
            nv, d = rng.randint(1, 3), rng.randint(0, 3)
            s = Section(K, nv, d, _wide_section(rng, nv, d).coeffs)
            tagged = _lift(s, K)
            assert tagged == s and all(type(c) is F for c in tagged.coeffs.values())
            vec = s.to_vector()
            from_tags = Section.from_vector(K, nv - 1, d, [RationalFunction(c) for c in vec])
            assert from_tags == s and all(type(c) is F for c in from_tags.coeffs.values())
            pt = [_wide_rational(rng) for _ in range(nv)]
            for section in (tagged, from_tags):
                got = section.evaluate([RationalFunction(x) for x in pt])
                assert type(got) is F and got == s.evaluate(pt)
            assert (tagged + s) - s == s and tagged.scale(RationalFunction(F(2, 3))) == s.scale(F(2, 3))

    @pytest.mark.parametrize("field", [PadicRationals(3), TrivialRationals()],
                             ids=lambda K: K.kind)
    def test_evaluation_row_equals_repeated_products(self, field):
        rng = random.Random(f"row/{field.kind}")
        for m in range(4):
            for n in range(5):
                for _ in range(6):
                    pt = [_wide_rational(rng) for _ in range(m + 1)]
                    if not any(pt):
                        continue
                    for point in (pt, normalize_point(field, pt)):
                        row = evaluation_row(n, point)
                        assert row == _evaluation_row_products(field, m, n, point)
                        assert len(row) == len(monomial_basis(m, n))
                        assert all(isinstance(x, F) for x in row)

    def test_integer_row_is_over_the_common_denominator_power(self):
        odd = BIG + 1
        nums, den = integer_evaluation_row(3, [F(1, 2), F(0), F(5, odd)])
        assert den == (2 * odd) ** 3
        # x0^3, x0^2 x1 and x2^3 with x0 = odd / (2 odd), x2 = 10 / (2 odd)
        assert (nums[0], nums[1], nums[-1]) == (odd ** 3, 0, 1000)

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_step_row_equals_repeated_products(self, m):
        # one step per degree from degree 0, against the field products; the
        # points have zero, negative and common-denominator coordinates
        field = PadicRationals(3)
        rng = random.Random(f"step-row/{m}")
        points = [[F(-1)] + [F(0)] * m, [F(2, 3)] * (m + 1),
                  [F(rng.randint(-9, 9), rng.choice([1, 6])) for _ in range(m + 1)]]
        for _ in range(4):
            points.append([F(rng.randint(-9, 9)) * F(rng.choice([0, 1, -1]), 6)
                           for _ in range(m + 1)])
        for point in points:
            a, d = linalg._integer_row(point)
            row = [1]
            for n in range(9):
                assert [F(v, d ** n) for v in row] == _evaluation_row_products(
                    field, m, n, point)
                assert integer_evaluation_row(n, point) == (row, d ** n)
                row = step_row(row, a, n)

    def test_laurent_row_refuses_t(self):
        # a point holding T cannot be built; a point of constants of Q(T)
        # gets its row as Fractions, also through the restriction kernel
        K = LaurentRationals(5)
        with pytest.raises(TypeError, match="exact rational"):
            RationalFunction((F(0), F(1)))
        with pytest.raises(ValueError, match="^the laurent field has no uniformizer element$"):
            K.uniformizer()
        const = [F(1, 3), F(0), F(7, BIG)]
        lifted = [RationalFunction(x) for x in const]
        for n in range(4):
            got = evaluation_row(n, lifted)
            assert got == _evaluation_row_products(K, 2, n, lifted) == evaluation_row(n, const)
            assert all(type(x) is F for x in got)
            assert integer_evaluation_row(n, lifted) == integer_evaluation_row(n, const)
        Y, Y_const = Subvariety(K, 3, points=[lifted]), Subvariety(K, 3, points=[const])
        assert restriction_kernel(Y, 2) == restriction_kernel(Y_const, 2)


def normalize_by_magnitudes(field, coords):
    """``normalize_point`` as a Magnitude loop over field elements: the
    oracle for the integer path and the route a Laurent field takes."""
    pt = [field.element(x) for x in coords]
    best_i = best = None
    for i, x in enumerate(pt):
        m = field.abs(x)
        if not m.is_zero and (best is None or m > best):
            best_i, best = i, m
    if best_i is None:
        raise PreconditionError("zero vector is not a projective point")
    return [x / pt[best_i] for x in pt]


RATIONAL_FIELDS = [PadicRationals(2), PadicRationals(3), PadicRationals(1000003),
                   TrivialRationals()]


class TestNormalizePoint:
    """Points pick their pivot in integers (least valuation over Q_p, the
    first nonzero over the trivial field and Q(T)); the Magnitude loop is
    the oracle."""

    @staticmethod
    def check(field, coords):
        got = normalize_point(field, coords)
        assert got == normalize_by_magnitudes(field, coords)
        assert all(type(x) is F for x in got)
        return got

    @pytest.mark.parametrize("field", RATIONAL_FIELDS, ids=lambda K: f"{K.kind}{K.prime}")
    def test_equals_magnitude_loop(self, field):
        rng = random.Random(f"normalize/{field.prime}")
        p = field.prime or 2
        for _ in range(300):
            coords = []
            for _ in range(rng.randint(1, 5)):
                x = _wide_rational(rng) * F(p) ** rng.randint(-3, 3)
                coords.append(int(x) if x.denominator == 1 and rng.random() < 0.5 else x)
            if any(coords):
                self.check(field, coords)

    def test_mixed_ints_zeros_and_negatives(self):
        Q3 = PadicRationals(3)
        assert self.check(Q3, [0, F(-9, 2), 6, F(0)]) == [F(0), F(-3, 4), F(1), F(0)]
        assert self.check(Q3, [-5, 7]) == [F(1), F(-7, 5)]
        assert self.check(TrivialRationals(), [0, -4, F(2, 3)]) == [F(0), F(1), F(-1, 6)]

    def test_ties_in_valuation_go_to_the_first(self):
        Q2 = PadicRationals(2)
        assert self.check(Q2, [4, F(3), F(5, 7), 1]) == [F(4, 3), F(1), F(5, 21), F(1, 3)]
        assert self.check(Q2, [F(1, 2), F(3, 2)]) == [F(1), F(3)]
        assert self.check(TrivialRationals(), [0, F(7), F(1, 9)]) == [F(0), F(1), F(1, 63)]

    @pytest.mark.parametrize("k", [4096, 5000])
    def test_huge_valuations(self, k):
        Q2, Q3 = PadicRationals(2), PadicRationals(3)
        got = self.check(Q2, [F(2) ** k, F(3, 2 ** k), 5 * 2 ** (k + 1)])
        assert got == [F(2) ** (2 * k) / 3, F(1), F(5 * 2 ** (2 * k + 1), 3)]
        self.check(Q2, [F(2) ** -k, F(2) ** (-k - 1), 1])
        self.check(Q3, [3 ** k, 0, F(1, 3 ** k), F(2, 3 ** k)])

    def test_laurent_field_returns_field_elements(self):
        K = LaurentRationals(5)
        coords = [RationalFunction(F(0)), F(3), RationalFunction(F(7, 25)), F(1, 2), 5]
        got = normalize_point(K, coords)
        assert got == normalize_by_magnitudes(K, coords)
        assert all(type(x) is F for x in got)
        assert got == [0, 1, F(7, 75), F(1, 6), F(5, 3)] and got[1] == K.one()
        assert all(type(x) is F for x in normalize_point(K, [F(2), 1]))
        rng = random.Random("normalize/laurent")
        for _ in range(100):
            coords = [_wide_rational(rng) * rng.choice([0, 1]) for _ in range(rng.randint(1, 4))]
            if any(coords):
                lifted = [RationalFunction(x) for x in coords]
                assert (normalize_point(K, lifted) == normalize_point(K, coords)
                        == normalize_point(TrivialRationals(), coords))
                assert normalize_point(K, lifted) == normalize_by_magnitudes(K, lifted)

    @pytest.mark.parametrize("field", RATIONAL_FIELDS + [LaurentRationals(5)],
                             ids=lambda K: f"{K.kind}{K.prime}")
    def test_zero_vector(self, field):
        for coords in ([0, 0], [F(0)], [F(0), 0, F(0)]):
            with pytest.raises(PreconditionError) as err:
                normalize_point(field, coords)
            assert str(err.value) == "zero vector is not a projective point"


class TestSubvariety:
    def test_point_normalization(self):
        Q2 = PadicRationals(2)
        # first coordinate of maximal magnitude is scaled to 1
        pt = normalize_point(Q2, [F(2), F(4)])
        assert pt == [F(1), F(2)]

    def test_duplicate_points_rejected(self):
        Q2 = PadicRationals(2)
        with pytest.raises(PreconditionError):
            Subvariety(Q2, 2, points=[[F(1), F(2)], [F(2), F(4)]])

    def test_dependent_forms_rejected(self):
        Q2 = PadicRationals(2)
        with pytest.raises(PreconditionError):
            Subvariety(Q2, 3, linear_forms=[[F(1), F(0), F(1)],
                                            [F(2), F(0), F(2)]])


class TestRestrictionKernel:
    def test_two_points_degree_two_on_p1(self):
        Q2 = PadicRationals(2)
        Y = Subvariety(Q2, 2, points=[[F(1), F(0)], [F(0), F(1)]])
        ker = restriction_kernel(Y, 2)
        # sections of degree 2 vanishing at [1:0] and [0:1]: span{xy}
        assert len(ker) == 1
        sec = Section.from_vector(Q2, 1, 2, ker[0])
        assert sec.coeffs.get((1, 1)) not in (None, F(0))
        for pt in Y.points:
            assert sec.evaluate(pt) == F(0)

    def test_full_kernel_when_no_conditions_bind(self):
        Q2 = PadicRationals(2)
        Y = Subvariety(Q2, 2, points=[[F(1), F(1)]])
        ker = restriction_kernel(Y, 3)
        assert len(ker) == 3  # dim 4 minus one evaluation condition

    def test_linear_subvariety_ideal_piece(self):
        Q2 = PadicRationals(2)
        # z = 0 inside P^2: degree-2 kernel is z * (linear forms)
        Y = Subvariety(Q2, 3, linear_forms=[[F(0), F(0), F(1)]])
        ker = restriction_kernel(Y, 2)
        assert len(ker) == 3
        for vec in ker:
            sec = Section.from_vector(Q2, 2, 2, vec)
            for exp, c in sec.coeffs.items():
                if c != F(0):
                    assert exp[2] >= 1

    def test_trivial_field_kernel(self):
        K = TrivialRationals()
        Y = Subvariety(K, 2, points=[[F(1), F(1)], [F(1), F(-1)]])
        ker = restriction_kernel(Y, 2)
        assert len(ker) == 1
        sec = Section.from_vector(K, 1, 2, ker[0])
        for pt in Y.points:
            assert sec.evaluate(pt) == F(0)

    @pytest.mark.parametrize("field", [PadicRationals(3), TrivialRationals(),
                                       LaurentRationals(5)], ids=lambda K: K.kind)
    def test_one_form_equals_the_extend_basis_selection(self, field):
        # one nonzero form times distinct monomials is independent: every
        # candidate of the greedy scan is kept, in order
        rng = random.Random(f"one-form/{field.kind}")
        for nv in (2, 3, 4):
            for _ in range(4 if nv < 4 else 2):
                form = [F(rng.choice([0, rng.randint(-5, 5)]), rng.randint(1, 4))
                        for _ in range(nv)]
                if not any(form):
                    continue
                form = [field.element(c) for c in form]
                Y = Subvariety(field, nv, linear_forms=[form])
                section = Section.from_vector(field, nv - 1, 1, form)
                assert restriction_kernel(Y, 0) == []
                for n in range(1, 7):
                    vectors = [(Section.monomial(field, e) * section).to_vector()
                               for e in monomial_basis(nv - 1, n - 1)]
                    size = len(monomial_basis(nv - 1, n))
                    want = [vectors[i] for i in linalg.extend_basis([], vectors, size)]
                    assert restriction_kernel(Y, n) == want


    def test_several_forms_keep_an_independent_selection(self):
        # k forms span products that repeat from degree 2 on: the kept vectors
        # are independent and span the degree-n piece of the ideal, of dimension
        # C(n + m, m) - C(n + m - k, m - k)
        Q3 = PadicRationals(3)
        rng = random.Random("several-forms")
        for nv, k in ((3, 2), (4, 2), (4, 3)):
            while True:
                forms = [[F(rng.randint(-3, 3)) for _ in range(nv)] for _ in range(k)]
                if linalg.rank(forms) == k:
                    break
            Y = Subvariety(Q3, nv, linear_forms=forms)
            m = nv - 1
            for n in range(1, 5):
                ker = restriction_kernel(Y, n)
                assert len(ker) == comb(n + m, m) - comb(n + m - k, m - k)
                assert linalg.rank(ker) == len(ker)

class TestFromVector:
    @pytest.mark.parametrize("vec", [[F(1), F(2)], [F(1), F(0), F(2), F(3)]],
                             ids=["short", "long"])
    def test_wrong_length_is_refused(self, vec):
        Q2 = PadicRationals(2)
        message = f"^vector has {len(vec)} entries, degree 2 on P\\^1 has 3 monomials$"
        with pytest.raises(PreconditionError, match=message):
            Section.from_vector(Q2, 1, 2, vec)

    def test_right_length_drops_zeros(self):
        Q2 = PadicRationals(2)
        s = Section.from_vector(Q2, 1, 2, [F(1), F(0), F(-2)])
        assert s == Section(Q2, 2, 2, {(2, 0): F(1), (0, 2): F(-2)})
        assert s.to_vector() == [F(1), F(0), F(-2)]
