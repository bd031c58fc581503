"""Magnitudes, valued fields, rational functions, Laurent base choice."""

from __future__ import annotations

import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultranorm import (LaurentRationals, Magnitude, PadicRationals,
                       RationalFunction, TrivialRationals, ValuedField,
                       choose_laurent_base)
from ultranorm.fields import _is_prime, _poly_gcd, _prime_support, _vp

SMALL = st.fractions(min_value=-5, max_value=5, max_denominator=6)
# enough points that, after dropping the roots of the (degree <= 3)
# denominators and of a divisor, several remain to compare at
POINTS = [Fraction(t) for t in range(-4, 6)] + [
    Fraction(1, 2), Fraction(-1, 3), Fraction(5, 7), Fraction(-7, 4),
    Fraction(9, 5), Fraction(-11, 6)]
OPS = [operator.add, operator.sub, operator.mul, operator.truediv]


def poly_at(coeffs, t):
    return sum((c * t ** i for i, c in enumerate(coeffs)), Fraction(0))


@st.composite
def rf_operands(draw):
    """(num, den) coefficient lists of a constant, a polynomial or a
    proper ratio, unreduced."""
    kind = draw(st.sampled_from(["constant", "polynomial", "rational"]))
    if kind == "constant":
        return [draw(SMALL)], [draw(SMALL.filter(bool))]
    num = draw(st.lists(SMALL, max_size=4))
    if kind == "polynomial":
        return num, [Fraction(1)]
    den = draw(st.lists(SMALL, min_size=2, max_size=4)
               .filter(lambda d: d[-1] != 0))
    return num, den


def assert_canonical(f):
    assert not f.num or f.num[-1] != 0
    assert f.den[-1] == 1
    if f.is_zero:
        assert f.den == (Fraction(1),)
    else:
        assert _poly_gcd(f.num, f.den) == (Fraction(1),)


class TestMagnitude:
    def test_canonical_form_strips_base_prime(self):
        Q2 = PadicRationals(2)
        m = Q2.abs(Fraction(6))  # |6|_2 = 1/2
        assert m.q == Fraction(1)
        assert m.value() == Fraction(1, 2)

    def test_padic_absolute_values(self):
        Q3 = PadicRationals(3)
        assert Q3.abs(Fraction(9)).value() == Fraction(1, 9)
        assert Q3.abs(Fraction(1, 3)).value() == Fraction(3)
        assert Q3.abs(Fraction(5)).value() == Fraction(1)
        assert Q3.abs(Fraction(0)).is_zero

    def test_trivial_absolute_values(self):
        K = TrivialRationals()
        assert K.abs(Fraction(17, 5)).value() == Fraction(1)
        assert K.abs(Fraction(0)).is_zero

    def test_multiplicativity_and_comparison(self):
        Q2 = PadicRationals(2)
        a = Q2.abs(Fraction(12))   # 1/4
        b = Q2.abs(Fraction(1, 2))  # 2
        assert (a * b).value() == Fraction(1, 2)
        assert a < b
        assert max(a, b).value() == Fraction(2)

    def test_power_and_division(self):
        Q5 = PadicRationals(5)
        a = Q5.abs(Fraction(5))
        assert (a ** 3).value() == Fraction(1, 125)
        assert (a / a).value() == Fraction(1)

    @given(st.fractions(min_value=-100, max_value=100),
           st.fractions(min_value=-100, max_value=100))
    @settings(max_examples=200)
    def test_ultrametric_triangle_inequality(self, x, y):
        Q2 = PadicRationals(2)
        lhs = Q2.abs(x + y)
        rhs = max(Q2.abs(x), Q2.abs(y))
        assert lhs.value() <= rhs.value()
        if Q2.abs(x).value() != Q2.abs(y).value():
            assert lhs.value() == rhs.value()

    @given(st.fractions(min_value=-50, max_value=50).filter(lambda t: t != 0),
           st.fractions(min_value=-50, max_value=50).filter(lambda t: t != 0))
    @settings(max_examples=200)
    def test_multiplicative_property(self, x, y):
        Q3 = PadicRationals(3)
        assert Q3.abs(x * y).value() == (Q3.abs(x) * Q3.abs(y)).value()


FIELDS = [PadicRationals(2), PadicRationals(3), TrivialRationals(),
          LaurentRationals(5)]


@st.composite
def magnitude_pairs(draw):
    """Two magnitudes of one field, built by the public constructor from
    an unnormalized (q, n): q may carry powers of p, and may be zero."""
    field = draw(st.sampled_from(FIELDS))

    def one():
        q = draw(st.one_of(
            st.just(Fraction(0)),
            st.fractions(min_value=0, max_value=10 ** 6, max_denominator=10 ** 4),
            st.builds(lambda a, b, k: Fraction(a, b) * Fraction(6) ** k,
                      st.integers(1, 10 ** 30), st.integers(1, 10 ** 20),
                      st.integers(-6, 6))))
        n = 0 if field.rho is None else draw(st.integers(-40, 40))
        return Magnitude(field.rho, q, n)

    return one(), one()


def assert_same(m, ref):
    assert (m.rho, m.q, m.n) == (ref.rho, ref.q, ref.n)
    assert type(m.q) is Fraction


class TestMagnitudeFastPaths:
    """Products, quotients and powers skip re-normalizing and the order is
    decided in integers; the public constructor and ``value()`` are the
    oracles."""

    @given(magnitude_pairs())
    @settings(max_examples=400)
    def test_order_matches_values(self, pair):
        a, b = pair
        assert (a < b) == (a.value() < b.value())
        assert (a <= b) == (a.value() <= b.value())
        assert (a > b) == (a.value() > b.value())
        assert (a >= b) == (a.value() >= b.value())

    @given(magnitude_pairs(), st.integers(-4, 4))
    @settings(max_examples=400)
    def test_arithmetic_matches_public_constructor(self, pair, m):
        a, b = pair
        rho = a.rho
        prod = a * b
        assert_same(prod, Magnitude(rho, a.q * b.q, a.n + b.n))
        assert prod.value() == a.value() * b.value()
        if not b.is_zero:
            quot = a / b
            assert_same(quot, Magnitude(rho, a.q / b.q, a.n - b.n))
            assert quot.value() == a.value() / b.value()
        if not a.is_zero or m > 0:
            power = a ** m
            assert_same(power, Magnitude(rho, a.q ** m, a.n * m))
            assert power.value() == a.value() ** m

    @given(st.sampled_from(FIELDS),
           st.fractions(min_value=-10 ** 6, max_value=10 ** 6))
    @settings(max_examples=200)
    def test_abs_matches_public_constructor(self, field, x):
        if field.kind == "laurent":
            T = RationalFunction.variable()
            x = x * T ** 3 / (1 + T)
        m = field.abs(x)
        if field.kind == "trivial":
            ref = Magnitude(None, 0 if x == 0 else 1)
        elif field.kind == "laurent":
            ref = Magnitude(field.rho, 0 if x.is_zero else 1,
                            0 if x.is_zero else 3)
        else:
            ref = Magnitude(field.rho, 0 if x == 0 else 1,
                            0 if x == 0 else _vp(x, field.prime))
        assert_same(m, ref)
        assert_same(field.zero_magnitude(), Magnitude(field.rho, 0))
        assert_same(field.one_magnitude(), Magnitude(field.rho, 1))


class TestValuation:
    def test_zero_has_no_valuation(self):
        with pytest.raises(ValueError):
            _vp(Fraction(0), 2)

    def test_matches_constructed_exponent(self):
        # x = +-p^k * a/b with a, b prime to p has valuation exactly k
        rng = random.Random(23)
        for _ in range(400):
            p = rng.choice([2, 3, 5, 7, 11])
            a, b = rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6)
            if a % p == 0 or b % p == 0:
                continue
            k = rng.randint(-8, 8)
            x = rng.choice([1, -1]) * Fraction(a, b) * Fraction(p) ** k
            assert _vp(x, p) == k
            assert PadicRationals(p).abs(x).value() == Fraction(p) ** -k

    @staticmethod
    def loop_vp(x, p):
        """The valuation by stripping one factor of p per step."""
        e, num, den = 0, x.numerator, x.denominator
        while num % p == 0:
            num //= p
            e += 1
        while den % p == 0:
            den //= p
            e -= 1
        return e

    def test_doubling_matches_loop(self):
        rng = random.Random(30)
        for p in (2, 3, 1000003):
            for v in [0, 1, -1, 2, 3, 4095, 4096, -4096]:
                for _ in range(3):
                    a = rng.randint(1, 10 ** rng.randint(1, 30))
                    b = rng.randint(1, 10 ** rng.randint(1, 30))
                    x = rng.choice([1, -1]) * Fraction(a, b) * Fraction(p) ** v
                    assert _vp(x, p) == self.loop_vp(x, p)
            for _ in range(200):
                x = Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6))
                x *= Fraction(p) ** rng.randint(-70, 70)
                assert _vp(x, p) == self.loop_vp(x, p)
                assert _vp(x.numerator, p) == self.loop_vp(Fraction(x.numerator), p)


class TestValuedField:
    def test_json_round_trip(self):
        for field in (PadicRationals(2), TrivialRationals(),
                      LaurentRationals(3)):
            assert ValuedField.from_json(field.to_json()) == field

    def test_rho_values(self):
        assert PadicRationals(7).rho == Fraction(1, 7)
        assert TrivialRationals().rho is None

    def test_rho_built_once_and_outside_equality(self):
        K, L = PadicRationals(5), PadicRationals(5)
        assert K.rho is K.rho and K.rho is not L.rho
        assert K == L and hash(K) == hash(L) and K != LaurentRationals(5)
        assert repr(K) == "ValuedField(kind='padic', prime=5)"
        # magnitudes of equal fields built apart stay comparable
        assert K.magnitude(2, 1) * L.magnitude(3) == K.magnitude(6, 1)
        assert K.magnitude(1, 1) < L.magnitude(1)
        with pytest.raises(ValueError):
            K.magnitude(1) < PadicRationals(3).magnitude(1)

    def test_composite_prime_rejected(self):
        with pytest.raises(Exception):
            PadicRationals(6)


class TestRationalFunction:
    def test_laurent_absolute_value_by_t_order(self):
        K = LaurentRationals(3)
        t = K.uniformizer()
        assert K.abs(t).value() == Fraction(1, 3)
        assert K.abs(t * t).value() == Fraction(1, 9)
        assert K.abs(K.one() / t).value() == Fraction(3)
        assert K.abs(K.from_rational(Fraction(7, 2))).value() == Fraction(1)

    def test_arithmetic_reduces(self):
        K = LaurentRationals(2)
        t = K.uniformizer()
        one = K.one()
        f = (one + t) * (one - t)
        g = one - t * t
        assert f == g

    def test_order_and_constant_detection(self):
        K = LaurentRationals(2)
        t = K.uniformizer()
        f = t * t * K.from_rational(Fraction(3))
        assert f.order() == 2
        assert not f.is_constant()
        c = K.from_rational(Fraction(5, 4))
        assert c.is_constant() and c.constant_value() == Fraction(5, 4)

    @given(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5))
    @settings(max_examples=100)
    def test_field_axioms_sample(self, a, b, c):
        K = LaurentRationals(2)
        t = K.uniformizer()
        f = K.from_rational(Fraction(a)) + t * K.from_rational(Fraction(b))
        g = K.from_rational(Fraction(c)) + t
        assert f * g == g * f
        assert f + g == g + f
        assert f * (g + g) == f * g + f * g


    @given(rf_operands(), rf_operands(), st.sampled_from(OPS))
    @settings(max_examples=400)
    def test_arithmetic_matches_pointwise_values(self, f, g, op):
        lhs, rhs = RationalFunction(*f), RationalFunction(*g)
        assert_canonical(lhs)
        assert_canonical(rhs)
        if op is operator.truediv and rhs.is_zero:
            with pytest.raises(ZeroDivisionError):
                op(lhs, rhs)
            return
        result = op(lhs, rhs)
        assert_canonical(result)
        checked = 0
        for t in POINTS:
            df, dg, dr = (poly_at(f[1], t), poly_at(g[1], t),
                          poly_at(result.den, t))
            if 0 in (df, dg, dr):
                continue
            gt = poly_at(g[0], t) / dg
            if op is operator.truediv and gt == 0:
                continue
            assert poly_at(result.num, t) / dr == op(poly_at(f[0], t) / df, gt)
            checked += 1
        assert checked >= 3

    @given(rf_operands(), SMALL, st.sampled_from(OPS))
    @settings(max_examples=200)
    def test_mixed_rational_operands(self, f, c, op):
        x = RationalFunction(*f)
        for a, b in ((x, c), (c, x)):
            lifted = [RationalFunction.constant(v) if v is c else v
                      for v in (a, b)]
            if op is operator.truediv and lifted[1].is_zero:
                continue
            assert op(a, b) == op(*lifted)
        assert -x == RationalFunction.constant(0) - x

    @given(SMALL, SMALL.filter(bool))
    def test_constant_constructions_agree(self, a, b):
        f = RationalFunction((a,), (b,))
        g = RationalFunction.constant(a / b)
        assert f == g and hash(f) == hash(g)
        assert f.num == g.num and f.den == (Fraction(1),)
        assert f == a / b and f.constant_value() == a / b


def _choose_by_factoring(values):
    """The smallest prime outside the prime supports {P} of the ratios
    r != 1, each ratio factored in full: the oracle."""
    excluded = set()
    for a in values:
        for b in values:
            if a != b and len(support := _prime_support(a / b)) == 1:
                excluded |= support
    P = 2
    while P in excluded or not _is_prime(P):
        P += 1
    return P


class TestChooseLaurentBase:
    def test_equals_the_factoring_rule(self):
        rng = random.Random("laurent-base")
        atoms = [1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 25, 27, 49, 121, 2 ** 10, 3 ** 7, 13 ** 3]
        for _ in range(400):
            values = {Fraction(rng.choice(atoms), rng.choice(atoms))
                      for _ in range(rng.randint(1, 6))}
            # walls of prime powers, so the walk passes several excluded primes
            values |= {Fraction(p) ** rng.randint(1, 3) for p in (2, 3, 5, 7, 11)
                       if rng.random() < 0.5}
            values = sorted(values)
            assert choose_laurent_base(values) == _choose_by_factoring(values)
            mags = [TrivialRationals().magnitude(v) for v in values]
            assert choose_laurent_base(mags + [Magnitude.zero()]) == _choose_by_factoring(values)

    def test_frozen_examples(self):
        one = Fraction(1)
        assert choose_laurent_base([one]) == 2
        assert choose_laurent_base([one, Fraction(2), Fraction(1, 2)]) == 3
        assert choose_laurent_base([one, Fraction(3)]) == 2

    def test_chosen_base_avoids_value_ratios(self):
        values = [Fraction(1), Fraction(6), Fraction(2, 3)]
        base = choose_laurent_base(values)
        for a in values:
            for b in values:
                ratio = a / b
                if ratio != 1:
                    # ratio must not be a pure power of the base
                    num, den = ratio.numerator, ratio.denominator
                    stripped = abs(num * den)
                    while stripped % base == 0:
                        stripped //= base
                    assert stripped != 1
