"""Magnitudes, valued fields, tagged constants of Q(T), Laurent base choice."""

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
from ultranorm.fields import _is_prime, _sign_scaled, _vp

SMALL = st.fractions(min_value=-5, max_value=5, max_denominator=6)
OPS = [operator.add, operator.sub, operator.mul, operator.truediv]


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
            x = field.element(x)
        m = field.abs(x)
        if field.kind == "padic":
            ref = Magnitude(field.rho, 0 if x == 0 else 1,
                            0 if x == 0 else _vp(x, field.prime))
        else:  # a nonzero rational, or constant of Q(T), has |x| = rho^0
            ref = Magnitude(field.rho, 0 if x == 0 else 1)
        assert_same(m, ref)
        assert_same(field.zero_magnitude(), Magnitude(field.rho, 0))
        assert_same(field.one_magnitude(), Magnitude(field.rho, 1))


def powered_sign(x, P, d, y):
    """The sign of x * P^d - y, with the power taken."""
    t = Fraction(x) * Fraction(P) ** d
    return (t > y) - (t < y)


PRIMES = (2, 3, 1000003)


class TestSignScaled:
    """The exponent-first comparison against the powered one."""

    @given(st.integers(1, 10 ** 40), st.sampled_from(PRIMES),
           st.one_of(st.just(0), st.integers(1, 80), st.integers(-80, -1)),
           st.integers(1, 10 ** 40))
    @settings(max_examples=600)
    def test_matches_powered_comparison(self, x, P, d, y):
        assert _sign_scaled(x, P, d, y) == powered_sign(x, P, d, y)

    @given(st.integers(1, 10 ** 30), st.sampled_from(PRIMES), st.integers(-30, 30),
           st.integers(-3, 3))
    @settings(max_examples=400)
    def test_near_ties(self, x, P, d, k):
        """y within a few units of x P^d, or exactly it (x = y P^-d for d < 0)."""
        if d >= 0:
            y = max(1, x * P ** d + k)
            assert _sign_scaled(x, P, d, y) == powered_sign(x, P, d, y)
        else:
            z = max(1, x * P ** -d + k)
            assert _sign_scaled(x * P ** -d, P, d, x) == 0
            assert _sign_scaled(z, P, d, x) == powered_sign(z, P, d, x)

    @pytest.mark.parametrize("P", PRIMES)
    def test_bit_length_boundaries(self, P):
        """x and y at the ends of their bit ranges, with bitlen y on either
        side of both exits: bitlen x - 1 + d (bitlen P - 1) and
        bitlen x + d bitlen P."""
        lp = P.bit_length()
        for lx in (1, 2, 5, 21):
            for d in (0, 1, 2, 7):
                low, high = lx - 1 + d * (lp - 1), lx + d * lp
                for ly in {low - 1, low, low + 1, high - 1, high, high + 1} - {0, -1}:
                    for x in (1 << (lx - 1), (1 << lx) - 1):
                        for y in (1 << (ly - 1), (1 << ly) - 1):
                            want = powered_sign(x, P, d, y)
                            assert _sign_scaled(x, P, d, y) == want
                            assert _sign_scaled(y, P, -d, x) == -want

    def test_far_gaps_take_no_power(self):
        """A gap of 10^12 exponents would need a power of 2 * 10^13 bits."""
        assert _sign_scaled(1, 1000003, 10 ** 12, 10 ** 100) == 1
        assert _sign_scaled(10 ** 100, 1000003, -10 ** 12, 1) == -1
        assert _sign_scaled(1, 2, 10 ** 12, 7) == 1


EXTREME = 4096 * 14  # a weight exponent at its bound, at the P^2 degree bound


@st.composite
def extreme_magnitudes(draw):
    """Two magnitudes over Q_p whose exponents reach +-4096 * 14, the second
    often within a few exponents of the first and with q carrying powers of p."""
    rho = Fraction(1, draw(st.sampled_from(PRIMES)))
    p = rho.denominator

    def q():
        return draw(st.one_of(st.just(Fraction(0)), st.builds(
            lambda a, b, k: Fraction(a, b) * Fraction(p) ** k,
            st.integers(1, 10 ** 12), st.integers(1, 10 ** 12), st.integers(-3, 3))))

    n = draw(st.integers(-EXTREME, EXTREME))
    m = draw(st.one_of(st.integers(-EXTREME, EXTREME), st.integers(n - 3, n + 3)))
    return Magnitude(rho, q(), n), Magnitude(rho, q(), m)


class TestMagnitudeAtExtremeExponents:
    """Order, products, quotients, powers, equality and hashing at exponent
    gaps near 10^5, against the Fraction oracle ``value()``."""

    @given(extreme_magnitudes())
    @settings(max_examples=150, deadline=None)
    def test_order(self, pair):
        a, b = pair
        assert (a < b) == (a.value() < b.value())
        assert (a <= b) == (a.value() <= b.value())
        assert (a > b) == (a.value() > b.value())
        assert (a >= b) == (a.value() >= b.value())

    @given(extreme_magnitudes())
    @settings(max_examples=150, deadline=None)
    def test_product_and_quotient(self, pair):
        a, b = pair
        assert (a * b).value() == a.value() * b.value()
        if not b.is_zero:
            assert (a / b).value() == a.value() / b.value()

    @given(extreme_magnitudes(), st.integers(-14, 14))
    @settings(max_examples=150, deadline=None)
    def test_power(self, pair, m):
        a = pair[0]
        a = Magnitude(a.rho, a.q, a.n % 8193 - 4096)  # |n m| stays within 4096 * 14
        if not a.is_zero or m > 0:
            assert (a ** m).value() == a.value() ** m

    @given(extreme_magnitudes(), st.integers(-5, 5))
    @settings(max_examples=150, deadline=None)
    def test_equality_and_hash(self, pair, k):
        a, b = pair
        p = a.rho.denominator
        same = Magnitude(a.rho, a.q * Fraction(p) ** k, a.n + k)  # the value, written apart
        assert same == a and hash(same) == hash(a)
        assert (a == b) == (a.value() == b.value())
        if a == b:
            assert hash(a) == hash(b)


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
    """Constants of Q(T), the Laurent field's elements, are Fractions; a
    ``RationalFunction`` is an input tag for one, read as its value."""

    def test_laurent_absolute_value_by_t_order(self):
        # a nonzero constant has T-order 0, so |c| = (1/P)^0
        K = LaurentRationals(3)
        for x in (Fraction(7, 2), Fraction(-3), Fraction(1, 9), 27):
            assert K.abs(K.from_rational(x)) == K.abs(x) == K.one_magnitude()
            assert K.abs(RationalFunction(x)) == K.one_magnitude()
        assert K.abs(K.zero()) == K.abs(0) == K.zero_magnitude()
        assert K.abs(K.from_rational(Fraction(7, 2))).value() == Fraction(1)

    def test_t_is_refused(self):
        """T has no maker: a Laurent field has no uniformizer element, and
        a coefficient tuple is not one rational."""
        with pytest.raises(ValueError, match="^the laurent field has no uniformizer element$"):
            LaurentRationals(5).uniformizer()
        with pytest.raises(ValueError, match="^the trivial field has no uniformizer element$"):
            TrivialRationals().uniformizer()
        assert PadicRationals(5).uniformizer() == 5
        for x in ((Fraction(0), Fraction(1)), (0, 1), [Fraction(3)], 1.5, None):
            with pytest.raises(TypeError, match="exact rational"):
                RationalFunction(x)
            with pytest.raises(TypeError, match="exact rational"):
                LaurentRationals(5).element(x)

    def test_arithmetic_reduces(self):
        K = LaurentRationals(2)
        one, c = K.one(), K.from_rational(Fraction(6, 4))
        f = (one + c) * (one - c)
        assert f == one - c * c
        assert type(f) is Fraction and f == Fraction(-5, 4)

    @given(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5))
    @settings(max_examples=100)
    def test_field_axioms_sample(self, a, b, c):
        K = LaurentRationals(2)
        t = K.from_rational(Fraction(1, 3))
        f = K.from_rational(Fraction(a)) + t * K.from_rational(Fraction(b))
        g = K.from_rational(Fraction(c)) + t  # never zero
        assert f * g == g * f
        assert f + g == g + f
        assert f * (g + g) == f * g + f * g
        assert f / g * g == f and f - g + g == f

    @given(SMALL, SMALL.filter(bool))
    def test_constant_constructions_agree(self, a, b):
        """Every Laurent constructor returns the Fraction itself, from a
        rational, an int, a string or a tag."""
        x, K = a / b, LaurentRationals(2)
        made = [K.from_rational(x), K.element(x), K.element(str(x)),
                K.element(RationalFunction(x)), K.element(RationalFunction(str(x))),
                RationalFunction(x).value, RationalFunction(str(x)).value]
        for f in made:
            assert type(f) is Fraction and f == x
        n = a.numerator
        assert type(K.element(n)) is type(RationalFunction(n).value) is Fraction
        assert K.element(RationalFunction(n)) == n

    @pytest.mark.parametrize("K", [PadicRationals(3), TrivialRationals(), LaurentRationals(5)],
                             ids=["padic", "trivial", "laurent"])
    def test_every_constructor_returns_a_fraction(self, K):
        made = [K.zero(), K.one(), K.from_rational(2), K.from_rational("-3/4"),
                K.element(Fraction(5, 6)), K.element(7), K.element("1/9")]
        assert all(type(x) is Fraction for x in made)
        assert made == [0, 1, 2, Fraction(-3, 4), Fraction(5, 6), 7, Fraction(1, 9)]
        if K.kind == "laurent":
            got = K.element(RationalFunction(Fraction(-2, 7)))
            assert type(got) is Fraction and got == Fraction(-2, 7)
        else:
            with pytest.raises(TypeError, match="only live in Laurent fields"):
                K.element(RationalFunction(1))

    def test_the_tag_has_no_operators(self):
        """The tag defines no dunder but ``__init__``: no arithmetic, no
        equality with its value, no hash of its own."""
        assert {k for k, v in vars(RationalFunction).items()
                if k.startswith("__") and callable(v)} == {"__init__"}
        x = RationalFunction(Fraction(1, 2))
        assert x != Fraction(1, 2) and x != RationalFunction(Fraction(1, 2))
        for op in OPS:
            with pytest.raises(TypeError):
                op(x, 1)
            with pytest.raises(TypeError):
                op(1, x)


def _prime_support(q: Fraction) -> set[int]:
    """The primes dividing the numerator or the denominator of q, by trial
    division."""
    support = set()
    for n in (q.numerator, q.denominator):
        n = abs(n)
        d = 2
        while d * d <= n:
            if n % d == 0:
                support.add(d)
                while n % d == 0:
                    n //= d
            d += 1
        if n > 1:
            support.add(n)
    return support


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

    def test_repeated_values_and_a_large_prime_squared(self):
        # repeats give ratio 1, which rules out nothing; q^2 rules out q
        # alone, found by stripping q, not by factoring q^2
        q = 2 ** 61 - 1  # prime
        values = [Fraction(v) for v in (1, 1, 2, 9, 9, q * q, q * q, 2 * q * q)]
        assert choose_laurent_base(values) == 5
        assert choose_laurent_base([Fraction(q * q), Fraction(1), Fraction(q * q)]) == 2
        assert choose_laurent_base([Fraction(3, q * q)] * 4) == 2
        rng = random.Random("laurent-base/repeats")
        for _ in range(100):
            values = [Fraction(rng.choice([1, 2, 3, 4, 9, 25]), rng.choice([1, 2, 3, 5]))
                      for _ in range(rng.randint(1, 5))]
            values += rng.sample(values, rng.randint(0, len(values)))
            assert choose_laurent_base(values) == _choose_by_factoring(values)

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
