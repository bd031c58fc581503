"""Exact arithmetic for valued fields and norm magnitudes.

Three field flavours are supported:

* ``PadicRationals(p)`` -- the rationals with the p-adic absolute value
  (uniformizer magnitude 1/p),
* ``TrivialRationals()`` -- the rationals with the trivial absolute value,
* ``LaurentRationals(P)`` -- Q(T) with the T-adic absolute value
  |f| = (1/P)^ord_T(f) for a chosen prime P.  Its elements are the
  constants of Q(T), the only ones the trivial-valuation detour builds,
  held as Fractions, so every nonzero element has |c| = (1/P)^0.  A
  ``RationalFunction`` tags a rational as such a constant on input.

Every magnitude is kept exactly as (num / den) * rho^n in integers, rho the
uniformizer magnitude, so products, quotients, powers and comparisons (the
exponent gap first) never build a Fraction or touch floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import Iterable, Optional, Union

_Q0, _Q1 = Fraction(0), Fraction(1)  # shared, as Fractions are immutable


class PreconditionError(ValueError):
    """A mathematical precondition of an operation was violated."""


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def _is_zero(x) -> bool:
    """Zero test for a field element: a rational, or a tagged constant of
    Q(T) (``RationalFunction``) read as its value."""
    if isinstance(x, (int, Fraction)):
        return x == 0
    return not x.value


def _vp(x: Fraction, p: int) -> int:
    """The p-adic valuation of a nonzero rational (or int), in doubling
    steps: O(log(v)^2) divisions at most, not v of them."""
    if x == 0:
        raise ValueError("zero has no finite valuation")
    m, sign = x.numerator, 1
    if m % p:
        m, sign = x.denominator, -1
    e = 0
    while m % p == 0:  # strip p, p^2, p^4, ... while they divide; repeat
        m //= p
        e += 1
        q, k = p * p, 2
        while m % q == 0:
            m //= q
            e += k
            q, k = q * q, k + k
    return sign * e


def _sign_scaled(x: int, P: int, d: int, y: int) -> int:
    """The sign of x * P^d - y for positive integers x, y and P >= 2 (any P
    when d = 0), from bit lengths first: x P^d lies in [2^(bitlen x - 1 +
    d (bitlen P - 1)), 2^(bitlen x + d bitlen P)), so only a y in that range
    pays for the power.  d < 0 compares y P^-d with x."""
    if d < 0:
        return -_sign_scaled(y, P, -d, x)
    lx, ly, lp = x.bit_length(), y.bit_length(), P.bit_length()
    if lx - 1 + d * (lp - 1) >= ly:
        return 1
    if lx + d * lp < ly:
        return -1
    x *= P ** d
    return (x > y) - (x < y)


class Magnitude:
    """Exact non-negative value of an absolute value or norm.

    Stored as (num / den) * rho^n, num and den coprime positive integers,
    or as zero (0, 1, 0).  ``rho`` is the uniformizer magnitude of the
    owning field (None for the trivial valuation, where n is pinned to 0).
    When rho = 1/p, num and den carry no factor of p, so the triple is
    unique.  ``q`` reads num / den as a Fraction.
    """

    __slots__ = ("rho", "num", "den", "n")

    def __init__(self, rho: Optional[Fraction], q, n: int = 0):
        q = _as_fraction(q)
        if q < 0:
            raise ValueError("magnitude coefficient must be non-negative")
        num, den = q.numerator, q.denominator
        if not num:
            n = 0
        elif rho is None:
            if n != 0:
                raise ValueError("trivial valuation admits no uniformizer power")
        else:
            p = rho.denominator  # rho = 1/p with p prime
            e = _vp(q, p)
            num, den, n = num // p ** max(e, 0), den // p ** max(-e, 0), n - e
        self.rho, self.num, self.den, self.n = rho, num, den, n

    # -- constructors -------------------------------------------------

    @classmethod
    def _normalized(cls, rho: Optional[Fraction], num: int, den: int, n: int) -> "Magnitude":
        """(num / den) * rho^n for a triple that is already normalized (coprime
        and free of p, or (0, 1, 0)), built without re-checking."""
        m = object.__new__(cls)
        m.rho, m.num, m.den, m.n = rho, num, den, n
        return m

    @classmethod
    def zero(cls, rho: Optional[Fraction] = None) -> "Magnitude":
        return cls._normalized(rho, 0, 1, 0)

    @classmethod
    def one(cls, rho: Optional[Fraction] = None) -> "Magnitude":
        return cls._normalized(rho, 1, 1, 0)

    # -- predicates ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.num

    @property
    def q(self) -> Fraction:
        """The coefficient num / den."""
        return Fraction(self.num, self.den)

    def value(self) -> Fraction:
        """The denoted rational value (num / den) * rho^n (exact)."""
        p = 1 if self.rho is None else self.rho.denominator
        return Fraction(self.num * p ** max(-self.n, 0), self.den * p ** max(self.n, 0))

    # -- arithmetic ----------------------------------------------------

    def _check_compat(self, other: "Magnitude") -> None:
        # magnitudes of one field share its rho object
        if self.rho is not other.rho and self.rho != other.rho:
            raise ValueError("magnitudes over different field profiles")

    # p-free coprime pairs stay so: one gcd per cross pair, no Fraction

    def __mul__(self, other: "Magnitude") -> "Magnitude":
        self._check_compat(other)
        a, b, c, d = self.num, self.den, other.num, other.den
        if not a or not c:
            return Magnitude.zero(self.rho)
        g, h = gcd(a, d), gcd(c, b)
        return Magnitude._normalized(self.rho, a // g * (c // h), b // h * (d // g),
                                     self.n + other.n)

    def __truediv__(self, other: "Magnitude") -> "Magnitude":
        self._check_compat(other)
        a, b, c, d = self.num, self.den, other.num, other.den
        if not c:
            raise ZeroDivisionError("division by zero magnitude")
        if not a:
            return Magnitude.zero(self.rho)
        g, h = gcd(a, c), gcd(b, d)
        return Magnitude._normalized(self.rho, a // g * (d // h), b // h * (c // g),
                                     self.n - other.n)

    def __pow__(self, m: int) -> "Magnitude":
        if self.is_zero:
            if m <= 0:
                raise ZeroDivisionError("zero magnitude to a non-positive power")
            return Magnitude.zero(self.rho)
        a, b = (self.num, self.den) if m >= 0 else (self.den, self.num)
        return Magnitude._normalized(self.rho, a ** abs(m), b ** abs(m), self.n * m)

    # -- comparisons (total order on the denoted values) ---------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Magnitude):
            return NotImplemented
        self._check_compat(other)
        return self.num == other.num and self.den == other.den and self.n == other.n

    def __hash__(self):
        return hash((self.rho, self.num, self.den, self.n))

    def _sign(self, other: "Magnitude") -> int:
        """The sign of self - other: with rho = 1/p, (a/b) rho^n1 against
        (c/d) rho^n2 is a d p^(n2 - n1) against c b; zero is decided first."""
        self._check_compat(other)
        if not self.num or not other.num:
            return (self.num > 0) - (other.num > 0)
        return _sign_scaled(self.num * other.den, 1 if self.rho is None else self.rho.denominator,
                            other.n - self.n, other.num * self.den)

    def __lt__(self, other: "Magnitude") -> bool:
        return self._sign(other) < 0

    def __le__(self, other: "Magnitude") -> bool:
        return self._sign(other) <= 0

    def __gt__(self, other: "Magnitude") -> bool:
        return self._sign(other) > 0

    def __ge__(self, other: "Magnitude") -> bool:
        return self._sign(other) >= 0

    def __repr__(self) -> str:
        if self.is_zero:
            return "Magnitude(0)"
        if self.rho is None or self.n == 0:
            return f"Magnitude({self.q})"
        return f"Magnitude({self.q}*({self.rho})^{self.n})"


def magnitude_max(values: Iterable[Magnitude]) -> Magnitude:
    """Maximum of a non-empty iterable of magnitudes."""
    best = None
    for v in values:
        if best is None or v > best:
            best = v
    if best is None:
        raise ValueError("max of empty magnitude collection")
    return best


# ----------------------------------------------------------------------
# Tagged constants of Q(T), an input form of the Laurent field's elements
# ----------------------------------------------------------------------


class RationalFunction:
    """An input tag for a constant of Q(T): one rational, ``value``.

    The trivial-valuation detour extends scalars to a Laurent field, and
    the minimizer of a rational input stays rational, so every element of
    Q(T) that an operation builds is a constant; T itself is never built.
    A Laurent field's elements are Fractions.  The tag has no operators
    and no equality: ``ValuedField.element``, the kernels and ``Section``
    read it as its rational value wherever one arrives.
    """

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = _as_fraction(value)


def _constant_value(x) -> Fraction:
    """x as a Fraction: a rational, or a tagged constant of Q(T)."""
    return x.value if isinstance(x, RationalFunction) else _as_fraction(x)


FieldElement = Union[Fraction, RationalFunction]


# ----------------------------------------------------------------------
# Valued fields
# ----------------------------------------------------------------------


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class ValuedField:
    """A supported valued field; immutable and hashable.

    ``kind`` is one of "padic", "trivial", "laurent"; ``prime`` is the
    residue prime p (padic) or the chosen base prime P (laurent).
    ``rho`` is the uniformizer magnitude 1/prime (None for the trivial
    valuation), built once; it is not a dataclass field, so equality and
    hashing see only ``kind`` and ``prime``.
    """

    kind: str
    prime: Optional[int] = None

    def __post_init__(self):
        if self.kind in ("padic", "laurent"):
            if self.prime is None or not _is_prime(self.prime):
                raise ValueError(f"{self.kind} field requires a prime, got {self.prime}")
        elif self.kind == "trivial":
            if self.prime is not None:
                raise ValueError("trivial valuation takes no prime")
        else:
            raise ValueError(f"unknown field kind {self.kind!r}")
        object.__setattr__(self, "rho", None if self.kind == "trivial"
                           else Fraction(1, self.prime))

    # -- structure ------------------------------------------------------

    @property
    def is_discrete_nontrivial(self) -> bool:
        return self.kind != "trivial"

    def zero(self) -> Fraction:
        return _Q0

    def one(self) -> Fraction:
        return _Q1

    def from_rational(self, x) -> Fraction:
        return _as_fraction(x)

    def uniformizer(self) -> Fraction:
        """p over Q_p.  The trivial field has no uniformizer, and a Laurent
        field, which holds constants of Q(T) only, has no element T."""
        if self.kind == "padic":
            return Fraction(self.prime)
        raise ValueError(f"the {self.kind} field has no uniformizer element")

    def element(self, x) -> Fraction:
        """Coerce x (rational, string, or over a Laurent field a tagged
        constant of Q(T)) into the field, as a Fraction."""
        if isinstance(x, RationalFunction):
            if self.kind != "laurent":
                raise TypeError("rational functions only live in Laurent fields")
            return x.value
        return _as_fraction(x)

    # -- the absolute value ----------------------------------------------

    def abs(self, x: FieldElement) -> Magnitude:
        """|x|, exactly; multiplicative and ultrametric.  Over the trivial
        field and Q(T) every nonzero rational has |x| = rho^0."""
        if self.kind != "padic":
            zero = _constant_value(x) == 0
            return Magnitude.zero(self.rho) if zero else Magnitude.one(self.rho)
        x = _as_fraction(x)
        if x == 0:
            return Magnitude.zero(self.rho)
        return Magnitude._normalized(self.rho, 1, 1, _vp(x, self.prime))

    def magnitude(self, q, n: int = 0) -> Magnitude:
        return Magnitude(self.rho, q, n)

    def zero_magnitude(self) -> Magnitude:
        return Magnitude.zero(self.rho)

    def one_magnitude(self) -> Magnitude:
        return Magnitude.one(self.rho)

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        if self.kind == "padic":
            return {"type": "padic", "p": self.prime}
        if self.kind == "trivial":
            return {"type": "trivial"}
        return {"type": "laurent", "base_prime": self.prime}

    @classmethod
    def from_json(cls, d: dict) -> "ValuedField":
        t = d.get("type")
        if t == "padic":
            return cls("padic", int(d["p"]))
        if t == "trivial":
            return cls("trivial")
        if t == "laurent":
            return cls("laurent", int(d["base_prime"]))
        raise ValueError(f"unknown field descriptor {d!r}")


def PadicRationals(p: int) -> ValuedField:
    return ValuedField("padic", p)


def TrivialRationals() -> ValuedField:
    return ValuedField("trivial")


def LaurentRationals(P: int) -> ValuedField:
    return ValuedField("laurent", P)


# ----------------------------------------------------------------------
# Picking a Laurent base prime for trivial-valuation scalar extension
# ----------------------------------------------------------------------


def choose_laurent_base(values) -> int:
    """Smallest prime P such that no ratio of two of the given positive
    rationals is a nontrivial power-relation partner of P.

    A ratio r != 1 rules P out exactly when r = +-P^(a/b) for integers
    a, b, i.e. when the prime support of r is {P}: when |num(r) den(r)| is
    a power of P.  So each ratio rules out at most one prime, and the walk
    over P = 2, 3, 5, ... strips each candidate from each ratio (``_vp``)
    without factoring any of them.  a / b and b / a share |num den|, so
    each unordered pair of distinct values gives one, from the integer cross
    products x = num(a) den(b) and y = num(b) den(a): x y / gcd(x, y)^2.
    """
    vals = []
    for v in values:
        if isinstance(v, Magnitude):
            if v.is_zero:
                continue
            v = v.value()
        else:
            v = _as_fraction(v)
        if v <= 0:
            raise ValueError("norm values must be positive")
        vals.append(v)
    cross = ((a.numerator * b.denominator, b.numerator * a.denominator)
             for a, b in combinations(set(vals), 2))
    products = {x * y // gcd(x, y) ** 2 for x, y in cross}
    P = 2
    while not _is_prime(P) or any(x % P == 0 and P ** _vp(x, P) == x for x in products):
        P += 1
    return P
