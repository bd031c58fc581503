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

Every magnitude is kept exactly as q * rho^n with q a positive rational
and rho the uniformizer magnitude, so comparisons, products and powers
never touch floating point.
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


class Magnitude:
    """Exact non-negative value of an absolute value or norm.

    Stored as q * rho^n (q > 0 rational, n integer) or as zero.  ``rho``
    is the uniformizer magnitude of the owning field (None for the
    trivial valuation, where n is pinned to 0).  When rho = 1/p the pair
    is normalized so that q carries no factor of p.
    """

    __slots__ = ("rho", "q", "n", "_value")

    def __init__(self, rho: Optional[Fraction], q, n: int = 0):
        self.rho = rho
        q = _as_fraction(q)
        if q < 0:
            raise ValueError("magnitude coefficient must be non-negative")
        if q == 0:
            self.q = _Q0
            self.n = 0
        else:
            if rho is None:
                if n != 0:
                    raise ValueError("trivial valuation admits no uniformizer power")
            else:
                p = rho.denominator  # rho = 1/p with p prime
                e = _vp(q, p)
                if e:
                    q = q / Fraction(p) ** e
                n = n - e
            self.q = q
            self.n = n
        self._value = None

    # -- constructors -------------------------------------------------

    @classmethod
    def _normalized(cls, rho: Optional[Fraction], q: Fraction, n: int) -> "Magnitude":
        """q * rho^n for a pair that is already normalized (q a Fraction
        free of p, or zero with n = 0), built without re-checking."""
        m = object.__new__(cls)
        m.rho, m.q, m.n, m._value = rho, q, n, None
        return m

    @classmethod
    def zero(cls, rho: Optional[Fraction] = None) -> "Magnitude":
        return cls._normalized(rho, _Q0, 0)

    @classmethod
    def one(cls, rho: Optional[Fraction] = None) -> "Magnitude":
        return cls._normalized(rho, _Q1, 0)

    # -- predicates ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.q == 0

    def value(self) -> Fraction:
        """The denoted rational value q * rho^n (exact)."""
        if self._value is None:
            if self.is_zero:
                self._value = _Q0
            elif self.rho is None:
                self._value = self.q
            else:
                self._value = self.q * self.rho ** self.n
        return self._value

    # -- arithmetic ----------------------------------------------------

    def _check_compat(self, other: "Magnitude") -> None:
        # magnitudes of one field share its rho object
        if self.rho is not other.rho and self.rho != other.rho:
            raise ValueError("magnitudes over different field profiles")

    # products, quotients and powers of p-free rationals are p-free

    def __mul__(self, other: "Magnitude") -> "Magnitude":
        self._check_compat(other)
        if self.is_zero or other.is_zero:
            return Magnitude.zero(self.rho)
        return Magnitude._normalized(self.rho, self.q * other.q, self.n + other.n)

    def __truediv__(self, other: "Magnitude") -> "Magnitude":
        self._check_compat(other)
        if other.is_zero:
            raise ZeroDivisionError("division by zero magnitude")
        if self.is_zero:
            return Magnitude.zero(self.rho)
        return Magnitude._normalized(self.rho, self.q / other.q, self.n - other.n)

    def __pow__(self, m: int) -> "Magnitude":
        if self.is_zero:
            if m <= 0:
                raise ZeroDivisionError("zero magnitude to a non-positive power")
            return Magnitude.zero(self.rho)
        return Magnitude._normalized(self.rho, self.q ** m, self.n * m)

    # -- comparisons (total order on the denoted values) ---------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Magnitude):
            return NotImplemented
        self._check_compat(other)
        return self.q == other.q and self.n == other.n

    def __hash__(self):
        return hash((self.rho, self.q, self.n))

    def _cross(self, other: "Magnitude") -> tuple[int, int]:
        """Integers a, b in the order of the two values: with rho = 1/p
        and M = max(n1, n2), q1 rho^n1 < q2 rho^n2 exactly when
        num1 den2 p^(M - n1) < num2 den1 p^(M - n2)."""
        self._check_compat(other)
        a = self.q.numerator * other.q.denominator
        b = other.q.numerator * self.q.denominator
        if self.n < other.n:
            a *= self.rho.denominator ** (other.n - self.n)
        elif self.n > other.n:
            b *= self.rho.denominator ** (self.n - other.n)
        return a, b

    def __lt__(self, other: "Magnitude") -> bool:
        a, b = self._cross(other)
        return a < b

    def __le__(self, other: "Magnitude") -> bool:
        a, b = self._cross(other)
        return a <= b

    def __gt__(self, other: "Magnitude") -> bool:
        return other < self

    def __ge__(self, other: "Magnitude") -> bool:
        return other <= self

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
        return Magnitude._normalized(self.rho, _Q1, _vp(x, self.prime))

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
