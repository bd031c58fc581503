"""Exact arithmetic for valued fields and norm magnitudes.

Three field flavours are supported:

* ``PadicRationals(p)`` -- the rationals with the p-adic absolute value
  (uniformizer magnitude 1/p),
* ``TrivialRationals()`` -- the rationals with the trivial absolute value,
* ``LaurentRationals(P)`` -- rational functions in T over Q, with the
  T-adic absolute value |f| = (1/P)^ord_T(f) for a chosen prime P.

Every magnitude is kept exactly as q * rho^n with q a positive rational
and rho the uniformizer magnitude, so comparisons, products and powers
never touch floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
    """Zero test for a field element: a rational or a RationalFunction."""
    if isinstance(x, (int, Fraction)):
        return x == 0
    return x.is_zero


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


def _fekete_running_min(ratios) -> list:
    """Running minimum of r_n^{1/n} over r_1, r_2, ... (magnitudes), kept
    symbolic as (r_n, n) pairs compared exactly via r_n^m < r_m^n."""
    running = []
    best = None
    for n, r in enumerate(ratios, start=1):
        if best is None or r ** best[1] < best[0] ** n:
            best = (r, n)
        running.append(best)
    return running


# ----------------------------------------------------------------------
# Polynomials and rational functions in T over Q (Laurent field elements)
# ----------------------------------------------------------------------


def _poly_trim(c: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return c[:i]


def _poly_add(a, b):
    n = max(len(a), len(b))
    return _poly_trim(tuple(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
        for i in range(n)
    ))


def _poly_neg(a):
    return tuple(-x for x in a)


def _poly_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _poly_trim(tuple(out))


def _poly_divmod(a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    r = list(a)
    inv_lead = 1 / b[-1]
    while len(r) >= len(b) and any(x != 0 for x in r):
        r = list(_poly_trim(tuple(r)))
        if len(r) < len(b):
            break
        c = r[-1] * inv_lead
        d = len(r) - len(b)
        q[d] = c
        for i, y in enumerate(b):
            r[d + i] -= c * y
        r.pop()
    return _poly_trim(tuple(q)), _poly_trim(tuple(r))


def _poly_gcd(a, b):
    while b:
        _, a = a, _poly_divmod(a, b)[1]
        a, b = b, a
    if a:
        lead = a[-1]
        a = tuple(x / lead for x in a)
    return a


_ONE = (Fraction(1),)


def _constant_value(x) -> Optional[Fraction]:
    """x as a Fraction when it is a rational or a constant of Q(T), else None."""
    if isinstance(x, RationalFunction):
        if len(x.num) <= 1 and len(x.den) == 1:
            return x.num[0] if x.num else Fraction(0)
        return None
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return None


class RationalFunction:
    """Reduced ratio of polynomials in T with rational coefficients.

    Coefficient tuples run from the constant term upward; the denominator
    is normalized monic and coprime to the numerator, and zero is stored
    as ``((), (1,))``.  A constant therefore always has ``den == (1,)``
    and at most one numerator coefficient, so two constants combine by
    plain Fraction arithmetic on ``num[0]``; the field operations take
    that path whenever both operands are constants.  Supports the field
    operations and T-adic order.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=_ONE, *, _reduced=False):
        num = _poly_trim(tuple(_as_fraction(c) for c in num))
        den = _poly_trim(tuple(_as_fraction(c) for c in den))
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            self.num, self.den = (), _ONE
            return
        if len(den) == 1:
            # a constant denominator divides out; the gcd is 1
            if den[0] != 1:
                num = tuple(c / den[0] for c in num)
            self.num, self.den = num, _ONE
            return
        if not _reduced and len(num) > 1:
            g = _poly_gcd(num, den)
            if len(g) > 1:
                num = _poly_divmod(num, g)[0]
                den = _poly_divmod(den, g)[0]
        lead = den[-1]
        if lead != 1:
            num = tuple(c / lead for c in num)
            den = tuple(c / lead for c in den)
        self.num = num
        self.den = den

    @classmethod
    def _of_constant(cls, x: Fraction) -> "RationalFunction":
        """The constant x, built without re-normalizing."""
        f = object.__new__(cls)
        f.num = (x,) if x else ()
        f.den = _ONE
        return f

    @classmethod
    def constant(cls, x) -> "RationalFunction":
        x = _as_fraction(x)
        return cls((x,) if x != 0 else ())

    @classmethod
    def variable(cls) -> "RationalFunction":
        return cls((Fraction(0), Fraction(1)))

    @property
    def is_zero(self) -> bool:
        return not self.num

    def is_constant(self) -> bool:
        return len(self.num) <= 1 and len(self.den) == 1

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"{self!r} is not constant")
        if self.is_zero:
            return Fraction(0)
        return self.num[0]

    def order(self) -> int:
        """T-adic order ord_T(num) - ord_T(den); undefined for zero."""
        if self.is_zero:
            raise ValueError("zero has no finite order")

        def trailing(c):
            i = 0
            while c[i] == 0:
                i += 1
            return i

        return trailing(self.num) - trailing(self.den)

    def __add__(self, other):
        a, b = _constant_value(self), _constant_value(other)
        if a is not None and b is not None:
            return RationalFunction._of_constant(a + b)
        other = self._coerce(other)
        num = _poly_add(_poly_mul(self.num, other.den), _poly_mul(other.num, self.den))
        return RationalFunction(num, _poly_mul(self.den, other.den))

    def __sub__(self, other):
        a, b = _constant_value(self), _constant_value(other)
        if a is not None and b is not None:
            return RationalFunction._of_constant(a - b)
        other = self._coerce(other)
        num = _poly_add(_poly_mul(self.num, other.den),
                        _poly_neg(_poly_mul(other.num, self.den)))
        return RationalFunction(num, _poly_mul(self.den, other.den))

    def __neg__(self):
        a = _constant_value(self)
        if a is not None:
            return RationalFunction._of_constant(-a)
        return RationalFunction(_poly_neg(self.num), self.den, _reduced=True)

    def __mul__(self, other):
        a, b = _constant_value(self), _constant_value(other)
        if a is not None and b is not None:
            return RationalFunction._of_constant(a * b)
        other = self._coerce(other)
        return RationalFunction(_poly_mul(self.num, other.num),
                                _poly_mul(self.den, other.den))

    def __truediv__(self, other):
        a, b = _constant_value(self), _constant_value(other)
        if a is not None and b is not None:
            if b == 0:
                raise ZeroDivisionError("division by zero rational function")
            return RationalFunction._of_constant(a / b)
        other = self._coerce(other)
        if other.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(_poly_mul(self.num, other.den),
                                _poly_mul(self.den, other.num))

    def __pow__(self, m: int):
        if m < 0:
            return RationalFunction((Fraction(1),)) / self ** (-m)
        out = RationalFunction((Fraction(1),))
        base = self
        while m:
            if m & 1:
                out = out * base
            base = base * base
            m >>= 1
        return out

    def __radd__(self, other):
        return self._coerce(other) + self

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __rmul__(self, other):
        return self._coerce(other) * self

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    @staticmethod
    def _coerce(x) -> "RationalFunction":
        if isinstance(x, RationalFunction):
            return x
        return RationalFunction.constant(_as_fraction(x))

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_value() == other
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        def fmt(c):
            if not c:
                return "0"
            terms = []
            for i, x in enumerate(c):
                if x == 0:
                    continue
                if i == 0:
                    terms.append(str(x))
                elif i == 1:
                    terms.append(f"{x}*T")
                else:
                    terms.append(f"{x}*T^{i}")
            return " + ".join(terms)

        if self.den == (Fraction(1),):
            return fmt(self.num)
        return f"({fmt(self.num)})/({fmt(self.den)})"


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

    def zero(self) -> FieldElement:
        if self.kind == "laurent":
            return RationalFunction(())
        return Fraction(0)

    def one(self) -> FieldElement:
        if self.kind == "laurent":
            return RationalFunction((Fraction(1),))
        return Fraction(1)

    def from_rational(self, x) -> FieldElement:
        x = _as_fraction(x)
        if self.kind == "laurent":
            return RationalFunction.constant(x)
        return x

    def uniformizer(self) -> FieldElement:
        if self.kind == "padic":
            return Fraction(self.prime)
        if self.kind == "laurent":
            return RationalFunction.variable()
        raise ValueError("trivial valuation has no uniformizer")

    def element(self, x) -> FieldElement:
        """Coerce x (rational, string, RationalFunction) into the field."""
        if isinstance(x, RationalFunction):
            if self.kind != "laurent":
                raise TypeError("rational functions only live in Laurent fields")
            return x
        return self.from_rational(x)

    # -- the absolute value ----------------------------------------------

    def abs(self, x: FieldElement) -> Magnitude:
        """|x|, exactly; multiplicative and ultrametric."""
        if self.kind == "laurent":
            if not isinstance(x, RationalFunction):
                x = RationalFunction.constant(_as_fraction(x))
            if x.is_zero:
                return Magnitude.zero(self.rho)
            return Magnitude._normalized(self.rho, _Q1, x.order())
        x = _as_fraction(x)
        if x == 0:
            return Magnitude.zero(self.rho)
        if self.kind == "trivial":
            return Magnitude.one(None)
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


def _prime_support(q: Fraction) -> set[int]:
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


def choose_laurent_base(values) -> int:
    """Smallest prime P such that no ratio of two of the given positive
    rationals is a nontrivial power-relation partner of P.

    A ratio r != 1 rules P out exactly when r = +-P^(a/b) for integers
    a, b, i.e. when the prime support of r is {P}: when |num(r) den(r)| is
    a power of P.  So each ratio rules out at most one prime, and the walk
    over P = 2, 3, 5, ... strips each candidate from each ratio (``_vp``)
    without factoring any of them.
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
    products = {abs(r.numerator * r.denominator) for r in (a / b for a in vals for b in vals)}
    products.discard(1)
    P = 2
    while not _is_prime(P) or any(x % P == 0 and P ** _vp(x, P) == x for x in products):
        P += 1
    return P
