"""Minimal-sup-norm extension of restricted sections.

Given a quotient metric h on O(1), a subvariety Y, and a restricted
degree-1 section l (by a representative), the engine computes for each
degree n the minimal degree-n sup norm of a section restricting to
l^n on Y, as an exact ratio a_n-exponential

    ratio_n = min { ||s||_{h^n} : s|_Y = l^n } / ||l||_{Y,h}^n  >=  1.

It also runs the trivial-valuation algorithm through a Laurent-field
scalar extension, and decides the e^{n*eps} extension bound exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Dict, List, Optional, Tuple

from . import linalg
from .fields import (LaurentRationals, Magnitude, RationalFunction, ValuedField,
                     choose_laurent_base, magnitude_max)
from .metrics import QuotientMetric
from .sections import Section, Subvariety, restriction_kernel
from .spaces import (NormedSpace, PreconditionError, _complete_flag, _eliminate_integer,
                     distance_to_subspace, lift_constant, scalar_extension)


@dataclass
class ExtensionProblem:
    metric: QuotientMetric
    Y: Subvariety
    representative: Section  # degree-1 section restricting to l

    def __post_init__(self):
        if self.representative.degree != 1:
            raise PreconditionError("representative must have degree 1")
        if self.representative.num_vars != self.metric.num_vars:
            raise PreconditionError("representative/metric dimension mismatch")
        self._restricted_norm: Optional[Magnitude] = None
        self._ratio_cache: Dict[int, Magnitude] = {}
        self._frame_l: Optional[Section] = None  # l in the frame coordinates
        self._frame_power: Tuple[int, Optional[Section]] = (0, None)  # (k, l^k)

    @property
    def field(self) -> ValuedField:
        return self.metric.field

    def restricted_norm(self) -> Magnitude:
        """||l||_{Y,h}; must be positive (l nonzero on Y)."""
        if self._restricted_norm is None:
            val = self.metric.restricted_sup_norm(self.representative, self.Y)
            if val.is_zero:
                raise PreconditionError("restricted section vanishes on Y")
            self._restricted_norm = val
        return self._restricted_norm

    def _frame_power_of_l(self, n: int) -> Section:
        """l^n (n >= 1) in the frame coordinates, one product from l^(n-1) like
        the one-degree Gauss cache; a lower degree restarts from l."""
        if self._frame_l is None:
            self._frame_l = self.metric.to_frame_coordinates(self.representative)
        k, power = self._frame_power if 0 < self._frame_power[0] <= n else (1, self._frame_l)
        for _ in range(k, n):
            power = power * self._frame_l
        self._frame_power = n, power
        return power


def min_norm_lift(P: ExtensionProblem, n: int) -> Tuple[Section, Magnitude]:
    """The minimal-norm degree-n extension of l^n and the exact ratio
    ||s||_{h^n} / ||l||_{Y,h}^n.

    A point set Y is handled on the dual side (``_dual_lift``); a linear
    Y by the distance from l^n to the restriction kernel.
    """
    if n < 1:
        raise PreconditionError("degree must be >= 1")
    restricted = P.restricted_norm()
    N = P.metric.gauss_space(n)
    if P.Y.kind == "points":
        dist, vec = _dual_lift(P, N, n)
    else:
        s0 = (P.representative ** n).to_vector()
        dist, minimizer = distance_to_subspace(N, s0, restriction_kernel(P.Y, n))
        vec = [a - b for a, b in zip(s0, minimizer)]
    s = Section.from_vector(P.field, P.metric.m, n, vec)
    ratio = dist / restricted ** n
    P._ratio_cache[n] = ratio
    return s, ratio


def _dual_lift(P: ExtensionProblem, N: NormedSpace, n: int) -> Tuple[Magnitude, list]:
    """The distance from l^n to the degree-n sections vanishing on the
    points x~_i of Y, and a section restricting to l^n that attains it.

    In the orthogonal coordinates of N (the gauss space), l^n has the
    coordinates a of l^n rewritten in the frame, and the sections vanishing
    on Y are the common kernel W of psi_i with psi_i[j] = e_j(x~_i).  The
    quotient norm on the coordinates modulo W is the dual of the dual norm
    (weights 1/w_j) on W^perp = span(psi_i) (Bosch-Guentzer-Remmert,
    Non-Archimedean Analysis).  Orthogonal elimination of the independent
    psi_i under the dual weights gives rows psi'_i with pivots p_i, and

        dist = max_i |psi'_i(a)| / ||psi'_i||*.

    Row i vanishes at the pivots of the rows before it, so c supported on
    the pivots with psi'_i(c) = psi'_i(a) comes from one back-substitution;
    it is the combination of the dual basis of the psi'_i, so its norm is
    dist.  The lift is N.basis c.

    Each psi_i is one (integers, L D^n) row: column j of N is P_j / d_j
    (``N.integer_columns()``), L = lcm(d_j), and the kept monomials at x~_i
    are w / D^n, so psi_i = (P_j . w) (L / d_j) / (L D^n).  The elimination
    keeps that form, psi'_i(a) is one integer dot product with the integer
    row of a, and Fractions are built only for dist and in the
    back-substitution, where the denominator of psi'_i cancels.
    """
    field = P.field
    a, d_a = linalg._integer_row(P._frame_power_of_l(n).to_vector())
    # the monomials at x~_i as w / D^n kept by the metric
    rows = [P.metric._evaluation_row(n, pt) for pt in P.Y.points]
    # k points can impose fewer than k conditions (k > dim at low degree)
    kept = linalg.extend_basis([], [r[0] for r in rows], N.dim)  # D^n moves no rank
    cols = N.integer_columns()
    L = lcm(*(d for _, d in cols))
    cols = [(P_j, L // d) for P_j, d in cols]
    psi = [([sum(map(mul, P_j, w)) * s for P_j, s in cols], L * dn)
           for w, dn in (rows[i] for i in kept)]
    dual_weights = [field.one_magnitude() / w for w in N.weights]
    pivots, norms = _eliminate_integer(field, dual_weights, psi)
    targets = [sum(map(mul, r, a)) for r, _ in psi]  # psi'_i(a) = target / (d_i d_a)
    dist = magnitude_max(field.abs(Fraction(t, d * d_a)) / norm
                         for t, (_, d), norm in zip(targets, psi, norms))
    c = [Fraction(0)] * N.dim
    for i in reversed(range(len(psi))):
        r, j = psi[i][0], pivots[i]
        acc = Fraction(targets[i], d_a) - sum(r[k] * c[k] for k in pivots[i + 1:])
        c[j] = acc / r[j]
    return dist, N.from_coordinates(c)


def ratio_sequence(P: ExtensionProblem, n_max: int) -> List[Magnitude]:
    return [P._ratio_cache[n] if n in P._ratio_cache else min_norm_lift(P, n)[1]
            for n in range(1, n_max + 1)]


def extend_trivial_via_laurent(P: ExtensionProblem, n: int) -> Tuple[Section, Magnitude]:
    """The trivial-valuation extension algorithm routed through a Laurent
    scalar extension.

    (i) collect the finite value set of the degree-n norm, (ii) choose a
    base prime avoiding multiplicative relations, (iii) extend scalars,
    (iv) minimize the norm over the extension, (v) expand the result in
    an orthogonal basis whose initial segment spans the restriction
    kernel, drop the kernel coordinates, and assemble the answer over the
    base field from the rest.  Those are T-free by construction: Q(T) holds
    constants only, and the kernels return them as Fractions, so the
    descent reads them directly and cannot fail.
    """
    field = P.field
    if field.kind != "trivial":
        raise PreconditionError("Laurent-path extension requires the trivial valuation")
    if n == 0:
        one = Section.monomial(field, (0,) * P.metric.num_vars)
        return one, field.one_magnitude()
    N = P.metric.gauss_space(n)
    values = N.norm_value_set()
    prime = choose_laurent_base(values)
    ext_field = LaurentRationals(prime)
    NL = scalar_extension(N, ext_field)

    s0 = (P.representative ** n).to_vector()
    ker = restriction_kernel(P.Y, n)
    s0_L = [RationalFunction(x) for x in s0]
    ker_L = lift_constant(ker)
    _, minimizer = distance_to_subspace(NL, s0_L, ker_L)
    s_prime = [a - b for a, b in zip(s0, minimizer)]

    # orthogonal basis of the base space adapted to the kernel (kernel first)
    dim = N.dim
    g, _ = _complete_flag(N, ker)
    d = len(ker)
    # expand s' in the g basis over the extension; the frame is rational,
    # so its inverse is taken over Q
    g_inverse = linalg.invert([[g[j][i] for j in range(dim)] for i in range(dim)])
    coords = linalg.mat_vec(g_inverse, s_prime)
    vec = [field.zero()] * dim
    for i in range(d, dim):
        c = coords[i]
        if c:
            vec = [a + c * b for a, b in zip(vec, g[i])]
    s = Section.from_vector(field, P.metric.m, n, vec)
    ratio = N.norm(vec) / P.restricted_norm() ** n
    return s, ratio


def _exceeds_exp(value: Fraction, bound: Fraction) -> bool:
    """Exact decision of value > e^bound for positive rational value and
    rational bound, by a Fraction-only certificate.

    For b > 0 the Taylor partial sums L_K = sum_{k <= K} b^k / k! obey
    L_K < e^b < L_K + t / (1 - b/(K+2)) with t = b^(K+1) / (K+1)! once
    K + 2 > b, since the tail is dominated by a geometric series of ratio
    b/(K+2).  K grows until value falls outside that bracket, which ends
    because e^b is irrational for rational b != 0.  A negative bound
    compares 1/value with e^-bound.
    """
    if value <= 0:
        raise PreconditionError("value must be positive")
    if bound == 0:
        return value > 1
    if bound < 0:
        return not _exceeds_exp(1 / value, -bound)
    partial = term = Fraction(1)
    k = 0
    while value > partial:
        term = term * bound / (k + 1)
        if k + 2 > bound and value > partial + term / (1 - bound / (k + 2)):
            return True
        partial += term
        k += 1
    return False


def check_extension_theorem(P: ExtensionProblem, epsilon: Fraction,
                            n_max: int) -> dict:
    """Per-degree report of ratio_n <= e^{n*epsilon} and the first n0
    such that the bound holds for every n in [n0, n_max]."""
    if epsilon < 0:
        raise PreconditionError("epsilon must be non-negative")
    ratios = ratio_sequence(P, n_max)
    ok = [not _exceeds_exp(r.value(), Fraction(n) * epsilon)
          for n, r in enumerate(ratios, start=1)]
    n0 = None
    for n in range(1, n_max + 1):
        if all(ok[n - 1:]):
            n0 = n
            break
    return {"ratios": ratios, "holds": ok, "first_n0": n0}
