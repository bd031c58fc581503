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
from functools import cached_property
from fractions import Fraction
from operator import mul
from typing import Dict, List, Optional, Tuple

from . import linalg
from .fields import (LaurentRationals, Magnitude, RationalFunction, ValuedField,
                     choose_laurent_base, magnitude_max)
from .metrics import QuotientMetric, _SymPowers
from .sections import Section, Subvariety, restriction_kernel
from .spaces import (NormedSpace, PreconditionError, _complete_flag, _eliminate_integer,
                     distance_to_subspace, lift_constant, scalar_extension)


@dataclass
class ExtensionProblem:
    metric: QuotientMetric
    Y: Subvariety
    representative: Section  # degree-1 section restricting to l

    def __post_init__(self):
        _check_representative(self.metric, self.representative.degree,
                              self.representative.num_vars)
        self._restricted_norm: Optional[Magnitude] = None
        self._ratio_cache: Dict[int, Magnitude] = {}
        self._frame_l: Optional[_SymPowers] = None  # l in the frame coordinates
        self._power = self.representative  # the last linear-Y l^n; l^(n+1) is one product

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

    @cached_property
    def _frame_points(self) -> List[tuple]:
        """The frame values B^T x~ at the points of Y, as integers up to one factor."""
        return [tuple(linalg._integer_row(linalg.mat_vec(self.metric.base.columns(), pt))[0])
                for pt in self.Y.points]

    def _frame_power_of_l(self, n: int) -> tuple:
        """l^n (n >= 1) in the frame coordinates as dense integers (P, D) with
        l^n = P / D in monomial_basis order: ``_SymPowers`` of the one form l,
        one ``_times_form`` step from l^(n-1); a lower degree restarts."""
        if self._frame_l is None:
            l = self.metric.to_frame_coordinates(self.representative)
            self._frame_l = _SymPowers([(l.ints, l.den)], [self.field.one_magnitude()])
        return self._frame_l.columns(n)[0][0]


def _check_representative(metric: QuotientMetric, degree: int, num_vars: int) -> None:
    """Refuse a representative that is not a linear form in the metric's
    variables; a config's is checked before its section is allocated."""
    if degree != 1:
        raise PreconditionError("representative must have degree 1")
    if num_vars != metric.num_vars:
        raise PreconditionError("representative/metric dimension mismatch")


def min_norm_lift(P: ExtensionProblem, n: int) -> Tuple[Section, Magnitude]:
    """The minimal-norm degree-n extension of l^n and the exact ratio
    ||s||_{h^n} / ||l||_{Y,h}^n.

    A point set Y is handled on the dual side (``_dual_lift``, one row
    psi_i[e] = v_i^e per point; dependent points drop out); a linear Y by
    the distance from l^n to the restriction kernel.
    """
    if n < 1:
        raise PreconditionError("degree must be >= 1")
    restricted = P.restricted_norm()
    N = P.metric.gauss_space(n)
    if P.Y.kind == "points":
        dist, s = _dual_lift(P, N, n)
    else:
        last = P._power
        P._power = last * P.representative if last.degree == n - 1 else P.representative ** n
        s0 = P._power.to_vector()
        dist, minimizer = distance_to_subspace(N, s0, restriction_kernel(P.Y, n))
        s = Section.from_vector(P.field, P.metric.m, n, [a - b for a, b in zip(s0, minimizer)])
    ratio = dist / restricted ** n
    P._ratio_cache[n] = ratio
    return s, ratio


def _dual_lift(P: ExtensionProblem, N: NormedSpace, n: int) -> Tuple[Magnitude, Section]:
    """The distance from l^n to the degree-n sections vanishing on the
    points x~_i of Y, and a section restricting to l^n that attains it.

    In the orthogonal coordinates of N (the gauss space), l^n has the
    coordinates a of l^n rewritten in the frame, and the sections vanishing
    on Y are the common kernel W of the psi_i, psi_i[e] = e(x~_i) for each
    column e of N.  The quotient norm modulo W is the dual of the dual norm
    (weights 1/w_e) on W^perp = span(psi_i) (Bosch-Guentzer-Remmert,
    Non-Archimedean Analysis).  Orthogonal elimination of the psi_i under
    the dual weights drops the rows of dependent points (as when k > dim)
    and gives rows psi'_i with pivots p_i, and

        dist = max_i |psi'_i(a)| / ||psi'_i||*.

    Row i vanishes at the pivots of the rows before it, so c supported on
    the pivots with psi'_i(c) = psi'_i(a) comes from one back-substitution;
    it is the combination of the dual basis of the psi'_i, so its norm is
    dist, and the lift is the sum of c_p times the pivot columns of N.

    Column e of N is prod_t f_t^e_t over the frame forms, so psi_i[e] = v_i^e
    at the frame values v_i = B^T x~_i: the monomials that the metric steps
    up one degree per call (``_evaluation_row``), one (integers, D^n) row
    that may be scaled without moving dist or c.  Fractions are built only
    for dist and the back-substitution; the lift is integers over one
    denominator.
    """
    field = P.field
    a, d_a = P._frame_power_of_l(n)
    psi = [P.metric._evaluation_row(n, v) for v in P._frame_points]
    pivots, norms = _eliminate_integer(field, N.dual_weights(), psi, drop=True)
    targets = [sum(map(mul, r, a)) for r, _ in psi]  # psi'_i(a) = target / (d_i d_a)
    dist = magnitude_max(field.abs(Fraction(t, d * d_a)) / norm
                         for t, (_, d), norm in zip(targets, psi, norms))
    c = {}
    for i in reversed(range(len(psi))):
        r, j = psi[i][0], pivots[i]
        acc = Fraction(targets[i], d_a) - sum(r[k] * c[k] for k in pivots[i + 1:])
        c[j] = acc / r[j]
    cols = [N.integer_columns()[j] for j in pivots]  # the lift: sum of c_p P_p / D_p
    w, d_w = linalg._integer_row([c[j] / d for j, (_, d) in zip(pivots, cols)])
    lift = [sum(map(mul, w, e)) for e in zip(*(P_j for P_j, _ in cols))]
    return dist, Section._dense(field, P.metric.num_vars, n, lift, d_w)


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
