"""Quotient metrics on O(1) over projective space and their diagnostics.

A metric is induced by a normed space on the degree-1 sections: at each
rational point the fiber carries the quotient norm.  Pointwise values
come from an exact closed formula; sup norms are weighted Gauss norms
after an exact change of variables into the orthogonal basis: Sym^n of the
frame's forms as dense integer columns (_SymPowers), which the Gauss spaces'
integer forms read without a Fraction basis.  The sigma diagnostic compares
those against the quotient metric, whose fibre norm is 1 / max_i |e_i(x)| / w_i
over an orthogonal basis, on the monomials at x that the metric steps up one
degree at a time; elimination is the test oracle.  Over Q(T) every frame entry
and point coordinate is a constant, read as its rational value by the same
integer kernels, which return Fractions over every field.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from math import gcd, lcm
from operator import mul
from typing import Dict, List, Optional, Sequence

from . import linalg
from .fields import Magnitude, ValuedField, _is_zero, _vp, magnitude_max
from .sections import (Section, Subvariety, _times_form, integer_evaluation_row,
                       monomial_basis, normalize_point, step_row)
from .spaces import NormedSpace, PreconditionError, _complete_flag, _weighted_max


@dataclass
class QuotientMetric:
    """Metric on O(1) over P^m induced by a norm on its global sections.

    ``base`` lives on the (m+1)-dimensional space of linear forms, in
    coordinates of the degree-1 monomial basis x_0, ..., x_m.
    """

    base: NormedSpace

    def __post_init__(self):
        # frame form i is basis column i; substitution form j, column j of B^-1
        rows = self.base._integer_form("inverse")  # refuses a singular basis
        L = lcm(*(d for _, d in rows))
        subst = [(col, L) for col in zip(*([x * (L // d) for x in r] for r, d in rows))]
        self._gauss_cache: Dict[int, NormedSpace] = {}
        self._frame_values: Dict[tuple, Magnitude] = {}
        self._rows: Dict[tuple, tuple] = {}  # point -> (a, D, n, degree-n row of a)
        self._sym = (_SymPowers(self.base.integer_columns(), self.base.weights),
                     _SymPowers(subst, [self.field.one_magnitude()] * self.num_vars))

    @property
    def field(self) -> ValuedField:
        return self.base.field

    @property
    def num_vars(self) -> int:
        return self.base.dim

    @property
    def m(self) -> int:
        return self.base.dim - 1

    # -- the orthogonal frame as linear forms ------------------------------

    def frame_forms(self) -> List[Section]:
        """The orthogonal basis vectors of ``base`` as degree-1 sections."""
        return [Section._dense(self.field, self.num_vars, 1, F, d)
                for F, d, _ in self._sym[0]._factors]

    def substitution(self) -> List[Section]:
        """Degree-1 sections u_i -> expression of x_j in the frame
        coordinates: x = (B^T)^{-1} u where columns of B are the frame."""
        return [Section._dense(self.field, self.num_vars, 1, F, d)
                for F, d, _ in self._sym[1]._factors]

    def to_frame_coordinates(self, s: Section) -> Section:
        """Rewrite s as a polynomial in the frame linear forms: returns a
        section whose variables are the frame coordinates u_i."""
        return _change_frame(self._sym[1], s)

    # -- pointwise metric ---------------------------------------------------

    def local_frame_value(self, point: Sequence) -> Magnitude:
        """D(x) = max_i |e_i(x~)| / ||e_i|| at the normalized representative;
        the degree-1 metric is |s|_h(x) = |s(x~)| / D(x)."""
        return self._frame_value(normalize_point(self.field, point))

    def _frame_value(self, point: Sequence) -> Magnitude:
        """D(x) at the representative given (not the zero vector), the dual norm
        of its degree-1 evaluation row; kept per point, as sigma reads it often."""
        pt = tuple(point)
        if pt not in self._frame_values:
            if all(map(_is_zero, pt)):
                raise PreconditionError("zero vector is not a projective point")
            row = linalg._integer_row(linalg._constants(pt))
            self._frame_values[pt] = _dual_norm(self.base, *row)
        return self._frame_values[pt]

    def _evaluation_row(self, n: int, point: Sequence) -> tuple:
        """The degree-n monomials at x = a / D as (integers, D^n), stepped up from the
        last degree kept for x; a lower one restarts.  At the frame values
        v = B^T x~ they are the values at x~ of the Gauss columns (v^e)."""
        pt = tuple(point)
        a, d, k, row = (self._rows.get(pt)
                        or (*linalg._integer_row(linalg._constants(pt)), 0, [1]))
        k, row = (k, row) if k <= n else (0, [1])
        for k in range(k, n):
            row = step_row(row, a, k)
        self._rows[pt] = a, d, n, row
        return row, d ** n

    def point_metric(self, s: Section, point: Sequence) -> Magnitude:
        """|s|_{h^n}(x) = |s(x)| / D(x)^n for a degree-n section s, at any
        representative of the point (``Subvariety`` points are normalized)."""
        if s.num_vars != self.num_vars:
            raise PreconditionError("section/metric dimension mismatch")
        frame_value, value = self._frame_value(point), s.evaluate(point)
        if not value:
            return self.field.zero_magnitude()
        return self.field.abs(value) / frame_value ** s.degree

    # -- sup norms (weighted Gauss) ------------------------------------------

    def sup_norm(self, s: Section) -> Magnitude:
        """Sup of |s|_{h^n} over the projective space: the weighted Gauss
        norm of s in the frame coordinates, the norm of the Gauss space."""
        if s.num_vars != self.num_vars:
            raise PreconditionError("section/metric dimension mismatch")
        return self.gauss_space(s.degree).norm(s.to_vector())

    def gauss_space(self, n: int) -> NormedSpace:
        """The degree-n sup norm as a NormedSpace on the coefficient
        vectors over monomial_basis(m, n): orthogonal basis = products of
        frame forms, weights = products of frame weights.  Only the last
        degree built is kept: the commands read the degrees in order."""
        if n not in self._gauss_cache:
            self._gauss_cache.clear()
            self._gauss_cache[n] = _GaussSpace(self, n)
        return self._gauss_cache[n]

    # -- restricted sup norms -------------------------------------------------

    def restricted_sup_norm(self, s: Section, Y: Subvariety) -> Magnitude:
        """Sup of |s|_{h^n} over Y: the largest point metric on a point set; on a
        linear Y, s in a flag frame whose first k forms cut out Y, weighted by Sym^n
        of the flag norms (``spaces._weighted_max``) off the monomials in those k."""
        if Y.kind == "points":
            vals = [self.point_metric(s, pt) for pt in Y.points]
            return magnitude_max(vals) if vals else self.field.zero_magnitude()
        # complete the forms (as vectors in the degree-1 space) to a flag
        g, norms = _complete_flag(self.base, Y.linear_forms)
        # rewrite s in the g-coordinates: x = (G^T)^{-1} u, G^T has rows g_j
        sym = _SymPowers(list(map(linalg._integer_row, linalg.invert(g))), norms)
        u = _change_frame(sym, s)
        # on Y the first k frame coordinates vanish; Gauss norm of the rest
        k = len(Y.linear_forms)
        taken = {i for i, e in enumerate(monomial_basis(self.m, s.degree)) if any(e[:k])}
        return _weighted_max(self.field, sym.columns(s.degree)[1], u.ints, u.den, taken)[1]


class _GaussSpace(NormedSpace):
    """The degree-n sup norm of a QuotientMetric (see gauss_space).

    The basis is Sym^n of the frame, its inverse Sym^n of the frame inverse
    (column k is x^{e_k} in the frame coordinates): dense integer
    ``_SymPowers`` columns P_e / D_e.  The integer forms read them directly,
    "basis" and "inverse" as rows over L = lcm(D_e); Fractions, over every
    field, are built only for the public ``basis`` and ``basis_inverse()``,
    which sigma, the lifts and the Laurent detour never read.
    """

    def __init__(self, metric: QuotientMetric, n: int):
        (frame, self._subst), self.field, self._n = metric._sym, metric.field, n
        self._basis, self._inverse, self._columns = None, None, None
        ints, self.weights = frame.columns(n)
        self._integer = {"columns": ints}

    @property
    def basis(self) -> List[list]:
        if self._basis is None:
            self._basis = linalg.transpose(self._fractions(self._integer["columns"]))
        return self._basis

    def basis_inverse(self) -> List[list]:
        if self._inverse is None:
            self._inverse = linalg.transpose(self._fractions(self._subst.columns(self._n)[0]))
        return self._inverse

    @staticmethod
    def _fractions(columns: List[tuple]) -> List[list]:
        """Integer columns (integers, d) as Fractions, one zero object."""
        zero = Fraction(0)
        return [[Fraction(v, d) if v else zero for v in c] for c, d in columns]

    def _integer_form(self, key: str) -> List[tuple]:
        """The rows of the frame columns ("basis") or of the substitution
        columns ("inverse") scaled to one denominator L = lcm(D_e); built once."""
        if key not in self._integer:
            cols = self._integer["columns"] if key == "basis" else self._subst.columns(self._n)[0]
            L = lcm(*(d for _, d in cols))
            self._integer[key] = [(row, L) for row in zip(*(
                [x * (L // d) for x in P] for P, d in cols))]
        return self._integer[key]


class _SymPowers:
    """Sym^n of linear forms f_j = F_j / d_j, given as integer pairs (F_j, d_j)
    over x_0..x_m, with weights w_j: column e = prod_j f_j^e_j = P_e / D_e, with
    P_e a dense integer list in monomial_basis order and D_e coprime to its
    content, is column e - delta_j of degree n - 1 times f_j (``_times_form``;
    weight times w_j), first j with e_j > 0: ``step_row`` blocks.  Keeps the
    last degree."""

    def __init__(self, forms: Sequence[tuple], weights: Sequence[Magnitude]):
        gs = [gcd(d, *F) for F, d in forms]  # each (F_j, d_j) as ``linalg._integer_row``
        self._factors = [([x // g for x in F], d // g, w)
                         for (F, d), g, w in zip(forms, gs, weights)]
        self._start = self._last = 0, [([1], 1, Magnitude.one(weights[0].rho))]

    def columns(self, n: int) -> tuple[List[tuple], List[Magnitude]]:
        """The degree-n columns in monomial_basis order as integer forms
        (P_e, D_e) = ``linalg._integer_row``, and their weights."""
        deg, prods = self._last if self._last[0] <= n else self._start
        for r in range(deg, n):
            prods = step_row(prods, self._factors, r, lambda f, c: self._times(f, c, r))
        self._last = n, prods
        return [(P, D) for P, D, _ in prods], [w for *_, w in prods]

    @staticmethod
    def _times(factor: tuple, column: tuple, n: int) -> tuple:
        """Column (P, D, w) of degree n times the form (F, d, w_j)."""
        (F, d, wj), (P, D, w) = factor, column
        P, D = _times_form(P, F, n), D * d
        g = gcd(D, *P)
        return ([v // g for v in P] if g > 1 else P), D // g, w * wj


def _change_frame(sym: _SymPowers, s: Section) -> Section:
    """s with x_j replaced by the form f_j of ``sym``: sum_e c_e P_e / D_e over
    its columns of degree deg(s), for s = c / den, in integers over
    den * lcm(D_e); no Fraction is built."""
    nv = len(sym._factors)
    if s.num_vars != nv:
        raise PreconditionError("section/metric dimension mismatch")
    cols, _ = sym.columns(s.degree)
    L = lcm(*(D for _, D in cols))
    w = [c * (L // D) for c, (_, D) in zip(s.ints, cols)]
    rows = zip(*(P for P, _ in cols))  # row k: coefficient k of every column
    return Section._dense(s.field, nv, s.degree, [sum(map(mul, r, w)) for r in rows], s.den * L)


# ----------------------------------------------------------------------
# Independent quotient-metric evaluation and the sigma diagnostic
# ----------------------------------------------------------------------


def _dual_norm(N: NormedSpace, w: Sequence, d_w: int = 1) -> Magnitude:
    """max_i |e_i(x)| / w_i, with e_i(x) basis column i of N applied to the
    rational row w / d_w (the dual norm of that functional): with column i =
    ints_i / d_i (``N.integer_columns()``), the weighted max of the sums
    ints_i . w (``spaces._weighted_max``) under the column weights
    1 / (|d_i| w_i), kept once per space, over |d_w|."""
    field, cols = N.field, N.integer_columns()
    if "dual" not in N._integer:  # 1 / (|d_i| w_i) = (den_i / num_i) rho^(-n_i - v_p(d_i))
        p = field.prime if field.kind == "padic" else None
        N._integer["dual"] = [Magnitude._normalized(field.rho, wt.den, wt.num,
                                                    -wt.n - (_vp(d, p) if p else 0))
                              for (_, d), wt in zip(cols, N.weights)]
    sums = [sum(map(mul, ints, w)) for ints, _ in cols]
    j, value = _weighted_max(field, N._integer["dual"], sums, d_w)
    if j is None:
        raise PreconditionError("evaluation functional vanishes identically")
    return value


def quotient_fiber_norm(N: NormedSpace, n: int, point: Sequence,
                        row: Optional[tuple] = None) -> Magnitude:
    """|1|^quot at the point for the norm N on degree-n sections: the
    minimum of N over {s : s(x) = 1}, at the representative x given
    (scaling x by c scales this by |c|^-n).  ``row``, when the caller keeps
    it, is the degree-n monomials at x (``QuotientMetric._evaluation_row``).

    With the orthogonal basis e_i of N and weights w_i this is the dual
    norm of evaluation, 1 / max_i |e_i(x)| / w_i (Bosch-Guentzer-Remmert,
    Non-Archimedean Analysis), the one-point case of ``extension._dual_lift``;
    exact elimination is the test oracle.  Each e_i(x) comes from the basis
    columns of N (``_dual_norm``), never from products of frame values,
    which would make sigma = 1 by construction.
    """
    row = row or integer_evaluation_row(n, point)
    return N.field.one_magnitude() / _dual_norm(N, *row)


def metric_gap(N: NormedSpace, h: QuotientMetric, n: int, point: Sequence) -> Magnitude:
    """|.|^quot_{(R_n, N)}(x) / |.|_{h^n}(x) as an exact magnitude ratio, at
    any representative: scaling it by c scales the dual norm of degree-n
    evaluation by |c|^n and D(x) by |c|, so the ratio does not move."""
    D = h._frame_value(point)  # refuses the zero vector; the h^n fiber norm of 1 is D^-n
    return quotient_fiber_norm(N, n, point, h._evaluation_row(n, point)) * D ** n


def sigma(h: QuotientMetric, n: int, point: Sequence) -> Magnitude:
    """The ratio |.|^quot_{h^n}(x) / |.|_{h^n}(x), always >= 1; equality
    (ratio exactly 1) is the semipositivity cross-check."""
    if n == 0:
        return h.field.one_magnitude()
    return metric_gap(h.gauss_space(n), h, n, point)


# ----------------------------------------------------------------------
# Gauss-norm attainment certificates
# ----------------------------------------------------------------------


def gauss_attainment_point(h: QuotientMetric, s: Section) -> List[Fraction]:
    """A rational point where |s|_{h^n}(x) equals the sup norm.

    Requires a p-adic field with p > deg(s) and a metric that is diagonal
    in the coordinates with weights that are powers of p.  The point is
    found by lifting a residue point where the (scaled) section does not
    vanish mod p; such a point exists because a nonzero polynomial of
    degree < p cannot vanish on all of P^m(F_p).
    """
    field, n, nv = h.field, s.degree, h.num_vars
    if field.kind != "padic":
        raise PreconditionError("attainment certificates require a p-adic field")
    p = field.prime
    if p <= n:
        raise PreconditionError("need residue characteristic p > degree")
    if h.base.basis != linalg.identity(nv):
        raise PreconditionError("attainment certificates require a diagonal metric")
    if any(w.num != 1 or w.den != 1 for w in h.base.weights):
        raise PreconditionError("weights must be powers of p")
    exps = [-w.n for w in h.base.weights]  # w = (1/p)^{w.n} = p^{-w.n}
    # change of variables x_i -> p^{e_i} x_i turns the metric orthonormal
    t = Section(field, nv, n, {e: c * Fraction(p) ** -sum(map(mul, e, exps))
                               for e, c in s.coeffs.items()})
    gauss = magnitude_max(field.abs(c) for c in t.coeffs.values())
    # normalize t to unit Gauss norm: divide by a coefficient attaining it
    unit = next(c for c in t.coeffs.values() if field.abs(c) == gauss)
    # residues of the coefficients: all in Z_(p), at least one a unit
    residues = [(x.numerator * pow(x.denominator, -1, p)) % p
                for x in t.scale(field.one() / unit).to_vector()]
    for lead in range(nv):
        for tail in iter_product(range(p), repeat=nv - lead - 1):
            pt = [0] * lead + [1, *tail]
            if sum(map(mul, residues, integer_evaluation_row(n, pt)[0])) % p:
                return [Fraction(x) * Fraction(p) ** -k for x, k in zip(pt, exps)]
    raise PreconditionError("no residue point found (section vanishes mod p)")
