"""Quotient metrics on O(1), Gauss sup norms, the sigma diagnostic."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce
from operator import add, mul

import pytest

from ultranorm import (LaurentRationals, NormedSpace, PadicRationals,
                       PreconditionError, TrivialRationals, linalg)
from ultranorm.extension import ExtensionProblem, extend_trivial_via_laurent, min_norm_lift
from ultranorm.metrics import (QuotientMetric, _change_frame, _GaussSpace, _SymPowers,
                               _dual_norm, _times_form, gauss_attainment_point, metric_gap,
                               quotient_fiber_norm, sigma)
from ultranorm.fields import Magnitude, RationalFunction, magnitude_max
from ultranorm.sections import Section, Subvariety, monomial_basis, normalize_point
from ultranorm.spaces import distance_to_subspace, lift_constant, scalar_extension
from dict_sections import polynomial_product
from test_sections import evaluation_row
from test_spaces import basis_times

F = Fraction


def diag_metric(field, weights):
    dim = len(weights)
    basis = [[F(1) if i == j else F(0) for j in range(dim)]
             for i in range(dim)]
    space = NormedSpace(field, basis,
                        [field.magnitude(w) for w in weights])
    return QuotientMetric(space)


def random_space(rng, field, dim):
    """A norm with a random invertible, generally non-diagonal basis."""
    while True:
        basis = [[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(dim)]
                 for _ in range(dim)]
        if linalg.rank(basis) == dim:
            break
    weights = [field.magnitude(rng.choice([F(1), F(2), F(1, 3), F(6), F(5, 4)]))
               for _ in range(dim)]
    return NormedSpace(field, basis, weights)


def wide_space(rng, field, dim):
    """A non-diagonal norm whose basis has zeros and denominators above
    2^64."""
    while True:
        basis = [[F(rng.randint(-3, 3), rng.choice([1, 2, 3, 2 ** 64 + rng.randint(1, 9)]))
                  for _ in range(dim)] for _ in range(dim)]
        if linalg.rank(basis) == dim:
            break
    weights = [field.magnitude(rng.choice([F(1), F(2), F(1, 3), F(6)]))
               for _ in range(dim)]
    return NormedSpace(field, basis, weights)


def random_point(rng, nv):
    while True:
        pt = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(nv)]
        if any(pt):
            return pt


FIELDS = [PadicRationals(2), PadicRationals(3), TrivialRationals()]


def assert_t_cannot_be_built(K):
    """T, the one generator of Q(T) that is no constant, has no maker: the
    refusal that stands in for the kernels' own."""
    with pytest.raises(ValueError, match="^the laurent field has no uniformizer element$"):
        K.uniformizer()
    with pytest.raises(TypeError, match="exact rational"):
        RationalFunction((F(0), F(1)))


def _evaluation_row_products(field, m, n, point):
    """The degree-n monomials at point by repeated field products: the
    oracle for the integer evaluation rows."""
    return [Section.monomial(field, e).evaluate(point) for e in monomial_basis(m, n)]


def _change_frame_products(forms, sections):
    """Each section with x_j replaced by forms[j], by Section products over
    any coefficient field: the oracle for the ``_SymPowers`` change of frame."""
    field, nv = forms[0].field, len(forms)
    one = Section.monomial(field, (0,) * nv)
    powers = [[one] for _ in range(nv)]
    out = []
    for s in sections:
        total = Section.zero(field, nv, s.degree)
        for e, c in s.coeffs.items():
            term = one.scale(c)
            for j, k in enumerate(e):
                while len(powers[j]) <= k:
                    powers[j].append(powers[j][-1] * forms[j])
                if k:
                    term = term * powers[j][k]
            total = total + term
        out.append(total)
    return out


class TestPointMetric:
    def test_frozen_p1_values(self):
        Q2 = PadicRationals(2)
        h = diag_metric(Q2, [F(1), F(1, 2)])
        x = Section.monomial(Q2, (1, 0))
        y = Section.monomial(Q2, (0, 1))
        # at [1:1]: D = max(|1|/1, |1|/(1/2)) = 2
        assert h.point_metric(x, [F(1), F(1)]).value() == F(1, 2)
        assert h.point_metric(y, [F(1), F(1)]).value() == F(1, 2)

    def test_scaling_invariance(self):
        Q3 = PadicRationals(3)
        h = diag_metric(Q3, [F(1), F(3)])
        s = Section.monomial(Q3, (1, 1))
        a = h.point_metric(s, [F(1), F(2)])
        b = h.point_metric(s, [F(3), F(6)])
        assert a == b

    @pytest.mark.parametrize("field", FIELDS, ids=lambda K: f"{K.kind}{K.prime or ''}")
    def test_frame_value_of_scaled_representatives(self, field):
        rng = random.Random(f"frame-value/{field.kind}{field.prime}")
        space = random_space(rng, field, 3)
        h = QuotientMetric(space)
        for _ in range(10):
            pt = random_point(rng, 3)
            scale = F(rng.choice([-1, 1]) * rng.randint(1, 12), rng.randint(1, 12))
            first = h.local_frame_value(pt)
            # the second call on the same metric reads the kept value
            assert h.local_frame_value([scale * x for x in pt]) == first
            assert QuotientMetric(space).local_frame_value(
                [scale * x for x in pt]) == first


class TestChangeFrame:
    """The change of frame through ``_SymPowers`` against the Section-product
    loop it replaced."""

    @staticmethod
    def random_form(rng, field, nv, big):
        coeffs = {}
        for i in range(nv):
            if rng.random() < 0.3:
                continue  # a zero coefficient
            den = rng.randint(1, 10 ** 12) if big else rng.randint(1, 6)
            coeffs[tuple(int(k == i) for k in range(nv))] = F(
                rng.randint(-10 ** 9, 10 ** 9) if big else rng.randint(-5, 5), den)
        return Section(field, nv, 1, coeffs)

    @pytest.mark.parametrize("big", [False, True], ids=["small", "large_denominators"])
    @pytest.mark.parametrize("nv", [2, 3])
    def test_equals_section_products(self, nv, big):
        Q3 = PadicRationals(3)
        rng = random.Random(f"change-frame/{nv}/{big}")
        for _ in range(6):
            forms = [self.random_form(rng, Q3, nv, big) for _ in range(nv)]
            sections = [Section.zero(Q3, nv, 2), Section.zero(Q3, nv, 0),
                        Section.monomial(Q3, (0,) * nv, F(-7, 4))]
            for n in (1, 2, 3):
                exps = monomial_basis(nv - 1, n)
                sections.append(Section(Q3, nv, n, {
                    e: F(rng.randint(-4, 4), rng.randint(1, 9))
                    for e in rng.sample(exps, min(len(exps), 4))}))
                sections += [Section.monomial(Q3, e) for e in exps]
            # one _SymPowers for every degree, in the order the sections come
            sym = _SymPowers([(f.ints, f.den) for f in forms], [Q3.one_magnitude()] * nv)
            got = [_change_frame(sym, s) for s in sections]
            assert got == _change_frame_products(forms, sections)
            assert all(s.degree == t.degree for s, t in zip(got, sections))

    def test_laurent_constants_match_rationals(self):
        # a Laurent-field config keeps rational frames but lifts section
        # coefficients to Q(T): the change of frame gives Fractions back
        K = LaurentRationals(3)
        rng = random.Random("change-frame/laurent")
        forms = [self.random_form(rng, K, 2, False) for _ in range(2)]
        rational = Section(K, 2, 2, {(2, 0): F(1, 2), (1, 1): F(-3), (0, 2): F(5, 7)})
        lifted = Section(K, 2, 2, {e: K.element(c) for e, c in rational.coeffs.items()})
        ones = [K.one_magnitude()] * 2
        factors = [(f.ints, f.den) for f in forms]
        want = _change_frame(_SymPowers(factors, ones), rational)
        got = _change_frame(_SymPowers(factors, ones), lifted)
        assert got.coeffs == want.coeffs
        assert all(type(c) is F for c in got.coeffs.values())
        assert got == _change_frame_products(forms, [lifted])[0]

    @pytest.mark.parametrize("nv", [1, 3])
    def test_wrong_arity_sections_are_refused(self, nv):
        # refused, not read as Magnitude(1), an IndexError or a 2-variable rewrite
        Q2 = PadicRationals(2)
        h = QuotientMetric(random_space(random.Random("arity"), Q2, 2))
        s = Section.monomial(Q2, (1,) + (0,) * (nv - 1))
        Y = Subvariety(Q2, 2, linear_forms=[[F(1), F(2)]])
        for call in (h.to_frame_coordinates, h.sup_norm,
                     lambda s: h.restricted_sup_norm(s, Y)):
            with pytest.raises(PreconditionError, match="section/metric dimension mismatch"):
                call(s)


class TestGaussNorm:
    def test_frozen_sup_norms(self):
        Q2 = PadicRationals(2)
        h = diag_metric(Q2, [F(1), F(1)])
        x = Section.monomial(Q2, (1, 0))
        y = Section.monomial(Q2, (0, 1))
        assert h.sup_norm((x + y) * (x + y)).value() == 1
        assert h.sup_norm(x * y).value() == 1
        two_xy = x * y + x * y
        assert h.sup_norm(two_xy).value() == F(1, 2)

    def test_multiplicativity_random(self):
        rng = random.Random(2)
        Q3 = PadicRationals(3)
        h = diag_metric(Q3, [F(1), F(3)])
        from ultranorm.sections import monomial_basis
        for _ in range(50):
            n1, n2 = rng.randint(1, 3), rng.randint(1, 3)
            s = Section.from_vector(Q3, 1, n1,
                                    [F(rng.randint(-9, 9))
                                     for _ in monomial_basis(1, n1)])
            t = Section.from_vector(Q3, 1, n2,
                                    [F(rng.randint(-9, 9))
                                     for _ in monomial_basis(1, n2)])
            if not s.coeffs or not t.coeffs:
                continue
            assert h.sup_norm(s * t) == h.sup_norm(s) * h.sup_norm(t)

    def test_pointwise_below_sup(self):
        rng = random.Random(4)
        Q2 = PadicRationals(2)
        h = diag_metric(Q2, [F(1), F(2)])
        from ultranorm.sections import monomial_basis
        for _ in range(20):
            n = rng.randint(1, 4)
            s = Section.from_vector(Q2, 1, n,
                                    [F(rng.randint(-9, 9))
                                     for _ in monomial_basis(1, n)])
            if not s.coeffs:
                continue
            sup = h.sup_norm(s)
            for _ in range(20):
                pt = [F(rng.randint(-9, 9)), F(rng.randint(-9, 9))]
                if all(x == 0 for x in pt):
                    continue
                assert h.point_metric(s, pt) <= sup

    def test_attainment_for_large_prime(self):
        Q5 = PadicRationals(5)
        h = diag_metric(Q5, [F(1), F(1)])
        x = Section.monomial(Q5, (1, 0))
        y = Section.monomial(Q5, (0, 1))
        s = x * x + y * y  # degree 2 < 5
        pt = gauss_attainment_point(h, s)
        assert h.point_metric(s, pt) == h.sup_norm(s)

    def test_attainment_with_weights(self):
        Q5 = PadicRationals(5)
        h = diag_metric(Q5, [F(1), F(5)])
        x = Section.monomial(Q5, (1, 0))
        y = Section.monomial(Q5, (0, 1))
        s = x * y + x * x
        pt = gauss_attainment_point(h, s)
        assert h.point_metric(s, pt) == h.sup_norm(s)


class TestSigma:
    def test_sigma_is_one_on_projective_space(self):
        rng = random.Random(8)
        for p, m in ((2, 1), (3, 1), (2, 2)):
            field = PadicRationals(p)
            weights = [F(p) ** rng.randint(-1, 1) for _ in range(m + 1)]
            h = diag_metric(field, weights)
            for n in (1, 2, 3):
                for _ in range(5):
                    pt = [F(rng.randint(-5, 5)) for _ in range(m + 1)]
                    if all(x == 0 for x in pt):
                        continue
                    assert sigma(h, n, pt).value() == 1

    def test_metric_gap_scales_with_norm(self):
        # independent oracle: scaling all weights leaves sigma at 1
        Q2 = PadicRationals(2)
        h = diag_metric(Q2, [F(2), F(2)])
        assert sigma(h, 2, [F(1), F(3)]).value() == 1


class TestQuotientFiberNorm:
    @staticmethod
    def elimination(N, field, m, n, pt):
        """The coset minimization: distance from one solution of
        s(x~) = 1 to the kernel of evaluation."""
        row = evaluation_row(n, normalize_point(field, pt))
        i = next(i for i, x in enumerate(row) if x != 0)
        s0 = [field.zero()] * len(row)
        s0[i] = field.one() / row[i]
        return distance_to_subspace(N, s0, linalg.kernel_basis([row]))[0]

    @pytest.mark.parametrize("field", FIELDS, ids=lambda K: K.kind + str(K.prime))
    @pytest.mark.parametrize("m", [1, 2])
    def test_closed_form_equals_elimination(self, field, m):
        rng = random.Random(31 * m + (field.prime or 0))
        for n in (1, 2, 3):
            dim = len(monomial_basis(m, n))
            h = QuotientMetric(random_space(rng, field, m + 1))
            spaces = [h.gauss_space(n), random_space(rng, field, dim)]
            for N in spaces:
                for _ in range(3):
                    pt = random_point(rng, m + 1)
                    assert (quotient_fiber_norm(N, n, normalize_point(field, pt))
                            == self.elimination(N, field, m, n, pt))

    @staticmethod
    def mat_vec_route(N, field, m, n, pt, mat_vec=linalg.mat_vec):
        """1 / max_i |e_i(x~)| / w_i with e_i(x~) from the Fraction row and
        ``mat_vec`` over the basis columns."""
        values = mat_vec(N.columns(), _evaluation_row_products(field, m, n, pt))
        return field.one_magnitude() / max(
            field.abs(v) / w for v, w in zip(values, N.weights) if v != 0)

    @pytest.mark.parametrize("field", FIELDS, ids=lambda K: K.kind + str(K.prime))
    def test_integer_columns_equal_mat_vec_route(self, field):
        rng = random.Random(f"integer-columns/{field.kind}{field.prime}")
        big = 2 ** 64
        for m in (1, 2):
            for n in (1, 2, 3):
                dim = len(monomial_basis(m, n))
                h = QuotientMetric(wide_space(rng, field, m + 1))
                for N in (h.gauss_space(n), wide_space(rng, field, dim)):
                    assert [[F(x, d) for x in ints] for ints, d in
                            N.integer_columns()] == N.columns()
                    for _ in range(4):
                        pt = random_point(rng, m + 1)
                        pt[rng.randrange(m + 1)] = F(0)  # a zero coordinate
                        if not any(pt):
                            pt[0] = F(rng.randint(1, 9), big + rng.randint(1, 9))
                        x = normalize_point(field, pt)
                        assert (quotient_fiber_norm(N, n, x)
                                == self.mat_vec_route(N, field, m, n, x)
                                == self.elimination(N, field, m, n, pt))

    def test_non_constant_laurent_space_is_refused(self):
        """A space or a point holding T cannot be built; a space of
        constants of Q(T) with weights off rho^0 matches both oracles."""
        rng = random.Random("laurent-fiber")
        K = LaurentRationals(5)
        assert_t_cannot_be_built(K)
        for n in (1, 2):
            base = random_space(rng, TrivialRationals(), n + 1)
            weights = [K.magnitude(w.q, 1) for w in base.weights]
            N = NormedSpace(K, lift_constant(base.basis), weights)
            for _ in range(3):
                pt = [RationalFunction(x) for x in random_point(rng, 2)]
                x = normalize_point(K, pt)
                assert (quotient_fiber_norm(N, n, x)
                        == self.mat_vec_route(N, K, 1, n, x)
                        == self.elimination(N, K, 1, n, pt))

    def test_constant_laurent_space_takes_the_integer_kernel(self, monkeypatch):
        rng = random.Random("laurent-fiber/constant")
        K = LaurentRationals(5)

        def loop_mat_vec(a, v):
            return [reduce(add, map(mul, row, v)) for row in a]

        for n in (1, 2):
            base = random_space(rng, TrivialRationals(), n + 1)
            N = scalar_extension(base, K)
            assert N.integer_columns() == base.integer_columns()
            for _ in range(3):
                pt = [RationalFunction(x) for x in random_point(rng, 2)]
                x = normalize_point(K, pt)
                want = self.mat_vec_route(N, K, 1, n, x, loop_mat_vec)
                assert want == self.elimination(N, K, 1, n, pt)
                with monkeypatch.context() as m:
                    m.setattr(linalg, "mat_vec", None)  # the integer columns only
                    assert quotient_fiber_norm(N, n, x) == want

    @pytest.mark.parametrize("field", FIELDS, ids=lambda K: K.kind + str(K.prime))
    def test_sigma_and_metric_gap_at_scaled_points(self, field):
        rng = random.Random(f"scaled/{field.kind}{field.prime}")
        h = QuotientMetric(random_space(rng, field, 3))
        scalars = [F(-1), F(2), F(1, 3), F(-12, 5), F(2 ** 70 + 1, 7)]
        for n in (1, 2, 3):
            N = wide_space(rng, field, len(monomial_basis(2, n)))
            for _ in range(3):
                pt = random_point(rng, 3)
                want_sigma, want_gap = sigma(h, n, pt), metric_gap(N, h, n, pt)
                for lam in scalars:
                    scaled = [lam * x for x in pt]
                    assert sigma(h, n, scaled) == want_sigma
                    assert metric_gap(N, h, n, scaled) == want_gap
                    assert metric_gap(N, h, n, scaled) == metric_gap(
                        N, QuotientMetric(h.base), n, scaled)

    @pytest.mark.parametrize("field", FIELDS + [LaurentRationals(3)],
                             ids=lambda K: K.kind + str(K.prime))
    def test_zero_point_is_not_a_projective_point(self, field):
        h = diag_metric(field, [F(1), F(1, 2)])
        zeros = [[F(0), F(0)], [0, 0], [field.zero(), field.zero()]]
        for n in (1, 2):
            for zero in zeros:
                for call in (lambda: metric_gap(h.gauss_space(n), h, n, zero),
                             lambda: sigma(h, n, zero)):
                    with pytest.raises(PreconditionError,
                                       match="^zero vector is not a projective point$"):
                        call()

    @pytest.mark.parametrize("field", FIELDS + [LaurentRationals(3)],
                             ids=lambda K: K.kind + str(K.prime))
    def test_point_metric_refuses_the_zero_vector(self, field):
        # degree 0 used to fail inside the dual norm, degree >= 1 gave 0
        h = diag_metric(field, [F(1), F(1, 2)])
        zeros = [[F(0), F(0)], [0, 0], [field.zero(), field.zero()]]
        for n in (0, 1, 2):
            s = Section.monomial(field, (n, 0), 3)
            for zero in zeros:
                with pytest.raises(PreconditionError,
                                   match="^zero vector is not a projective point$"):
                    h.point_metric(s, zero)
            # |3 x_0^n| / D^n at (2 : 0), D = |2| / 1
            assert h.point_metric(s, [F(2), F(0)]) == field.abs(F(3))

    def test_vanishing_evaluation_is_a_precondition(self):
        Q2 = PadicRationals(2)
        # every basis vector lies in the kernel of evaluation at (1 : 0)
        N = NormedSpace(Q2, [[F(0), F(0)], [F(1), F(2)]],
                        [Q2.one_magnitude()] * 2)
        with pytest.raises(PreconditionError):
            quotient_fiber_norm(N, 1, [F(1), F(0)])


def division_oracle(N, values):
    """max_i |v_i| / w_i by one Magnitude division per nonzero value: the
    loop that ``_dual_norm`` replaced."""
    best = N.field.zero_magnitude()
    for v, w in zip(values, N.weights):
        if v != 0:
            best = max(best, N.field.abs(v) / w)
    if best.is_zero:
        raise PreconditionError("evaluation functional vanishes identically")
    return best


def column_values(N, row):
    """(column i of N) . row by field arithmetic, one value per column."""
    return [sum((c * x for c, x in zip(col, row)), N.field.zero())
            for col in N.columns()]


class TestDualNormKernel:
    """``_dual_norm`` (valuations compared in integers, one Magnitude per
    call) against the Magnitude-division loop on the same values."""

    QS = [F(1), F(3, 5), F(7, 4), F(2 ** 70 + 1)]
    NS = [0, 1, -1, 4096, -4096]

    def space(self, rng, field, dim):
        while True:
            basis = [[F(rng.choice([0, 0, rng.randint(-9, 9)]), rng.choice([1, 2, 3, 5]))
                      for _ in range(dim)] for _ in range(dim)]
            if linalg.rank(basis) == dim:
                break
        weights = [field.magnitude(rng.choice(self.QS),
                                   rng.choice(self.NS) if field.rho else 0)
                   for _ in range(dim)]
        return NormedSpace(field, basis, weights)

    @pytest.mark.parametrize("field", [PadicRationals(2), PadicRationals(3),
                                       PadicRationals(1000003), TrivialRationals()],
                             ids=lambda K: f"{K.kind}{K.prime or ''}")
    def test_equals_division_oracle(self, field):
        rng = random.Random(f"dual-norm/{field.kind}{field.prime}")
        p = field.prime or 7
        for dim in (1, 2, 3, 5):
            for _ in range(12):
                N = self.space(rng, field, dim)
                for _ in range(4):
                    w = [rng.choice([0, rng.randint(-6, 6) * p ** rng.randint(0, 3)])
                         for _ in range(dim)]
                    d_w = rng.choice([1, p, 5 * p ** 3, 7, 2 ** 64 + 1])
                    row = [F(x, d_w) for x in w]
                    if not any(column_values(N, row)):
                        with pytest.raises(PreconditionError,
                                           match="evaluation functional vanishes"):
                            _dual_norm(N, w, d_w)
                        continue
                    got = _dual_norm(N, w, d_w)
                    assert got == division_oracle(N, column_values(N, row))
                    checked = Magnitude(field.rho, got.q, got.n)  # normalized
                    assert (got.q, got.n) == (checked.q, checked.n)

    def test_ties_in_valuation_are_broken_by_q(self):
        Q3 = PadicRationals(3)
        N = NormedSpace.standard(Q3, 3, [Q3.magnitude(2), Q3.magnitude(F(1, 5)),
                                         Q3.magnitude(F(7, 4))])
        # |1| / 2, |1| / (1/5), |1| / (7/4): equal valuations, 1/q decides
        assert _dual_norm(N, [1, 1, 1]) == Q3.magnitude(5)
        assert _dual_norm(N, [1, 0, 1]) == Q3.magnitude(F(4, 7))
        # a higher valuation wins while 1/q makes up for it: 5/3, 5/9 > 1/2
        assert _dual_norm(N, [1, 3, 0]) == Q3.magnitude(F(5, 3))
        assert _dual_norm(N, [1, 9, 0]) == Q3.magnitude(F(5, 9))
        assert _dual_norm(N, [1, 27, 0]) == Q3.magnitude(F(1, 2))
        # d_w shifts the winner once: |1/3| = 3
        assert _dual_norm(N, [1, 1, 1], 3) == Q3.magnitude(15)

    def test_zero_entries_and_the_all_zero_row(self):
        Q2 = PadicRationals(2)
        N = NormedSpace(Q2, [[F(1), F(0)], [F(0), F(2)]],
                        [Q2.magnitude(1, 4096), Q2.magnitude(F(3, 5), -4096)])
        assert _dual_norm(N, [0, 5]) == division_oracle(N, [0, F(10)])
        assert _dual_norm(N, [3, 0]) == division_oracle(N, [F(3), 0])
        with pytest.raises(PreconditionError,
                           match="^evaluation functional vanishes identically$"):
            _dual_norm(N, [0, 0])
        with pytest.raises(PreconditionError,
                           match="^evaluation functional vanishes identically$"):
            _dual_norm(N, [0, 0], 4)

    @pytest.mark.parametrize("lifted", [True, False], ids=["rf_basis", "rational_basis"])
    def test_laurent_rows_take_the_order(self, lifted):
        """Rows of tagged constants of Q(T), read as integers over one
        denominator, against the division oracle on their values, whose |v|
        takes the T-order of each value; a point holding T cannot be built."""
        rng = random.Random(f"dual-norm/laurent/{lifted}")
        K = LaurentRationals(5)
        assert_t_cannot_be_built(K)
        for dim in (1, 2, 3):
            for _ in range(8):
                N = rational = self.space(rng, K, dim)
                if lifted:
                    N = NormedSpace(K, lift_constant(N.basis), N.weights)
                row = [K.element(F(rng.randint(-4, 4), rng.randint(1, 3)))
                       for _ in range(dim)]
                values = column_values(rational, row)
                if not any(values):
                    continue
                tags = lift_constant([row])[0] if lifted else row
                ints, d = linalg._integer_row(linalg._constants(tags))
                assert _dual_norm(N, ints, d) == division_oracle(rational, values)


class TestLocalFrameValue:
    """D(x) by ``_dual_norm`` on the base columns against the frame forms
    evaluated with ``Section.evaluate``."""

    @staticmethod
    def evaluate_route(h, point):
        x = normalize_point(h.field, point)
        return magnitude_max(h.field.abs(form.evaluate(x)) / w
                             for form, w in zip(h.frame_forms(), h.base.weights))

    @pytest.mark.parametrize("field", FIELDS + [PadicRationals(1000003)],
                             ids=lambda K: f"{K.kind}{K.prime or ''}")
    def test_equals_evaluate_route(self, field):
        rng = random.Random(f"frame-route/{field.kind}{field.prime}")
        for nv in (2, 3, 4):
            space = wide_space(rng, field, nv)
            space.weights[0] = field.magnitude(F(7, 4), 4096 if field.rho else 0)
            h = QuotientMetric(space)
            for _ in range(8):
                pt = random_point(rng, nv)
                pt[rng.randrange(nv)] = F(0)
                if not any(pt):
                    pt[0] = F(1, (field.prime or 2) ** 3)
                assert h.local_frame_value(pt) == self.evaluate_route(h, pt)

    def test_t_point_is_refused(self):
        K = LaurentRationals(5)
        assert_t_cannot_be_built(K)
        h = diag_metric(K, [F(1), F(1, 2)])
        assert h.local_frame_value([K.one(), K.zero()]) == K.one_magnitude()

    def test_laurent_points(self):
        rng = random.Random("frame-route/laurent")
        K = LaurentRationals(5)
        for nv in (2, 3):
            base = scalar_extension(random_space(rng, TrivialRationals(), nv), K)
            for space in (base, NormedSpace(K, lift_constant(base.basis), base.weights)):
                h = QuotientMetric(space)
                for _ in range(5):
                    pt = [RationalFunction(x) for x in random_point(rng, nv)]
                    assert h.local_frame_value(pt) == self.evaluate_route(h, pt)


class TestSigmaReadsTheGaussBasis:
    """sigma must read e_i(x~) from the gauss basis, not from products of
    the frame values f_j(x~): a space equal to gauss_space(n) except for
    one column scaled by p has the same frame values, so a product-form
    sigma would not see the change, while its metric gap does."""

    @staticmethod
    def scaled(N, k, c):
        basis = [[x * c if j == k else x for j, x in enumerate(row)] for row in N.basis]
        return NormedSpace(N.field, basis, list(N.weights))

    def test_diagonal_example(self):
        Q2 = PadicRationals(2)
        h = diag_metric(Q2, [F(1), F(1)])
        pt = [F(1), F(2)]  # the column x0^2 alone attains max |e_i(x~)| / w_i
        assert sigma(h, 2, pt) == Q2.one_magnitude()
        gap = metric_gap(self.scaled(h.gauss_space(2), 0, F(2)), h, 2, pt)
        assert gap == Q2.magnitude(2)

    @pytest.mark.parametrize("field", [PadicRationals(2), PadicRationals(3)],
                             ids=lambda K: f"{K.kind}{K.prime}")
    def test_scaled_column_moves_the_gap(self, field):
        rng = random.Random(f"scaled-gauss-column/{field.prime}")
        checked = 0
        for _ in range(40):
            m, n = rng.choice([(1, 2), (1, 3), (2, 2)])
            h = QuotientMetric(random_space(rng, field, m + 1))
            N = h.gauss_space(n)
            x = normalize_point(field, random_point(rng, m + 1))
            vals = [field.abs(v) / w for v, w in zip(
                column_values(N, evaluation_row(n, x)), N.weights)]
            top = max(vals)
            if vals.count(top) > 1:  # a tie keeps the max; skip it
                continue
            M = self.scaled(N, vals.index(top), F(field.prime))
            gap = metric_gap(M, h, n, x)
            assert gap != sigma(h, n, x)
            d = TestLocalFrameValue.evaluate_route(h, x)
            assert gap == TestQuotientFiberNorm.elimination(M, field, m, n, x) * d ** n
            checked += 1
        assert checked >= 10


class TestGaussSpaceInverse:
    @pytest.mark.parametrize("field", [PadicRationals(3), TrivialRationals()],
                             ids=lambda K: K.kind)
    @pytest.mark.parametrize("m,n_max", [(1, 8), (2, 5)])
    def test_sym_inverse_equals_dense_inverse(self, field, m, n_max):
        rng = random.Random(7 * m + n_max)
        h = QuotientMetric(random_space(rng, field, m + 1))
        for n in range(1, n_max + 1):
            N = h.gauss_space(n)
            assert N.basis_inverse() == linalg.invert(N.basis)

    def test_singular_base_frame_is_rejected(self):
        Q2 = PadicRationals(2)
        base = NormedSpace(Q2, [[F(1), F(2)], [F(2), F(4)]],
                           [Q2.one_magnitude()] * 2)
        with pytest.raises(PreconditionError):
            QuotientMetric(base)


def change_frame_space(h, n):
    """The degree-n Gauss space by Section products: the monomials
    rewritten in the frame (the columns) and in the substitution (the
    inverse's columns), with weights as products of powers -- the oracle
    for ``_SymPowers``."""
    field, exps = h.field, monomial_basis(h.m, n)
    monomials = [Section.monomial(field, e) for e in exps]
    cols = [f.to_vector() for f in _change_frame_products(h.frame_forms(), monomials)]
    inverse = [u.to_vector() for u in _change_frame_products(h.substitution(), monomials)]
    one = field.one_magnitude()
    weights = [reduce(mul, map(pow, h.base.weights, e), one) for e in exps]
    return cols, linalg.transpose(inverse), weights


class TestGaussSpaceOracle:
    """Sym^n in integers, built from degree n - 1, against Section products."""

    @staticmethod
    def check(N, h, n):
        cols, inverse, weights = change_frame_space(h, n)
        assert N.columns() == cols
        assert all(type(x) is F for col in N.columns() for x in col)
        assert N.integer_columns() == [linalg._integer_row(c) for c in cols]
        assert N.weights == weights
        assert N.basis_inverse() == inverse
        # every zero entry of the basis is one shared object
        assert len({id(x) for row in N.basis for x in row if x == 0}) <= 1

    @pytest.mark.parametrize("field", [PadicRationals(2), PadicRationals(3),
                                       PadicRationals(1000003), TrivialRationals()],
                             ids=lambda K: f"{K.kind}{K.prime}")
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_degrees_zero_to_eight(self, field, m):
        rng = random.Random(f"sym-oracle/{field.prime}/{m}")
        for make in (random_space, wide_space):
            h = QuotientMetric(make(rng, field, m + 1))
            for n in range(9 if m < 3 else 7):
                self.check(h.gauss_space(n), h, n)
        h = QuotientMetric(random_space(rng, field, m + 1))
        self.check(h.gauss_space(8), h, 8)

    @pytest.mark.parametrize("field", [PadicRationals(3), TrivialRationals()],
                             ids=lambda K: K.kind)
    def test_out_of_order_requests(self, field):
        rng = random.Random(f"sym-order/{field.kind}")
        for m in (1, 2):
            h = QuotientMetric(random_space(rng, field, m + 1))
            spaces = {n: h.gauss_space(n) for n in (5, 2, 7)}
            for n in (7, 2, 5):  # the inverses restart in another order
                self.check(spaces[n], h, n)

    @pytest.mark.parametrize("field", [PadicRationals(3), TrivialRationals(),
                                       LaurentRationals(3)], ids=lambda K: K.kind)
    def test_cache_keeps_the_last_degree(self, field):
        rng = random.Random(f"sym-cache/{field.kind}")
        h = QuotientMetric(random_space(rng, field, 2))
        point = [F(1), F(2)]
        seen = {}
        for n in range(1, 7):
            sigma(h, n, point)
            N = h.gauss_space(n)
            seen[n] = (N.columns(), N.weights, N.basis_inverse())
            assert list(h._gauss_cache) == [n]
        for n in (2, 5, 1):
            N = h.gauss_space(n)
            assert (N.columns(), N.weights, N.basis_inverse()) == seen[n]
            assert list(h._gauss_cache) == [n]
            assert h.gauss_space(n) is N

    @pytest.mark.parametrize("field", [PadicRationals(2), PadicRationals(3),
                                       TrivialRationals()], ids=lambda K: f"{K.kind}{K.prime}")
    def test_lazy_basis_equals_the_eager_space(self, field):
        rng = random.Random(f"sym-lazy/{field.kind}{field.prime}")
        for m in (1, 2):
            h, h2 = (QuotientMetric(random_space(rng, field, m + 1)) for _ in range(2))
            for n in range(5):
                cols, _, weights = change_frame_space(h, n)
                eager = NormedSpace(field, linalg.transpose(cols), weights)
                N = h.gauss_space(n)
                assert N._basis is None and N._columns is None
                v = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(N.dim)]
                assert N.coordinates(v) == eager.coordinates(v)
                assert basis_times(N, v) == basis_times(eager, v)
                assert N.norm(v) == eager.norm(v)
                assert N.basis == eager.basis
                # == reads the lazy bases: as the eager spaces compare
                M = h2.gauss_space(n)
                assert N == _GaussSpace(h, n)
                assert (N == M) == (eager == NormedSpace(field, M.basis, M.weights))
                assert (N == M) == (n == 0)

    @pytest.mark.parametrize("field", FIELDS, ids=lambda K: f"{K.kind}{K.prime}")
    def test_sigma_builds_no_fraction_basis(self, field):
        rng = random.Random(f"sym-unread/{field.kind}{field.prime}")
        for m in (1, 2):
            h = QuotientMetric(random_space(rng, field, m + 1))
            for n in range(1, 5):
                for _ in range(3):
                    sigma(h, n, random_point(rng, m + 1))
                N = h.gauss_space(n)
                assert (N._basis, N._columns, N._inverse) == (None, None, None)

    @pytest.mark.parametrize("lifted", [False, True], ids=["rational", "lifted"])
    def test_laurent_field_takes_sym_powers(self, lifted):
        # a Laurent field's Gauss basis is Fractions, over a rational frame
        # or one of constants of Q(T), from the integer columns of its constants
        K = LaurentRationals(3)
        rng = random.Random(f"sym-laurent/{lifted}")
        base = random_space(rng, K, 3)
        basis = lift_constant(base.basis) if lifted else base.basis
        h = QuotientMetric(NormedSpace(K, basis, base.weights))
        for n in (0, 1, 3):
            N = h.gauss_space(n)
            cols, inverse, weights = change_frame_space(h, n)
            assert N.columns() == cols and N.weights == weights
            assert N.basis_inverse() == inverse
            assert N.integer_columns() == [linalg._integer_row(linalg._constants(c))
                                           for c in cols]
            assert all(type(x) is F for col in N.columns() for x in col)

    def test_non_constant_laurent_frame_is_refused(self):
        K = LaurentRationals(5)
        assert_t_cannot_be_built(K)
        # a frame of constants of Q(T), with wide denominators, builds
        base = wide_space(random.Random("sym-laurent/constant-frame"), K, 3)
        h = QuotientMetric(NormedSpace(K, lift_constant(base.basis), base.weights))
        for n in range(5):
            N = h.gauss_space(n)
            cols, inverse, weights = change_frame_space(h, n)
            assert N.columns() == cols and N.weights == weights
            assert N.basis_inverse() == inverse


class TestGaussIntegerForms:
    """A Gauss space serves its integer forms from the dense ``_SymPowers``
    columns, with no Fraction basis: against its public basis and inverse,
    an eager NormedSpace on that basis, and ``polynomial_product``."""

    @pytest.mark.parametrize("field", [PadicRationals(2), PadicRationals(3),
                                       PadicRationals(1000003), TrivialRationals(),
                                       LaurentRationals(5)],
                             ids=["Q2", "Q3", "Q1000003", "trivial", "laurent5"])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_forms_equal_the_basis_and_inverse(self, field, m):
        rng = random.Random(f"gauss-forms/{field.kind}/{m}")
        top = 8 if m < 3 else 6
        line = Section.monomial(field, (1,) + (0,) * m, 3)
        for make in (random_space, wide_space):
            h = QuotientMetric(make(rng, field, m + 1))
            for n in [*range(top + 1), 5, 2, top, 0, 3]:  # then out of order
                N = h.gauss_space(n)
                forms = N._integer_form("basis"), N._integer_form("inverse")
                # a degree-1 change of frame moves the shared substitution powers
                assert h.to_frame_coordinates(line) == _change_frame_products(
                    h.substitution(), [line])[0]
                assert (N._basis, N._inverse, N._columns) == (None, None, None)
                for form, rows in zip(forms, (N.basis, N.basis_inverse())):
                    assert [[F(x, d) for x in ints] for ints, d in form] == [
                        linalg._constants(row) for row in rows]
                v = [F(rng.randint(-9, 9), rng.choice([1, 4, 2 ** 65])) for _ in range(N.dim)]
                assert N.coordinates(v) == linalg.mat_vec(N.basis_inverse(), v)
                assert basis_times(N, v) == linalg.mat_vec(N.basis, v)
                if N.dim <= 20 and make is random_space:
                    eager = NormedSpace(field, N.basis, N.weights)
                    assert N.coordinates(v) == eager.coordinates(v)
                    assert basis_times(N, v) == basis_times(eager, v)

    @pytest.mark.parametrize("field", FIELDS, ids=lambda K: f"{K.kind}{K.prime}")
    def test_min_norm_lift_builds_no_fraction_basis(self, field):
        rng = random.Random(f"sym-unread-lift/{field.kind}{field.prime}")
        for m in (1, 2):
            h = QuotientMetric(random_space(rng, field, m + 1))
            pts = {tuple(F(rng.randint(-5, 5)) for _ in range(m)) for _ in range(m + 2)}
            form = [F(rng.randint(-3, 3)) for _ in range(m)] + [F(1)]
            rep = Section.monomial(field, (1,) + (0,) * m)  # x_0 is nonzero on both Y
            for Y in (Subvariety(field, m + 1, points=[[F(1), *pt] for pt in pts]),
                      Subvariety(field, m + 1, linear_forms=[form])):
                P = ExtensionProblem(h, Y, rep)
                for n in range(1, 5):
                    min_norm_lift(P, n)
                    if field.kind == "trivial" and Y.kind == "points":
                        extend_trivial_via_laurent(P, n)
                    N = h.gauss_space(n)
                    assert (N._basis, N._columns, N._inverse) == (None, None, None)

    @pytest.mark.parametrize("read_first", [False, True], ids=["unread", "read"])
    def test_scalar_extension_shares_the_forms(self, read_first):
        K, rng = TrivialRationals(), random.Random(f"gauss-extension/{read_first}")
        for m in (1, 2):
            h = QuotientMetric(random_space(rng, K, m + 1))
            for n in range(4):
                N = h.gauss_space(n)
                if read_first:
                    N.basis, N.basis_inverse(), N.columns()
                NL = scalar_extension(N, LaurentRationals(7))
                assert NL._integer_form("inverse") is N._integer_form("inverse")
                assert NL.integer_columns() is N.integer_columns()
                assert (N.field, NL.field) == (K, LaurentRationals(7))
                assert [(w.q, w.n) for w in NL.weights] == [(w.q, 0) for w in N.weights]
                if not read_first:
                    assert (N._basis, N._inverse, N._columns) == (None, None, None)
                assert NL.basis == N.basis
                assert NL.basis_inverse() == N.basis_inverse()
                assert NL.columns() == N.columns()
                for rows in (NL.basis, NL.basis_inverse(), NL.columns()):
                    assert all(type(x) is F for row in rows for x in row)
                assert all(type(x) is F for row in N.basis for x in row)

    def test_times_form_equals_polynomial_product(self):
        rng = random.Random("times-form")
        for nv in range(1, 5):
            linear = monomial_basis(nv - 1, 1)
            for n in range(7):
                exps, up = monomial_basis(nv - 1, n), monomial_basis(nv - 1, n + 1)
                for trial in range(6):
                    P = [rng.choice([0, rng.randint(-10 ** 6, 10 ** 6)]) for _ in exps]
                    form = [rng.choice([0, rng.randint(-9, 9)]) for _ in range(nv)]
                    if trial == 0:
                        P = [0] * len(exps)
                    elif trial == 1:
                        form = [0] * nv
                    want = polynomial_product(dict(zip(exps, P)), dict(zip(linear, form)))
                    assert _times_form(P, form, n) == [want.get(e, 0) for e in up]


class TestGaussSubmultiplicative:
    """||s t|| <= ||s|| ||t|| on the Gauss spaces, for every pair of basis
    vectors in degrees a + b <= 4.  A weighted Gauss norm is multiplicative
    (Gauss's lemma), so the bound holds with equality, which is asserted."""

    FRAME = [[F(1), F(2, 3), F(0)], [F(5), F(-7), F(1, 2)], [F(0), F(1), F(4)]]

    @pytest.mark.parametrize("field", [PadicRationals(2), PadicRationals(3),
                                       TrivialRationals()],
                             ids=lambda f: f"{f.kind}{f.prime or ''}")
    @pytest.mark.parametrize("frame", ["diagonal", "non-diagonal"])
    def test_basis_products(self, field, frame):
        if frame == "diagonal":
            h = diag_metric(field, [F(1), F(3) if field.prime == 3 else F(1, 2), F(1)])
        else:
            h = QuotientMetric(NormedSpace(field, self.FRAME, [
                field.magnitude(w) for w in (F(3, 5), F(7, 4), F(1))]))
        for a in range(1, 4):
            for b in range(1, 5 - a):
                Na, Nb, Nab = h.gauss_space(a), h.gauss_space(b), h.gauss_space(a + b)
                for i in range(Na.dim):
                    s = Section.from_vector(field, h.m, a, Na.column(i))
                    for j in range(Nb.dim):
                        t = Section.from_vector(field, h.m, b, Nb.column(j))
                        norm = Nab.norm((s * t).to_vector())
                        assert norm == Na.weights[i] * Nb.weights[j], (a, i, b, j)

    def test_trivial_family_has_unit_ratios(self):
        h = diag_metric(PadicRationals(2), [F(1), F(1)])
        assert all(sigma(h, n, [F(1), F(1)]).value() == 1 for n in range(1, 5))
