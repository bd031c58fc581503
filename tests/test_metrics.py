"""Quotient metrics on O(1), Gauss sup norms, sigma/mu diagnostics."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from ultranorm import (LaurentRationals, NormedSpace, PadicRationals,
                       PreconditionError, TrivialRationals, linalg)
from ultranorm.metrics import (MetricFamily, QuotientMetric, _change_frame,
                               _change_frame_products, gauss_attainment_point,
                               metric_gap, mu_estimate, quotient_fiber_norm,
                               sigma)
from ultranorm.fields import RationalFunction
from ultranorm.sections import (Section, Subvariety, _evaluation_row_products,
                                evaluation_row, monomial_basis, normalize_point)
from ultranorm.spaces import distance_to_subspace, scalar_extension

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
    """The fraction-free change of frame against the Section-product loop
    it replaced, which still serves coefficients in Q(T)."""

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
            got = _change_frame(forms, sections)
            assert got == _change_frame_products(forms, sections)
            assert all(s.degree == t.degree for s, t in zip(got, sections))

    def test_laurent_constants_match_rationals(self):
        # a Laurent-field config keeps rational frames but lifts section
        # coefficients to Q(T): those take the product loop
        K = LaurentRationals(3)
        rng = random.Random("change-frame/laurent")
        forms = [self.random_form(rng, K, 2, False) for _ in range(2)]
        rational = Section(K, 2, 2, {(2, 0): F(1, 2), (1, 1): F(-3), (0, 2): F(5, 7)})
        lifted = Section(K, 2, 2, {e: K.element(c) for e, c in rational.coeffs.items()})
        want = _change_frame(forms, [rational])[0]
        got = _change_frame(forms, [lifted])[0]
        assert {e: c.constant_value() for e, c in got.coeffs.items()} == want.coeffs


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
        row = evaluation_row(field, m, n, normalize_point(field, pt))
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
                    assert (quotient_fiber_norm(N, field, m, n,
                                                normalize_point(field, pt))
                            == self.elimination(N, field, m, n, pt))

    @staticmethod
    def mat_vec_route(N, field, m, n, pt):
        """1 / max_i |e_i(x~)| / w_i with e_i(x~) from the Fraction row and
        ``mat_vec`` over the basis columns."""
        values = linalg.mat_vec(N.columns(), _evaluation_row_products(field, m, n, pt))
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
                        assert (quotient_fiber_norm(N, field, m, n, x)
                                == self.mat_vec_route(N, field, m, n, x)
                                == self.elimination(N, field, m, n, pt))

    def test_laurent_space_takes_mat_vec(self):
        rng = random.Random("laurent-fiber")
        K = LaurentRationals(5)
        for n in (1, 2):
            N = scalar_extension(random_space(rng, TrivialRationals(), n + 1), K)
            assert N.integer_columns() is None
            for _ in range(3):
                pt = [RationalFunction.constant(x) for x in random_point(rng, 2)]
                x = normalize_point(K, pt)
                assert (quotient_fiber_norm(N, K, 1, n, x)
                        == self.mat_vec_route(N, K, 1, n, x)
                        == self.elimination(N, K, 1, n, pt))

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

    def test_vanishing_evaluation_is_a_precondition(self):
        Q2 = PadicRationals(2)
        # every basis vector lies in the kernel of evaluation at (1 : 0)
        N = NormedSpace(Q2, [[F(0), F(0)], [F(1), F(2)]],
                        [Q2.one_magnitude()] * 2)
        with pytest.raises(PreconditionError):
            quotient_fiber_norm(N, Q2, 1, 1, [F(1), F(0)])


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


class TestMuEstimate:
    def test_trivial_family_has_unit_ratios(self):
        Q2 = PadicRationals(2)
        h = diag_metric(Q2, [F(1), F(1)])
        family = MetricFamily(Q2, 1, {n: h.gauss_space(n)
                                      for n in range(1, 5)})
        assert family.check_submultiplicative(pairs=20, seed=1)
        ratios, running = mu_estimate(family, h, [F(1), F(1)], 4)
        assert all(r.value() == 1 for r in ratios)
