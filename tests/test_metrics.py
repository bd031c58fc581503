"""Quotient metrics on O(1), Gauss sup norms, sigma/mu diagnostics."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from ultranorm import (NormedSpace, PadicRationals, PreconditionError,
                       TrivialRationals, linalg)
from ultranorm.metrics import (MetricFamily, QuotientMetric,
                               gauss_attainment_point, metric_gap,
                               mu_estimate, quotient_fiber_norm, sigma)
from ultranorm.sections import (Section, Subvariety, evaluation_row,
                                monomial_basis, normalize_point)
from ultranorm.spaces import distance_to_subspace

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
                    assert (quotient_fiber_norm(N, field, m, n, pt)
                            == self.elimination(N, field, m, n, pt))

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
