"""Minimal-norm extensions, ratio sequences, the Laurent detour."""

from __future__ import annotations

import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction
from operator import mul

import pytest

from ultranorm import (LaurentRationals, NormedSpace, PadicRationals,
                       TrivialRationals, choose_laurent_base, linalg)
from ultranorm.extension import (ExtensionProblem,
                                 _exceeds_exp, check_extension_theorem,
                                 extend_trivial_via_laurent, min_norm_lift,
                                 ratio_sequence)
from ultranorm import metrics
from ultranorm.metrics import QuotientMetric, metric_gap, sigma
from ultranorm.sections import (Section, Subvariety, integer_evaluation_row,
                                restriction_kernel)
from ultranorm.fields import magnitude_max
from ultranorm.spaces import (PreconditionError, _eliminate_integer, distance_to_subspace,
                              scalar_extension)

F = Fraction


def diag_metric(field, weights):
    dim = len(weights)
    basis = [[F(1) if i == j else F(0) for j in range(dim)]
             for i in range(dim)]
    return QuotientMetric(NormedSpace(field, basis,
                                      [field.magnitude(w) for w in weights]))


def p1_problem(field, weights, points, rep_coeffs):
    h = diag_metric(field, weights)
    Y = Subvariety(field, 2, points=points)
    rep = Section.from_vector(field, 1, 1,
                              [field.element(c) for c in rep_coeffs])
    return ExtensionProblem(h, Y, rep)


def random_trivial_problem(rng, num_vars):
    """Trivially valued problem on P^(num_vars - 1) whose norm has a random
    non-diagonal orthogonal basis."""
    K = TrivialRationals()
    while True:
        basis = [[F(rng.randint(-2, 2)) for _ in range(num_vars)]
                 for _ in range(num_vars)]
        if linalg.rank(basis) == num_vars:
            break
    weights = [K.magnitude(rng.choice([F(1), F(2), F(1, 2), F(3), F(5, 3)]))
               for _ in range(num_vars)]
    h = QuotientMetric(NormedSpace(K, basis, weights))
    npoints = rng.randint(1, num_vars + 1)
    affine = set()
    while len(affine) < npoints:
        affine.add(tuple(rng.randint(-3, 3) for _ in range(num_vars - 1)))
    pts = [[F(1)] + [F(a) for a in pt] for pt in sorted(affine)]
    while True:
        rep = Section.from_vector(K, num_vars - 1, 1,
                                  [F(rng.randint(-3, 3))
                                   for _ in range(num_vars)])
        if any(rep.evaluate(pt) != 0 for pt in pts):
            break
    return ExtensionProblem(h, Subvariety(K, num_vars, points=pts), rep)


class TestMinNormLift:
    def test_semipositive_single_point_ratio_one(self):
        Q2 = PadicRationals(2)
        P = p1_problem(Q2, [F(1), F(1)], [[F(1), F(0)]], [F(1), F(0)])
        for n in (1, 2, 3):
            section, ratio = min_norm_lift(P, n)
            assert ratio.value() == 1
            # the section restricts to the n-th power of the representative
            assert section.degree == n

    def test_frozen_weighted_example(self):
        Q2 = PadicRationals(2)
        # weights (1, 2): local frame scale at [1:1] is D = 1, so the
        # restriction of y has pointwise value |y(1,1)|/D = 1
        P = p1_problem(Q2, [F(1), F(2)], [[F(1), F(1)]], [F(0), F(1)])
        assert P.restricted_norm().value() == 1
        _, ratio = min_norm_lift(P, 1)
        assert ratio.value() == 1

    def test_positive_obstruction_fixture(self):
        # two points, representative x + 3y over Q_2: the restricted norm
        # halves but no degree-1 lift beats norm 1
        Q2 = PadicRationals(2)
        P = p1_problem(Q2, [F(1), F(1)],
                       [[F(1), F(1)], [F(1), F(-1)]], [F(1), F(3)])
        assert P.restricted_norm().value() == F(1, 2)
        _, ratio = min_norm_lift(P, 1)
        assert ratio.value() == 2

    def test_lift_restricts_correctly(self):
        Q3 = PadicRationals(3)
        P = p1_problem(Q3, [F(1), F(3)],
                       [[F(1), F(2)], [F(1), F(5)]], [F(1), F(1)])
        for n in (2, 3):
            section, _ = min_norm_lift(P, n)
            for pt in P.Y.points:
                want = P.representative.evaluate(pt) ** n
                assert section.evaluate(pt) == want


def random_point_problem(rng, field, num_vars, npoints):
    """A problem on P^(num_vars - 1) with a random non-diagonal norm and
    npoints distinct points (possibly more than the degree-1 dimension)."""
    while True:
        basis = [[F(rng.randint(-3, 3), rng.randint(1, 3))
                  for _ in range(num_vars)] for _ in range(num_vars)]
        if linalg.rank(basis) == num_vars:
            break
    weights = [field.magnitude(rng.choice([F(1), F(2), F(1, 3), F(5, 4)]),
                               rng.randint(-2, 2) if field.rho else 0)
               for _ in range(num_vars)]
    h = QuotientMetric(NormedSpace(field, basis, weights))
    pts = []
    while len(pts) < npoints:
        pt = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(num_vars)]
        if not any(pt):
            continue
        try:
            Y = Subvariety(field, num_vars, points=pts + [pt])
        except PreconditionError:  # proportional to an earlier point
            continue
        pts.append(pt)
    while True:
        rep = Section.from_vector(field, num_vars - 1, 1,
                                  [F(rng.randint(-3, 3)) for _ in range(num_vars)])
        if any(rep.evaluate(pt) != 0 for pt in Y.points):
            return ExtensionProblem(h, Y, rep)


def column_psi(N, n, point):
    """psi at a point from the columns of N: each integer column dotted with
    the degree-n monomials at the point, as Fractions."""
    w, dn = integer_evaluation_row(n, point)
    return [F(sum(map(mul, P_j, w)), d * dn) for P_j, d in N.integer_columns()]


def column_dual_lift(P, n):
    """The dual lift from column rows: ``linalg.extend_basis`` keeps the
    points that raise the rank, their ``column_psi`` rows are eliminated
    under the dual weights, and the lift is N.basis c (``linalg.mat_vec``).
    Returns the final rows as Fractions, the section and the ratio."""
    field, N = P.field, P.metric.gauss_space(n)
    rows = [column_psi(N, n, pt) for pt in P.Y.points]
    psi = [linalg._integer_row(rows[i]) for i in linalg.extend_basis([], rows, N.dim)]
    dual = [field.one_magnitude() / w for w in N.weights]
    pivots, norms = _eliminate_integer(field, dual, psi)
    psi = [[F(x, d) for x in r] for r, d in psi]
    l_n = (P.metric.to_frame_coordinates(P.representative) ** n).to_vector()
    targets = [sum(map(mul, r, l_n)) for r in psi]
    dist = magnitude_max(field.abs(t) / norm for t, norm in zip(targets, norms))
    c = [F(0)] * N.dim
    for i in reversed(range(len(psi))):
        j = pivots[i]
        c[j] = (targets[i] - sum(psi[i][k] * c[k] for k in pivots[i + 1:])) / psi[i][j]
    section = Section.from_vector(field, P.metric.m, n, linalg.mat_vec(N.basis, c))
    return psi, section, dist / P.restricted_norm() ** n


def proportional(u, v):
    """u = c v for one nonzero rational c."""
    j = next(j for j, x in enumerate(v) if x)
    c = u[j] / v[j]
    return c != 0 and [c * x for x in v] == list(u)


class TestDualLift:
    """The dual-side lift for point sets against the primal oracle: the
    distance from one lift of l^n to the restriction kernel."""

    @pytest.mark.parametrize("field", [PadicRationals(2), PadicRationals(3),
                                       TrivialRationals(), LaurentRationals(5)],
                             ids=lambda f: f"{f.kind}{f.prime or ''}")
    def test_frame_value_rows_equal_the_column_rows(self, field):
        # psi_i[e] = v_i^e at v_i = B^T x_i, against the columns of N dotted
        # with the monomials at x_i, up to one factor per row; the first point
        # is a zero of the first frame form, so one frame value is zero
        rng = random.Random(f"dual-lift-rows/{field.kind}{field.prime}")
        for num_vars in (2, 3):
            for _ in range(3):
                P = random_point_problem(rng, field, num_vars, 3)
                h = P.metric
                f0 = [h.base.basis[j][0] for j in range(num_vars)]
                if num_vars == 2:
                    zero = [f0[1], -f0[0]]
                else:
                    u = [F(rng.randint(-3, 3)) for _ in range(3)]
                    zero = [f0[1] * u[2] - f0[2] * u[1], f0[2] * u[0] - f0[0] * u[2],
                            f0[0] * u[1] - f0[1] * u[0]]
                    if not any(zero):
                        continue
                assert h.frame_forms()[0].evaluate(zero) == 0
                for i, x in enumerate([zero] + P.Y.points):
                    v = [f.evaluate(x) for f in h.frame_forms()]
                    assert i == 0 or proportional(P._frame_points[i - 1], v)
                    for n in (1, 2, 3, 4):
                        row, dn = h._evaluation_row(n, v)
                        want = column_psi(h.gauss_space(n), n, x)
                        assert proportional([F(r, dn) for r in row], want)

    @pytest.mark.parametrize("field", [PadicRationals(2), PadicRationals(3),
                                       TrivialRationals(), LaurentRationals(5)],
                             ids=lambda f: f"{f.kind}{f.prime or ''}")
    def test_four_points_on_p1_keep_the_extend_basis_rows(self, field):
        # k = 4 > dim = 2 at degree 1: the elimination drops the rows that
        # extend_basis leaves out, keeps the others up to one factor each, and
        # gives the section and ratio of the column rows
        rng = random.Random(f"dual-lift-dependent/{field.kind}{field.prime}")
        for _ in range(6):
            P = random_point_problem(rng, field, 2, 4)
            h, N = P.metric, P.metric.gauss_space(1)
            want_rows, want_section, want_ratio = column_dual_lift(P, 1)
            rows = [h._evaluation_row(1, v) for v in P._frame_points]
            dual = [field.one_magnitude() / w for w in N.weights]
            _eliminate_integer(field, dual, rows, drop=True)
            assert len(rows) == len(want_rows) == N.dim
            assert all(proportional([F(x, d) for x in r], want)
                       for (r, d), want in zip(rows, want_rows))
            assert min_norm_lift(P, 1) == (want_section, want_ratio)

    def test_column_rows_give_the_same_lift_at_every_degree(self):
        rng = random.Random("dual-lift-columns")
        for field in (PadicRationals(3), TrivialRationals(), LaurentRationals(5)):
            for num_vars, npoints in ((2, 4), (3, 5)):
                P = random_point_problem(rng, field, num_vars, npoints)
                for n in (1, 2, 3):
                    assert min_norm_lift(P, n) == column_dual_lift(P, n)[1:]

    @pytest.mark.parametrize("field", [PadicRationals(2), PadicRationals(3),
                                       TrivialRationals()],
                             ids=lambda f: f"{f.kind}{f.prime or ''}")
    def test_ratio_and_lift_match_primal_oracle(self, field):
        rng = random.Random(f"dual-lift/{field.kind}{field.prime}")
        cases = [(2, k, n) for k in (1, 3, 5) for n in (1, 2, 4)]
        cases += [(3, k, n) for k in (2, 4, 5) for n in (1, 2)]
        for num_vars, npoints, n in cases:
            P = random_point_problem(rng, field, num_vars, npoints)
            N = P.metric.gauss_space(n)
            s0 = (P.representative ** n).to_vector()
            dist, _ = distance_to_subspace(N, s0, restriction_kernel(P.Y, n))
            section, ratio = min_norm_lift(P, n)
            assert ratio == dist / P.restricted_norm() ** n
            # minimizers are not unique: check what defines one
            assert N.norm(section.to_vector()) == dist
            for pt in P.Y.points:
                assert section.evaluate(pt) == P.representative.evaluate(pt) ** n

    @pytest.mark.parametrize("field", [PadicRationals(2), PadicRationals(1000003),
                                       TrivialRationals()],
                             ids=lambda f: f"{f.kind}{f.prime or ''}")
    def test_zero_coordinates_and_more_points_than_dim(self, field):
        # psi from the monomials at the frame values against the primal
        # oracle, at points with zero coordinates and with more points than
        # degree-n sections (k > dim)
        rng = random.Random(f"dual-lift-zeros/{field.kind}{field.prime}")
        point_sets = {
            2: [[F(1), F(0)], [F(0), F(1)], [F(1), F(1)], [F(2), F(-3)], [F(1, 4), F(5)]],
            3: [[F(1), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(1)],
                [F(1), F(0), F(2)], [F(0), F(3), F(-1, 2)], [F(1), F(1), F(1)],
                [F(4), F(0), F(-1)]],
        }
        checked = 0
        for num_vars, pts in point_sets.items():
            for k, n in ((num_vars, 1), (num_vars + 1, 1), (len(pts), 1),
                         (len(pts), 2), (num_vars + 1, 3)):
                template = random_point_problem(rng, field, num_vars, 1)
                P = ExtensionProblem(template.metric,
                                     Subvariety(field, num_vars, points=pts[:k]),
                                     template.representative)
                try:
                    P.restricted_norm()
                except PreconditionError:  # l vanishes on these points
                    continue
                N = P.metric.gauss_space(n)
                s0 = (P.representative ** n).to_vector()
                dist, _ = distance_to_subspace(N, s0, restriction_kernel(P.Y, n))
                section, ratio = min_norm_lift(P, n)
                assert ratio == dist / P.restricted_norm() ** n
                assert N.norm(section.to_vector()) == dist
                for pt in P.Y.points:
                    assert section.evaluate(pt) == P.representative.evaluate(pt) ** n
                checked += 1
        assert checked >= 8

    def test_more_points_than_degree_one_sections(self):
        # five points on P^1 impose only two conditions in degree 1: l
        # itself is the only lift, and the ratio is ||l|| / ||l||_Y
        Q2 = PadicRationals(2)
        P = p1_problem(Q2, [F(1), F(2)],
                       [[F(1), F(a)] for a in range(5)], [F(1), F(3)])
        section, ratio = min_norm_lift(P, 1)
        assert section == P.representative
        assert ratio == P.metric.sup_norm(P.representative) / P.restricted_norm()


class TestFramePowers:
    """l^n in the frame coordinates as dense integers, kept by the problem
    from one degree to the next, against the integer row of the direct power
    of the rewritten representative."""

    @pytest.mark.parametrize("field", [PadicRationals(2), PadicRationals(3),
                                       TrivialRationals()],
                             ids=lambda f: f"{f.kind}{f.prime or ''}")
    @pytest.mark.parametrize("order", [[1, 2, 3, 4, 5], [1, 1, 2, 2, 3, 3, 3],
                                       [5, 4, 3, 2, 1], [3, 1, 4, 4, 2, 5, 1]],
                             ids=["increasing", "repeated", "decreasing", "mixed"])
    def test_equals_the_direct_power(self, field, order):
        rng = random.Random(f"frame-powers/{field.kind}{field.prime}")
        for num_vars in (2, 3):
            P = random_point_problem(rng, field, num_vars, 2)
            l = P.metric.to_frame_coordinates(P.representative)
            for n in order:
                assert P._frame_power_of_l(n) == linalg._integer_row((l ** n).to_vector())

    def test_one_product_per_degree_in_order(self, monkeypatch):
        P = random_point_problem(random.Random("frame-powers/count"),
                                 PadicRationals(3), 3, 2)
        P.metric.to_frame_coordinates(P.representative)  # the substitution's own step
        steps, depth, real = [], [], metrics._times_form

        def counted(poly, form, n):  # one per product by l, not its inner blocks
            steps.extend([] if depth else [n])
            depth.append(n)
            try:
                return real(poly, form, n)
            finally:
                depth.pop()
        monkeypatch.setattr(metrics, "_times_form", counted)
        for n in range(1, 7):
            P._frame_power_of_l(n)
            assert len(steps) == n
        P._frame_power_of_l(6)  # the same degree takes no step
        P._frame_power_of_l(2)  # a lower degree restarts from degree 0
        assert steps == [0, 1, 2, 3, 4, 5, 0, 1]

    def test_ratios_in_any_order_match_a_fresh_problem(self):
        rng = random.Random("frame-powers/ratios")
        for field in (PadicRationals(2), TrivialRationals()):
            P = random_point_problem(rng, field, 3, 3)
            fresh = {n: min_norm_lift(ExtensionProblem(P.metric, P.Y, P.representative), n)
                     for n in range(1, 5)}
            for n in (4, 2, 2, 1, 3, 4):
                section, ratio = min_norm_lift(P, n)
                assert (section, ratio) == fresh[n]


class TestLinearPowers:
    """l^n of a linear-Y lift, kept by the problem from one degree to the
    next, against ``representative ** n``."""

    @staticmethod
    def problem():
        # P^2 over Q_3 with a non-diagonal frame, Y the line x0 + 2 x1 = x2
        K = PadicRationals(3)
        basis = [[F(1), F(2, 3), F(0)], [F(5), F(-7), F(1, 2)], [F(0), F(1), F(4)]]
        weights = [K.magnitude(F(3, 5), 1), K.magnitude(F(7, 4), -2), K.magnitude(F(1))]
        return ExtensionProblem(QuotientMetric(NormedSpace(K, basis, weights)),
                                Subvariety(K, 3, linear_forms=[[F(1), F(2), F(-1)]]),
                                Section.from_vector(K, 2, 1, [F(1), F(0), F(0)]))

    def test_one_product_per_degree_in_order(self, monkeypatch):
        P = self.problem()
        want = {n: P.representative ** n for n in range(1, 9)}
        products, real = [], Section.__mul__
        monkeypatch.setattr(Section, "__mul__",
                            lambda a, b: products.append(a.degree) or real(a, b))
        for n in range(1, 9):
            min_norm_lift(P, n)
            assert P._power == want[n]
        assert products == list(range(1, 8))  # 7 products, not the 28 of l ** n
        min_norm_lift(P, 3)  # a lower degree restarts: l ** 3 is two products
        assert products[7:] == [1, 2] and P._power == want[3]

    def test_lifts_in_any_order_match_a_fresh_problem(self):
        P = self.problem()
        fresh = {n: min_norm_lift(self.problem(), n) for n in range(1, 5)}
        for n in (4, 2, 2, 1, 3, 4):
            assert min_norm_lift(P, n) == fresh[n]


class TestPointRows:
    """The degree-n monomials the metric keeps per point, stepped from the
    last degree asked, against a fresh metric and ``integer_evaluation_row``."""

    ORDERS = [[1, 2, 3, 4, 5], [1, 1, 2, 2, 3, 3, 3], [5, 4, 3, 2, 1], [1, 3, 6, 2, 5]]

    @pytest.mark.parametrize("field", [PadicRationals(2), PadicRationals(3),
                                       TrivialRationals()],
                             ids=lambda f: f"{f.kind}{f.prime or ''}")
    @pytest.mark.parametrize("order", ORDERS,
                             ids=["increasing", "repeated", "decreasing", "skipping"])
    def test_mixed_requests_match_a_fresh_metric(self, field, order):
        rng = random.Random(f"point-rows/{field.kind}{field.prime}")
        for num_vars in (2, 3):
            P = random_point_problem(rng, field, num_vars, 3)
            h, x = P.metric, [F(rng.randint(-5, 5) or 1, 3) for _ in range(num_vars)]
            for n in order:
                fresh = ExtensionProblem(QuotientMetric(h.base), P.Y, P.representative)
                assert sigma(h, n, x) == sigma(fresh.metric, n, x)
                assert min_norm_lift(P, n) == min_norm_lift(fresh, n)
                for pt in P.Y.points:  # sigma at the points the lift reads
                    assert sigma(h, n, pt) == sigma(QuotientMetric(h.base), n, pt)
                spaces = [QuotientMetric(h.base).gauss_space(k) for k in range(1, n + 1)]
                fresh_h = QuotientMetric(h.base)
                assert ([metric_gap(N, h, k, x) for k, N in enumerate(spaces, 1)]
                        == [metric_gap(N, fresh_h, k, x) for k, N in enumerate(spaces, 1)])
                for pt in [x] + P.Y.points:
                    assert h._rows[tuple(pt)][2:] == (n, integer_evaluation_row(n, pt)[0])

    def test_one_step_per_degree_in_order(self, monkeypatch):
        P = random_point_problem(random.Random("point-rows/count"), PadicRationals(3), 3, 2)
        steps, real = [], metrics.step_row

        def counted(row, a, n, *times):  # point rows only, not the Gauss columns
            steps.extend([] if times else [n])
            return real(row, a, n, *times)
        monkeypatch.setattr(metrics, "step_row", counted)
        x = [F(2), F(-3, 4), F(0)]
        for n in range(1, 7):
            sigma(P.metric, n, x)
            assert len(steps) == n
        sigma(P.metric, 6, x)  # the same degree takes no step
        sigma(P.metric, 2, x)  # a lower degree restarts from degree 0
        assert len(steps) == 8
        min_norm_lift(P, 1)
        min_norm_lift(P, 2)  # each point of Y: one step from degree 0, then one
        assert len(steps) == 8 + 2 * len(P.Y.points)


class TestRatioSequence:
    def test_subadditivity_no_violations(self):
        Q2 = PadicRationals(2)
        P = p1_problem(Q2, [F(1), F(2)],
                       [[F(1), F(1)], [F(1), F(-1)]], [F(1), F(3)])
        ratios = ratio_sequence(P, 8)
        for m in range(1, 8):
            for n in range(m, 9 - m):
                assert ratios[m + n - 1] <= ratios[m - 1] * ratios[n - 1], (m, n)


class TestLaurentPath:
    def test_matches_direct_computation(self):
        K = TrivialRationals()
        rng = random.Random(6)
        checked = 0
        while checked < 8:
            w = [F(1), [F(1), F(2), F(1, 2), F(3)][rng.randrange(4)]]
            pts = [[F(1), F(rng.randint(-4, 4))]]
            rep = [F(rng.randint(-3, 3)), F(rng.randint(-3, 3))]
            if all(c == 0 for c in rep):
                continue
            P = p1_problem(K, w, pts, rep)
            if P.representative.evaluate(pts[0]) == F(0):
                continue
            n = rng.randint(1, 4)
            section, ratio = extend_trivial_via_laurent(P, n)
            _, direct = min_norm_lift(P, n)
            assert ratio == direct
            checked += 1

    def test_result_coefficients_are_rational(self):
        K = TrivialRationals()
        P = p1_problem(K, [F(1), F(2)],
                       [[F(1), F(1)], [F(1), F(-1)]], [F(1), F(0)])
        section, ratio = extend_trivial_via_laurent(P, 2)
        for c in section.coeffs.values():
            assert isinstance(c, Fraction)  # no residual uniformizer terms
        _, direct = min_norm_lift(P, 2)
        assert ratio == direct

    @pytest.mark.parametrize("num_vars", [2, 3])
    def test_non_diagonal_bases(self, num_vars):
        rng = random.Random(80 + num_vars)
        for n in range(1, 5):
            P = random_trivial_problem(rng, num_vars)
            section, ratio = extend_trivial_via_laurent(P, n)
            _, direct = min_norm_lift(P, n)
            assert ratio == direct
            for c in section.coeffs.values():
                assert isinstance(c, Fraction)
            for pt in P.Y.points:
                assert section.evaluate(pt) == P.representative.evaluate(pt) ** n
            # the extended space carries the lifted inverse of the base one
            N = P.metric.gauss_space(n)
            prime = choose_laurent_base(N.norm_value_set())
            NL = scalar_extension(N, LaurentRationals(prime))
            assert NL.basis_inverse() == linalg.invert(NL.basis)


class TestTheoremCheck:
    def test_semipositive_holds_from_degree_one(self):
        Q2 = PadicRationals(2)
        P = p1_problem(Q2, [F(1), F(1)], [[F(1), F(0)]], [F(1), F(0)])
        report = check_extension_theorem(P, F(1, 10), 5)
        assert report["first_n0"] == 1
        assert all(report["holds"])

    def test_obstructed_degree_one_fails_small_epsilon(self):
        Q2 = PadicRationals(2)
        P = p1_problem(Q2, [F(1), F(1)],
                       [[F(1), F(1)], [F(1), F(-1)]], [F(1), F(3)])
        report = check_extension_theorem(P, F(1, 100), 4)
        assert report["holds"][0] is False  # ratio 2 > e^{1/100}


def exp_decimal(bound):
    """e^bound to 80 significant digits (Decimal.exp rounds correctly)."""
    with localcontext() as ctx:
        ctx.prec = 80
        return (Decimal(bound.numerator) / Decimal(bound.denominator)).exp()


def exceeds_exp_oracle(value, bound):
    e = exp_decimal(bound)
    with localcontext() as ctx:
        ctx.prec = 80
        v = Decimal(value.numerator) / Decimal(value.denominator)
        # both sides carry a relative error near 1e-80; this margin makes
        # the decimal comparison exact
        assert abs(v - e) > e * Decimal(10) ** -60
        return v > e


class TestExceedsExp:
    def test_random_pairs_against_decimal(self):
        rng = random.Random(29)
        for _ in range(300):
            value = F(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 4))
            if rng.random() < 0.5:
                # near log(value), where the decision is delicate
                bound = F(round(math.log(value) * 1000) + rng.randint(-20, 20), 1000)
            else:
                bound = F(rng.randint(-4000, 4000), rng.randint(1, 100))
            assert _exceeds_exp(value, bound) == exceeds_exp_oracle(value, bound)

    @pytest.mark.parametrize("value,bound", [
        # convergents of e, and their reciprocals against e^-1
        (F(2721, 1001), F(1)), (F(1264, 465), F(1)),
        (F(1001, 2721), F(-1)), (F(465, 1264), F(-1)),
    ])
    def test_convergents_of_e(self, value, bound):
        assert _exceeds_exp(value, bound) == exceeds_exp_oracle(value, bound)

    @pytest.mark.parametrize("bound", [F(1, 2), F(-3, 7)])
    @pytest.mark.parametrize("digits", [12, 30])
    def test_rationals_just_either_side(self, bound, digits):
        with localcontext() as ctx:
            ctx.prec = 80
            below = F(int(exp_decimal(bound).scaleb(digits)), 10 ** digits)
        above = below + F(1, 10 ** digits)
        assert not _exceeds_exp(below, bound)
        assert _exceeds_exp(above, bound)
        assert not exceeds_exp_oracle(below, bound)
        assert exceeds_exp_oracle(above, bound)

    def test_unit_value_and_zero_bound(self):
        assert not _exceeds_exp(F(1), F(0))
        assert _exceeds_exp(F(1), F(-1, 3))
        assert not _exceeds_exp(F(1), F(1, 3))
        assert _exceeds_exp(F(3, 2), F(0))
        assert not _exceeds_exp(F(2, 3), F(0))
