"""The package's one weighted sup norm, ``spaces._weighted_max``, against the
three loops it replaced, kept here as oracles: one Magnitude per entry compared
with ``>``, the Gauss norm of a section in frame coordinates (``_gauss_norm``
behind ``sup_norm`` and ``restricted_sup_norm``), and the least-valuation
pivot of ``normalize_point``.  The rows are random over Q_3, Q_1000003 with
weight exponents of +-4096, the trivial field and Q(T)."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce
from operator import mul

import pytest

from ultranorm import (LaurentRationals, NormedSpace, PadicRationals, PreconditionError,
                       TrivialRationals, dual_norm, linalg)
from ultranorm.fields import Magnitude, RationalFunction, _vp, magnitude_max
from ultranorm.metrics import QuotientMetric, _change_frame, _SymPowers
from ultranorm.sections import Section, Subvariety, monomial_basis, normalize_point
from ultranorm.spaces import _complete_flag, _weighted_max

F = Fraction

FIELDS = [PadicRationals(3), PadicRationals(1000003), TrivialRationals(), LaurentRationals(5)]
IDS = ["padic3", "padic1000003", "trivial", "laurent5"]


def weighted_max_by_magnitudes(field, weights, x, d, taken=()):
    """One Magnitude per nonzero entry off ``taken``, the largest kept by
    ``>``: the loop that compared in integers before the kernel did."""
    p = field.prime if field.kind == "padic" else None
    best_j = best = None
    for j, (a, w) in enumerate(zip(x, weights)):
        if a and j not in taken:
            val = w if p is None else Magnitude._normalized(w.rho, w.num, w.den, w.n + _vp(a, p))
            if best is None or val > best:
                best_j, best = j, val
    if best is None:
        return None, field.zero_magnitude()
    if p is None:
        return best_j, best
    return best_j, Magnitude._normalized(best.rho, best.num, best.den, best.n - _vp(d, p))


def gauss_norm(field, u, weights, vanishing=0):
    """max_e |u_e| prod_j weights_j^e_j over the terms of the section u free
    of the first ``vanishing`` variables: one product of weights per term."""
    return magnitude_max([field.zero_magnitude()] + [
        reduce(mul, map(pow, weights, e), field.abs(c))
        for e, c in u.coeffs.items() if not any(e[:vanishing])])


def vp_pivot(field, coords):
    """The point scaled by its coordinate of least p-adic valuation (the
    first on ties), or by its first nonzero one off Q_p."""
    pt = linalg._integer_row(linalg._constants(coords))[0]
    nonzero = [i for i, x in enumerate(pt) if x]
    if not nonzero:
        raise PreconditionError("zero vector is not a projective point")
    if field.kind == "padic":
        pivot = pt[max(nonzero, key=lambda i: -_vp(pt[i], field.prime))]
    else:
        pivot = pt[nonzero[0]]
    return [F(x, pivot) for x in pt]


def random_weights(rng, field, dim):
    """Weights with wide coefficients; exponents +-4096 over Q_1000003."""
    spread = [-4096, -1, 0, 1, 4096] if field.prime == 1000003 else [-3, -1, 0, 2]
    return [field.magnitude(rng.choice([F(1), F(2), F(3, 5), F(7, 4), F(2 ** 70 + 1, 3)]),
                            rng.choice(spread) if field.rho else 0)
            for _ in range(dim)]


def random_integer(rng, field):
    p = field.prime or 7
    return rng.choice([0, 0, rng.randint(-9, 9) * p ** rng.randint(0, 3),
                       (2 ** 64 + rng.randint(1, 99)) * p ** rng.randint(0, 2)])


def random_metric(rng, field, nv):
    """A metric on P^(nv - 1) with a random invertible basis."""
    while True:
        basis = [[F(rng.randint(-4, 4), rng.choice([1, 2, 3, 5])) for _ in range(nv)]
                 for _ in range(nv)]
        if linalg.rank(basis) == nv:
            return QuotientMetric(NormedSpace(field, basis, random_weights(rng, field, nv)))


def random_section(rng, field, nv, n):
    return Section(field, nv, n, {e: F(rng.randint(-5, 5), rng.choice([1, 3, 4, 25]))
                                  for e in monomial_basis(nv - 1, n) if rng.random() < 0.6})


class TestKernel:
    """``_weighted_max`` against the Magnitude-per-entry loop, and against
    |x_j / d| * w_j by field arithmetic."""

    @pytest.mark.parametrize("field", FIELDS, ids=IDS)
    def test_equals_magnitude_loop(self, field):
        rng = random.Random(f"weighted-max/{field.kind}{field.prime}")
        p, nonzero = field.prime or 7, 0
        for _ in range(400):
            dim = rng.randint(1, 6)
            weights = random_weights(rng, field, dim)
            x = [random_integer(rng, field) for _ in range(dim)]
            d = rng.choice([1, -1, p, -5 * p ** 3, 2 ** 64 + 1])
            taken = set(rng.sample(range(dim), rng.randint(0, dim - 1)))
            got = _weighted_max(field, weights, x, d, taken)
            assert got == weighted_max_by_magnitudes(field, weights, x, d, taken)
            j, value = got
            assert value == magnitude_max([field.zero_magnitude()] + [
                field.abs(F(a, d)) * w for i, (a, w) in enumerate(zip(x, weights))
                if a and i not in taken])
            assert value == Magnitude(field.rho, value.q, value.n)  # normalized
            nonzero += j is not None
        assert nonzero >= 250

    @pytest.mark.parametrize("field", FIELDS, ids=IDS)
    def test_ties_go_to_the_first_index(self, field):
        w = field.magnitude(F(3, 5), 2 if field.rho else 0)
        for x in ([0, 7, -7, 7], [4, 4, 0, -4], [0, 0, 11, 11]):
            j, value = _weighted_max(field, [w] * 4, x, 1)
            assert j == next(i for i, a in enumerate(x) if a) and value == w
            assert (j, value) == weighted_max_by_magnitudes(field, [w] * 4, x, 1)
        # taking the first of a tie moves the pivot to the next equal entry
        assert _weighted_max(field, [w] * 4, [0, 7, -7, 7], 1, {1})[0] == 2

    def test_ties_across_exponent_and_coefficient(self):
        Q3 = PadicRationals(3)
        # |3| * 3 = |1| * 1 = 1: the tie goes to index 0, and taken moves it on
        weights = [Q3.magnitude(3), Q3.one_magnitude(), Q3.magnitude(F(1, 2))]
        assert _weighted_max(Q3, weights, [3, 1, 1], 1) == (0, Q3.one_magnitude())
        assert _weighted_max(Q3, weights, [3, 1, 1], 1, {0}) == (1, Q3.one_magnitude())
        assert _weighted_max(Q3, weights, [3, 1, 1], 9, {0, 1}) == (2, Q3.magnitude(F(9, 2)))
        big = PadicRationals(1000003)
        weights = [big.magnitude(1, 4096), big.magnitude(1, -4096)]
        # |1| rho^4096 = |p^8192| rho^-4096: an exponent gap of 8192 that ties
        assert _weighted_max(big, weights, [1, 1000003 ** 8192], 1) == (0, weights[0])
        assert _weighted_max(big, weights, [1, 1000003 ** 8192], 1, {0}) == (1, weights[0])
        assert _weighted_max(big, weights, [1, 1000003 ** 8191], 1) == (1, big.magnitude(1, 4095))

    @pytest.mark.parametrize("field", FIELDS, ids=IDS)
    def test_zero_rows_and_fully_taken_rows(self, field):
        w = random_weights(random.Random("zero"), field, 3)
        zero = (None, field.zero_magnitude())
        assert _weighted_max(field, w, [0, 0, 0], 1) == zero
        assert _weighted_max(field, w, [0, 0, 0], 5) == zero
        assert _weighted_max(field, w, [5, 0, 9], 1, {0, 2}) == zero
        assert _weighted_max(field, [], [], 1) == zero


class TestNormalizePoint:
    """``normalize_point``, pivoting by the kernel under unit weights, against
    the least-valuation pivot."""

    @pytest.mark.parametrize("field", FIELDS, ids=IDS)
    def test_equals_vp_pivot(self, field):
        rng = random.Random(f"normalize-kernel/{field.kind}{field.prime}")
        p = field.prime or 7
        for _ in range(300):
            coords = [rng.choice([0, F(rng.randint(-9, 9), rng.randint(1, 9))
                                  * F(p) ** rng.randint(-3, 3)]) for _ in range(rng.randint(1, 5))]
            if field.kind == "laurent" and rng.random() < 0.5:
                coords = [RationalFunction(c) for c in coords]
            if not any(linalg._constants(coords)):
                with pytest.raises(PreconditionError, match="^zero vector is not"):
                    normalize_point(field, coords)
                continue
            assert normalize_point(field, coords) == vp_pivot(field, coords)

    @pytest.mark.parametrize("field", FIELDS, ids=IDS)
    def test_ties_go_to_the_first_coordinate(self, field):
        assert normalize_point(field, [0, F(2, 5), F(-2, 5), 7]) == [0, 1, -1, F(35, 2)]
        assert normalize_point(field, [0, 6, 12]) == vp_pivot(field, [0, 6, 12])


class TestSupNorms:
    """``sup_norm`` (the Gauss space's norm) and linear-Y
    ``restricted_sup_norm`` (the kernel off the monomials in the forms that
    cut out Y) against the Gauss norm of the section in frame coordinates."""

    @staticmethod
    def restricted_by_gauss_norm(h, s, Y):
        g, norms = _complete_flag(h.base, Y.linear_forms)
        ones = [h.field.one_magnitude()] * h.num_vars
        forms = [Section.from_vector(h.field, h.m, 1, row) for row in linalg.invert(g)]
        u = _change_frame(_SymPowers([(f.ints, f.den) for f in forms], ones), s)
        return gauss_norm(h.field, u, norms, vanishing=len(Y.linear_forms))

    @pytest.mark.parametrize("field", FIELDS, ids=IDS)
    @pytest.mark.parametrize("nv", [2, 3], ids=["P1", "P2"])
    def test_sup_norm_equals_gauss_norm(self, field, nv):
        rng = random.Random(f"sup-norm/{field.kind}{field.prime}/{nv}")
        for _ in range(6):
            h = random_metric(rng, field, nv)
            for n in range(4):
                s = random_section(rng, field, nv, n)
                want = gauss_norm(field, h.to_frame_coordinates(s), h.base.weights)
                assert h.sup_norm(s) == want
                assert want.is_zero == (not s.coeffs)

    @pytest.mark.parametrize("field", FIELDS, ids=IDS)
    @pytest.mark.parametrize("nv", [2, 3], ids=["P1", "P2"])
    def test_linear_restriction_equals_gauss_norm(self, field, nv):
        rng = random.Random(f"restricted/{field.kind}{field.prime}/{nv}")
        checked = 0
        for _ in range(6):
            h = random_metric(rng, field, nv)
            for k in range(1, nv):
                forms = [[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(nv)]
                         for _ in range(k)]
                if linalg.rank(forms) < k:
                    continue
                Y = Subvariety(field, nv, linear_forms=forms)
                for n in range(4):
                    s = random_section(rng, field, nv, n)
                    assert (h.restricted_sup_norm(s, Y)
                            == self.restricted_by_gauss_norm(h, s, Y))
                    checked += 1
        assert checked >= 20

    def test_a_section_vanishing_on_the_line_has_zero_restriction(self):
        Q3 = PadicRationals(3)
        h = random_metric(random.Random("vanishing"), Q3, 3)
        Y = Subvariety(Q3, 3, linear_forms=[[F(1), F(2), F(-1)]])
        form = Section(Q3, 3, 1, {(1, 0, 0): F(1), (0, 1, 0): F(2), (0, 0, 1): F(-1)})
        s = form * Section(Q3, 3, 1, {(0, 1, 0): F(5, 9), (0, 0, 1): F(1)})
        assert h.restricted_sup_norm(s, Y).is_zero
        assert not h.sup_norm(s).is_zero


class TestDualWeights:
    """The reciprocal weights are built once per space and shared by the
    dual-side lift; ``dual_norm`` hands the dual space its own list."""

    @pytest.mark.parametrize("field", FIELDS, ids=IDS)
    def test_reciprocals_cached_and_not_shared(self, field):
        rng = random.Random(f"dual-weights/{field.kind}{field.prime}")
        N = random_metric(rng, field, 3).base
        dual = N.dual_weights()
        assert dual == [field.one_magnitude() / w for w in N.weights]
        assert N.dual_weights() is dual
        D = dual_norm(N)
        assert D.weights == dual and D.weights is not dual
        D.weights.append(field.one_magnitude())
        assert N.dual_weights() == [field.one_magnitude() / w for w in N.weights]
