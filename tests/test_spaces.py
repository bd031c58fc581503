"""Normed spaces: orthogonalization, distance, quotients, duals, lattices."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import reduce
from operator import add, mul

import pytest

from ultranorm import (LaurentRationals, Lattice, NormedSpace, PadicRationals,
                       PreconditionError, RationalFunction, TrivialRationals,
                       choose_laurent_base, distance_to_subspace, dual_norm,
                       lattice_from_norm, linalg, norm_attaining_lift,
                       norm_from_lattice, orthogonalize_flag, quotient_norm,
                       scalar_extension)
from ultranorm import spaces as spaces_module
from ultranorm.fields import _vp
from ultranorm.metrics import QuotientMetric
from ultranorm.spaces import canonical_lattice_columns, lift_constant


def F(x, y=1):
    return Fraction(x, y)


def standard(field, dim):
    return NormedSpace.standard(field, dim)


def weighted(field, weights):
    dim = len(weights)
    basis = [[F(1) if i == j else F(0) for j in range(dim)] for i in range(dim)]
    return NormedSpace(field, basis, [field.magnitude(w) for w in weights])


class TestNorm:
    def test_sup_norm_on_standard_basis(self):
        Q2 = PadicRationals(2)
        space = standard(Q2, 2)
        assert space.norm([F(6), F(1)]).value() == 1
        assert space.norm([F(4), F(8)]).value() == F(1, 4)
        assert space.norm([F(0), F(0)]).is_zero

    def test_norm_in_skew_basis(self):
        Q2 = PadicRationals(2)
        space = NormedSpace(Q2, [[F(1), F(1)], [F(0), F(2)]],
                            [Q2.one_magnitude(), Q2.one_magnitude()])
        # columns (1,0) and (1,2); (0,1) = -1/2*(1,0) + 1/2*(1,2)
        assert space.norm([F(0), F(1)]).value() == 2

    def test_value_set_discrete(self):
        Q2 = PadicRationals(2)
        space = weighted(Q2, [F(1), F(3)])
        vals = space.norm_value_set()
        qs = sorted(v.q for v in vals if not v.is_zero)
        assert qs == [F(1), F(3)]

    def test_value_set_trivial_includes_zero(self):
        K = TrivialRationals()
        space = weighted(K, [F(1), F(2)])
        vals = sorted(v.value() for v in space.norm_value_set())
        assert vals == [F(0), F(1), F(2)]


class TestOrthogonalizeFlag:
    def test_frozen_example(self):
        Q2 = PadicRationals(2)
        space = standard(Q2, 2)
        g, norms, pivots = orthogonalize_flag(space, [[F(6), F(0)],
                                                      [F(2), F(1)]])
        assert [w.value() for w in norms] == [F(1, 2), F(1)]
        assert g[0] == [F(6), F(0)]

    def test_flag_preserved_and_orthogonal(self):
        rng = random.Random(11)
        for p in (2, 3, 5):
            field = PadicRationals(p)
            for _ in range(10):
                dim = rng.randint(1, 4)
                space = weighted(field, [F(p) ** rng.randint(-1, 1)
                                         for _ in range(dim)])
                vecs = [[F(rng.randint(-6, 6)) for _ in range(dim)]
                        for _ in range(dim)]
                import ultranorm.linalg as lg
                if lg.rank([[Fraction(x) for x in v] for v in vecs]) < dim:
                    continue
                g, norms, _ = orthogonalize_flag(space, vecs)
                # same flag: span(v_1..v_k) == span(g_1..g_k)
                for k in range(1, dim + 1):
                    assert lg.rank(vecs[:k] + g[:k]) == k
                # orthogonality on random coefficients
                for _ in range(20):
                    coeffs = [F(rng.randint(-8, 8)) for _ in range(dim)]
                    v = [sum(c * gi[i] for c, gi in zip(coeffs, g))
                         for i in range(dim)]
                    expect = max((field.abs(c) * w for c, w in
                                  zip(coeffs, norms)), default=None)
                    assert space.norm(v) == expect


class TestDistance:
    def test_frozen_padic_example(self):
        Q2 = PadicRationals(2)
        space = standard(Q2, 2)
        dist, closest = distance_to_subspace(space, [F(2), F(1)],
                                             [[F(1), F(0)]])
        assert dist.value() == 1
        assert closest == [F(2), F(0)]

    def test_frozen_trivial_example(self):
        K = TrivialRationals()
        space = standard(K, 2)
        dist, closest = distance_to_subspace(space, [F(2), F(1)],
                                             [[F(1), F(0)]])
        assert dist.value() == 1

    def test_minimizer_is_in_subspace_and_attains(self):
        Q3 = PadicRationals(3)
        space = weighted(Q3, [F(1), F(3), F(1, 3)])
        x = [F(2), F(5), F(7)]
        W = [[F(1), F(0), F(1)], [F(0), F(1), F(2)]]
        dist, closest = distance_to_subspace(space, x, W)
        import ultranorm.linalg as lg
        coords = lg.solve([[Fraction(W[j][i]) for j in range(2)]
                           for i in range(3)], closest)
        assert coords is not None
        diff = [a - b for a, b in zip(x, closest)]
        assert space.norm(diff) == dist


def assert_t_cannot_be_built(K):
    """T, the one generator of Q(T) that is no constant, has no maker: the
    refusal that stands in for the kernels' own."""
    with pytest.raises(ValueError, match="^the laurent field has no uniformizer element$"):
        K.uniformizer()
    with pytest.raises(TypeError, match="exact rational"):
        RationalFunction((F(0), F(1)))


def random_element(rng, field):
    """A random rational; over Q(T) a constant, as a config gives it."""
    return field.element(F(rng.randint(-6, 6), rng.randint(1, 4)))


def loop_mat_vec(a, v):
    """a v by the field loop, the reference for every route of mat_vec."""
    return [reduce(add, map(mul, row, v)) for row in a]


def basis_times(space, a):
    """The vector with coordinates a: the "basis" integer form times a, as
    ``orthogonalize_flag`` and ``distance_to_subspace`` build their vectors."""
    return space._vectors([linalg._integer_row(linalg._constants(a))])[0]


def random_space(rng, field, dim):
    """A non-diagonal orthogonal basis with random weights."""
    while True:
        basis = [[random_element(rng, field) for _ in range(dim)]
                 for _ in range(dim)]
        if linalg.rank(basis) < dim:
            continue
        if field.kind == "trivial":
            weights = [field.magnitude(F(rng.randint(1, 9), rng.randint(1, 4)))
                       for _ in range(dim)]
        else:
            weights = [field.magnitude(rng.randint(1, 5), rng.randint(-2, 2))
                       for _ in range(dim)]
        return NormedSpace(field, basis, weights)


class TestOrthogonalizeAgainstDistance:
    """The norm of the last orthogonalized flag vector g_{t+1} is the
    distance from v_{t+1} to span(v_1..v_t): two routes through the
    orthogonal elimination that must agree."""

    @pytest.mark.parametrize("field", [
        PadicRationals(2), PadicRationals(3), TrivialRationals(),
        LaurentRationals(5)], ids=lambda f: f"{f.kind}{f.prime or ''}")
    def test_last_flag_norm_is_distance(self, field):
        rng = random.Random(17)
        dim_max = 3 if field.kind == "laurent" else 4
        checked = 0
        for _ in range(25):
            dim = rng.randint(1, dim_max)
            space = random_space(rng, field, dim)
            t = rng.randint(0, dim - 1)
            vecs = [[random_element(rng, field) for _ in range(dim)]
                    for _ in range(t + 1)]
            if linalg.rank(vecs) < t + 1:
                continue
            g, norms, _ = orthogonalize_flag(space, vecs)
            dist, w = distance_to_subspace(space, vecs[t], vecs[:t])
            assert dist == norms[t] == space.norm(g[t])
            # w lies in the subspace and attains the distance
            if t:
                assert linalg.rank(vecs[:t] + [w]) == t
            assert space.norm([a - b for a, b in zip(vecs[t], w)]) == dist
            checked += 1
        assert checked >= 15


def _clear(target, row, j):
    """target minus the multiple of row that vanishes at coordinate j, in
    field arithmetic: the oracle of ``spaces._reduce``."""
    c = target[j]
    if c == 0:
        return target
    f = c / row[j]
    return [a - f * b for a, b in zip(target, row)]


def _field_norm(field, weights, coords):
    """max_j |a_j| * w_j over field elements: the oracle of the weighted
    max in integers (``spaces._weighted_max``)."""
    best = field.zero_magnitude()
    for a, w in zip(coords, weights):
        if a != 0:
            best = max(best, field.abs(a) * w)
    return best


def _eliminate_rows(field, weights, rows):
    """``spaces._eliminate_integer`` on rows of rationals or constants of
    Q(T), in place: each row made one (integers, d) pair, eliminated, and
    written back entry by entry as Fractions."""
    work = list(map(linalg._integer_row, linalg._constant_matrix(rows)))
    result = spaces_module._eliminate_integer(field, weights, work)
    rows[:] = [[Fraction(a, d) for a in r] for r, d in work]
    return result


def _eliminate_field(field, weights, rows):
    """The orthogonal elimination one field element at a time, over any
    exact field: the oracle."""
    pivots, norms = [], []
    for i, row in enumerate(rows):
        best_j, best_val = None, field.zero_magnitude()
        for j, w in enumerate(weights):
            if j in pivots or row[j] == 0:
                continue
            val = field.abs(row[j]) * w
            if best_j is None or val > best_val:
                best_j, best_val = j, val
        if best_j is None:
            raise PreconditionError(
                f"flag vectors are linearly dependent at position {i}")
        pivots.append(best_j)
        norms.append(best_val)
        for k in range(i + 1, len(rows)):
            rows[k] = _clear(rows[k], row, best_j)
    return pivots, norms


class TestIntegerElimination:
    """``_eliminate_integer`` on rational rows (``_eliminate_rows``) against
    the field loop ``_eliminate_field``, the oracle: same pivots, norms,
    final rows and errors."""

    FIELDS = [PadicRationals(2), PadicRationals(3), PadicRationals(1000003),
              TrivialRationals()]

    @staticmethod
    def both(field, weights, rows):
        """(pivots, norms, rows) or the error text, from each route."""
        out = []
        for eliminate in (_eliminate_rows, _eliminate_field):
            work = [list(r) for r in rows]
            try:
                pivots, norms = eliminate(field, weights, work)
            except PreconditionError as exc:
                out.append(str(exc))
            else:
                out.append((pivots, norms, work))
        return out

    @staticmethod
    def entry(rng, big):
        if rng.random() < 0.3:
            return F(0)
        num, den = rng.randint(-9, 9), rng.randint(1, 12)
        if big:  # numerators and denominators above 2^64
            num, den = num * (2 ** 64 + rng.randint(1, 99)), den * 3 ** 41
        return F(num, den)

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"{f.kind}{f.prime or ''}")
    def test_matches_field_loop(self, field):
        rng = random.Random(f"eliminate/{field.kind}{field.prime}")
        kept = 0
        for trial in range(300):
            dim = rng.randint(1, 5)
            rows = [[self.entry(rng, trial % 3 == 0) for _ in range(dim)]
                    for _ in range(rng.randint(1, dim))]
            if field.kind == "trivial":
                weights = [field.magnitude(rng.choice([1, 2, F(1, 2)]))
                           for _ in range(dim)]
            else:
                weights = [field.magnitude(rng.choice([1, 3, 5]), rng.randint(-2, 2))
                           for _ in range(dim)]
            got, want = self.both(field, weights, rows)
            assert got == want
            if not isinstance(want, str):
                assert all(isinstance(x, Fraction) for row in got[2] for x in row)
                kept += 1
        assert kept >= 100

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"{f.kind}{f.prime or ''}")
    def test_first_j_wins_ties(self, field):
        one = field.one_magnitude()
        # |3/4| = |-3/4| at every place, so the first column is the pivot
        got, want = self.both(field, [one, one], [[F(3, 4), F(-3, 4)], [F(1), F(2)]])
        assert got == want
        assert got[0] == [0, 1]
        assert got[1][0] == field.abs(F(3, 4))

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"{f.kind}{f.prime or ''}")
    @pytest.mark.parametrize("rows,position", [
        ([[F(0), F(0)]], 0),
        ([[F(1), F(2)], [F(-1, 3), F(-2, 3)]], 1),
        ([[F(1), F(0), F(1)], [F(0), F(1), F(0)], [F(2), F(5, 7), F(2)]], 2),
    ], ids=["zero", "proportional", "combination"])
    def test_dependent_rows_same_message(self, field, rows, position):
        weights = [field.one_magnitude()] * len(rows[0])
        got, want = self.both(field, weights, rows)
        assert got == want == (f"flag vectors are linearly dependent at "
                               f"position {position}")

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"{f.kind}{f.prime or ''}")
    def test_drop_keeps_the_extend_basis_selection(self, field):
        # with drop, the rows that reduce to zero leave, and the rest is the
        # elimination of the rows linalg.extend_basis keeps
        rng = random.Random(f"eliminate-drop/{field.kind}{field.prime}")
        dropped = 0
        for _ in range(120):
            dim = rng.randint(1, 4)
            rows = [[self.entry(rng, False) for _ in range(dim)]
                    for _ in range(rng.randint(1, dim + 2))]
            for _ in range(rng.randint(0, 2)):  # a combination of two rows
                a, b = rng.choice(rows), rng.choice(rows)
                rows.insert(rng.randint(0, len(rows)), [x - 3 * y for x, y in zip(a, b)])
            weights = [field.magnitude(rng.choice([1, 3, 5]),
                                       rng.randint(-2, 2) if field.rho else 0)
                       for _ in range(dim)]
            want_rows = [rows[i] for i in linalg.extend_basis([], rows, dim)]
            want = _eliminate_field(field, weights, want_rows)
            work = [linalg._integer_row(r) for r in rows]
            got = spaces_module._eliminate_integer(field, weights, work, drop=True)
            assert got == want
            assert [[Fraction(x, d) for x in r] for r, d in work] == want_rows
            dropped += len(rows) > len(want_rows)
        assert dropped >= 40

    def test_rows_stay_primitive_and_build_no_fraction(self, monkeypatch):
        """Each final row t / d comes back as integers with gcd(t, d) = 1 and
        the rational row's value: the kernel divides out the common factor
        at every step, so its integers do not grow past the reduced form,
        and it builds no Fraction."""
        rng = random.Random("eliminate/primitive")
        Q3 = PadicRationals(3)
        built = []
        monkeypatch.setattr(spaces_module, "Fraction",
                            lambda *args: built.append(args) or Fraction(*args))
        for _ in range(40):
            dim = rng.randint(2, 5)
            rows = [[self.entry(rng, False) for _ in range(dim)]
                    for _ in range(rng.randint(2, dim))]
            work = [linalg._integer_row(r) for r in rows]
            want = [list(r) for r in rows]
            try:
                result = spaces_module._eliminate_integer(
                    Q3, [Q3.one_magnitude()] * dim, work)
            except PreconditionError:
                continue
            assert result == _eliminate_field(Q3, [Q3.one_magnitude()] * dim, want)
            for (t, d), row in zip(work, want):
                assert math.gcd(*t, d) == 1
                assert [Fraction(a, d) for a in t] == row
        assert not built

    def test_norm_divides_out_the_denominator(self):
        Q2 = PadicRationals(2)
        # row (3/8, 1/2): |3/8|_2 = 8 is the largest entry norm
        got, want = self.both(Q2, [Q2.one_magnitude()] * 2, [[F(3, 8), F(1, 2)]])
        assert got == want
        assert got[1][0].value() == 8

    def test_rational_rows_take_the_integer_kernel(self, monkeypatch):
        space = weighted(PadicRationals(3), [F(1), F(3), F(1, 3)])
        flag = [[F(1), F(2), F(3)], [F(0), F(1), F(1, 9)]]
        want = TestConstantRoute.field_orthogonalize(space, flag)
        calls = []
        kernel = spaces_module._eliminate_integer
        monkeypatch.setattr(spaces_module, "_eliminate_integer",
                            lambda *args: calls.append(args) or kernel(*args))
        assert orthogonalize_flag(space, flag) == want
        assert want[2] == [1, 2] and len(calls) == 1

    @staticmethod
    def laurent_problem():
        """A trivial space, its Laurent extension, and a point with a plane
        to measure from, with the distance over Q."""
        rng = random.Random("eliminate/laurent")
        space = random_space(rng, TrivialRationals(), 3)
        x, subspace = [F(1), F(0), F(5)], [[F(1), F(2), F(0)], [F(0), F(1), F(1)]]
        want = distance_to_subspace(space, x, subspace)[0]
        ext = scalar_extension(space, LaurentRationals(choose_laurent_base(
            [w.value() for w in space.weights] + [F(1)])))
        return ext, x, subspace, want

    def test_non_constant_rows_are_refused(self):
        # a row holding T cannot be built; c v spans what v spans, and a
        # nonzero constant has |c| = 1, so c x lies at the rational distance
        ext, x, subspace, want = self.laurent_problem()
        assert_t_cannot_be_built(ext.field)
        for c in (F(1), F(-3), F(2, 7)):
            c = ext.field.from_rational(c)
            lift = [[c * a for a in v] for v in [*subspace, x]]
            dist = distance_to_subspace(ext, lift[2], lift[:2])[0]
            assert (dist.q, dist.n) == (want.q, 0)
            g, norms, _ = orthogonalize_flag(ext, lift)
            assert norms[2] == dist and all(type(a) is Fraction for a in g[2])

    def test_constant_rows_take_the_integer_kernel(self, monkeypatch):
        ext, x, subspace, want = self.laurent_problem()
        lift = [[ext.field.from_rational(a) for a in v] for v in [*subspace, x]]
        calls = []
        kernel = spaces_module._eliminate_integer
        monkeypatch.setattr(spaces_module, "_eliminate_integer",
                            lambda *args: calls.append(args) or kernel(*args))
        got = distance_to_subspace(ext, lift[2], lift[:2])
        assert got == TestConstantRoute.field_distance(ext, lift[2], lift[:2])
        assert got[0].q == want.q and len(calls) == 1
        assert all(type(a) is Fraction for a in got[1])


class TestIntegerRoute:
    """``orthogonalize_flag``, ``distance_to_subspace`` and ``norm`` keep
    each coordinate row as (integers, d) from ``coordinates`` to the
    result: against the field loops (``TestConstantRoute``, ``_field_norm``)
    on Q_2, Q_3, Q_1000003, the trivial field, its Laurent extension and a
    Gauss space, on coordinates whose integers share a power of p with
    their denominator, and on dependent flags."""

    @staticmethod
    def space(name, rng):
        if name == "trivial" or name == "laurent":
            base = random_space(rng, TrivialRationals(), 3)
            if name == "trivial":
                return base, 2
            P = choose_laurent_base([w.value() for w in base.weights] + [F(1)])
            return scalar_extension(base, LaurentRationals(P)), 2
        if name == "gauss":
            h = QuotientMetric(random_space(rng, PadicRationals(3), 2))
            return h.gauss_space(3), 3
        p = int(name[1:])
        field = PadicRationals(p)
        if rng.random() < 0.5:
            return weighted(field, [F(p) ** rng.randint(-2, 2) for _ in range(3)]), p
        return random_space(rng, field, 3), p

    @staticmethod
    def vector(rng, space, p):
        # (1/p^2, 3/p, p/5): the integers over d = 5 p^2 hold powers of p too
        entries = [F(rng.randint(-9, 9) * p ** rng.randint(0, 2),
                     rng.randint(1, 5) * p ** rng.randint(0, 3)) for _ in range(space.dim)]
        return [space.field.element(x) for x in entries]

    @pytest.mark.parametrize("name", ["Q2", "Q3", "Q1000003", "trivial", "laurent", "gauss"])
    def test_routes_equal_the_field_loops(self, name):
        rng = random.Random(f"integer-route/{name}")
        checked = 0
        for _ in range(12):
            space, p = self.space(name, rng)
            vectors = [self.vector(rng, space, p) for _ in range(space.dim)]
            if linalg.rank(vectors) < space.dim:
                continue
            x, flag = vectors[-1], vectors[:-1]
            got = orthogonalize_flag(space, vectors)
            assert got == TestConstantRoute.field_orthogonalize(space, vectors)
            dist = distance_to_subspace(space, x, flag)
            assert dist == TestConstantRoute.field_distance(space, x, flag)
            assert TestConstantRoute.of_type(Fraction, got[0], [dist[1]])
            for v in vectors + [[space.field.zero()] * space.dim]:
                coords = loop_mat_vec(space.basis_inverse(), v)
                assert space.norm(v) == _field_norm(space.field, space.weights, coords)
            # the last vector a combination of the first two
            dependent = vectors[:2] + [[F(2, p) * a - F(p, 3) * b
                                        for a, b in zip(vectors[0], vectors[1])]]
            errors = []
            for route in (lambda: orthogonalize_flag(space, dependent),
                          lambda: distance_to_subspace(space, x, dependent),
                          lambda: TestConstantRoute.field_orthogonalize(space, dependent)):
                with pytest.raises(PreconditionError) as info:
                    route()
                errors.append(str(info.value))
            assert errors == ["flag vectors are linearly dependent at position 2"] * 3
            checked += 1
        assert checked >= 8


class TestIntegerForms:
    """A rational space keeps its basis, inverse and columns as (integers,
    d) rows, built once; over Q(T) a basis of constants has the forms of its
    rational values."""

    @pytest.mark.parametrize("field", [PadicRationals(2), TrivialRationals()],
                             ids=lambda f: f.kind)
    def test_forms_equal_mat_vec(self, field):
        rng = random.Random(f"forms/{field.kind}")
        for dim in (1, 2, 3, 4):
            space = random_space(rng, field, dim)
            for key, rows in (("basis", lambda: space.basis),
                              ("inverse", space.basis_inverse),
                              ("columns", space.columns)):
                form = space._integer_form(key)
                assert [[F(x, d) for x in ints] for ints, d in form] == rows()
                assert space._integer_form(key) is form  # built once
            for _ in range(4):
                v = [F(rng.randint(-9, 9), rng.choice([1, 7, 2 ** 65]))
                     for _ in range(dim)]
                assert space.coordinates(v) == linalg.mat_vec(space.basis_inverse(), v)
                assert basis_times(space, v) == linalg.mat_vec(space.basis, v)
                assert basis_times(space, space.coordinates(v)) == v

    @pytest.mark.parametrize("field", [PadicRationals(3), TrivialRationals()],
                             ids=lambda f: f.kind)
    def test_inverse_form_matches_invert(self, field):
        # the inverse comes from the integer adjugate; linalg.invert is the oracle
        rng = random.Random(f"adjugate/{field.kind}")
        for dim in (1, 2, 3, 4, 5):
            for _ in range(6):
                space = random_space(rng, field, dim)
                inverse = linalg.invert(space.basis)
                assert space._integer_form("inverse") == [
                    linalg._integer_row(row) for row in inverse]
                assert space.basis_inverse() == inverse
                assert dual_norm(space).basis == linalg.transpose(inverse)

    @pytest.mark.parametrize("basis, reason", [
        ([[F(1), F(2)], [F(1, 2), F(1)]], "singular matrix"),
        ([[F(0), F(1, 3)], [F(0), F(2)]], "singular matrix"),
        ([[F(0), F(0)], [F(0), F(0)]], "singular matrix (zero)"),
        ([], "singular matrix (zero)")])
    def test_singular_basis_message(self, basis, reason):
        field = PadicRationals(2)
        space = NormedSpace(field, basis, [field.one_magnitude()] * len(basis))
        with pytest.raises(PreconditionError) as info:
            space.coordinates([F(1)] * len(basis))
        assert str(info.value) == f"basis is not invertible ({reason})"

    def test_non_constant_basis_has_no_integer_form(self):
        """A basis or a vector holding T cannot be built; constants take the
        forms."""
        rng = random.Random("forms/laurent")
        K = LaurentRationals(5)
        assert_t_cannot_be_built(K)
        weights = [K.magnitude(1, n) for n in (0, 1, -1)]
        base = random_space(rng, TrivialRationals(), 3)
        space = NormedSpace(K, lift_constant(base.basis), weights)
        assert space.integer_columns() == base.integer_columns()
        for v in ([random_element(rng, K) for _ in range(3)],
                  [K.from_rational(F(rng.randint(-5, 5))) for _ in range(3)]):
            for w in (v, lift_constant([v])[0]):
                assert space.coordinates(w) == loop_mat_vec(space.basis_inverse(), v)
                assert basis_times(space, w) == loop_mat_vec(base.basis, v)
                assert space.norm(w) == space.norm(v)

    def test_constant_basis_takes_the_base_forms(self):
        rng = random.Random("forms/laurent-constant")
        base = random_space(rng, TrivialRationals(), 3)
        ext = scalar_extension(base, LaurentRationals(5))
        for key in ("basis", "inverse"):
            assert ext._integer_form(key) == base._integer_form(key)
        assert ext.integer_columns() == base.integer_columns()
        assert ext.basis_inverse() == linalg.invert(lift_constant(ext.basis))
        assert all(type(x) is Fraction for row in ext.basis_inverse() for x in row)
        for v in ([random_element(rng, ext.field) for _ in range(3)],
                  [ext.field.from_rational(F(rng.randint(-5, 5))) for _ in range(3)]):
            assert ext.coordinates(v) == loop_mat_vec(ext.basis_inverse(), v)
            assert basis_times(ext, v) == loop_mat_vec(ext.basis, v)


class TestConstantRoute:
    """Over Q(T), rows of constants take the integer kernels: against the
    field loops (``_eliminate_field``, ``loop_mat_vec``) and the lifted
    ``linalg.invert`` on random trivial spaces lifted to several base
    primes.  Constants of Q(T) or Fractions in, Fractions out."""

    PRIMES = (2, 3, 5, 7)

    @staticmethod
    def field_orthogonalize(space, vectors):
        work = [loop_mat_vec(space.basis_inverse(), v) for v in vectors]
        pivots, norms = _eliminate_field(space.field, space.weights, work)
        return [loop_mat_vec(space.basis, row) for row in work], norms, pivots

    @staticmethod
    def field_distance(space, x, vectors):
        residual = loop_mat_vec(space.basis_inverse(), x)
        work = [loop_mat_vec(space.basis_inverse(), v) for v in vectors]
        pivots, _ = _eliminate_field(space.field, space.weights, work)
        for row, j in zip(work, pivots):
            residual = _clear(residual, row, j)
        g = loop_mat_vec(space.basis, residual)
        return (_field_norm(space.field, space.weights, residual),
                [a - b for a, b in zip(x, g)])

    @staticmethod
    def of_type(kind, *nested):
        return all(isinstance(x, kind) for rows in nested for row in rows for x in row)

    def spaces(self, rng, P, dim):
        """The lift of a random trivial space to Q(T) with base prime P, and
        the same rational basis over Q(T), as a config gives it."""
        base = random_space(rng, TrivialRationals(), dim)
        ext = scalar_extension(base, LaurentRationals(P))
        return ext, NormedSpace(ext.field, base.basis, ext.weights), base

    @pytest.mark.parametrize("P", PRIMES)
    def test_kernels_equal_the_field_loops(self, P):
        rng = random.Random(f"constant-route/{P}")
        for dim in (1, 2, 3, 4):
            ext, rational, base = self.spaces(rng, P, dim)
            assert ext.basis_inverse() == linalg.invert(lift_constant(base.basis))
            assert self.of_type(Fraction, ext.basis_inverse())
            for space, lifted in ((ext, True), (rational, False)):
                values = [[F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(dim)]
                          for _ in range(dim)]
                vectors = lift_constant(values) if lifted else values
                if linalg.rank(vectors) < dim:
                    continue
                k = rng.randint(0, dim - 1)
                x, flag = vectors[-1], vectors[:k]
                for v, w in zip(vectors, values):
                    got = (space.coordinates(v), basis_times(space, v),
                           linalg.mat_vec(space.basis, v))
                    want = (loop_mat_vec(space.basis_inverse(), w),
                            loop_mat_vec(space.basis, w), loop_mat_vec(space.basis, w))
                    assert got == want and self.of_type(Fraction, got)
                got = orthogonalize_flag(space, vectors)
                assert got == self.field_orthogonalize(space, values)
                assert self.of_type(Fraction, got[0])
                got = distance_to_subspace(space, x, flag)
                assert got == self.field_distance(space, values[-1], values[:k])
                assert self.of_type(Fraction, [got[1]])

    @pytest.mark.parametrize("P", PRIMES)
    def test_mixed_and_non_constant_input(self, P):
        """A Fraction matrix on a vector of tagged constants gives
        Fractions; a non-constant entry cannot be built."""
        rng = random.Random(f"constant-route/mixed/{P}")
        K = LaurentRationals(P)
        assert_t_cannot_be_built(K)
        for dim in (1, 2, 3):
            ext, rational, _ = self.spaces(rng, P, dim)
            w = [K.from_rational(F(rng.randint(-6, 6), rng.randint(1, 4))) for _ in range(dim)]
            v = lift_constant([w])[0]
            got = linalg.mat_vec(rational.basis, v)
            assert got == loop_mat_vec(rational.basis, w) and self.of_type(Fraction, [got])
            assert rational.coordinates(v) == loop_mat_vec(rational.basis_inverse(), w)
            assert self.of_type(Fraction, [rational.coordinates(v)])
            rows = [ext.coordinates(v)]
            work = [list(r) for r in rows]
            assert (_eliminate_rows(K, ext.weights, rows)
                    == _eliminate_field(K, ext.weights, work))
            assert rows == work


class TestQuotient:
    def test_frozen_example(self):
        Q2 = PadicRationals(2)
        space = weighted(Q2, [F(1), F(1, 4)])
        quo, lifts = quotient_norm(space, [[F(1), F(1)]])
        assert quo.dim == 1
        assert quo.norm([F(1)]).value() == F(1, 4)
        assert lifts[0] in ([F(0), F(1)], [F(1), F(0)])
        assert space.norm(lifts[0]) == quo.norm([F(1)])

    def test_lift_attains_quotient_norm(self):
        rng = random.Random(5)
        Q3 = PadicRationals(3)
        for _ in range(20):
            dim = rng.randint(2, 4)
            space = weighted(Q3, [F(3) ** rng.randint(-1, 1)
                                  for _ in range(dim)])
            surj = [[F(rng.randint(-4, 4)) for _ in range(dim)]]
            import ultranorm.linalg as lg
            if lg.rank([[Fraction(x) for x in r] for r in surj]) < 1:
                continue
            quo, _ = quotient_norm(space, surj)
            target = [F(rng.randint(-5, 5))]
            if all(t == 0 for t in target):
                continue
            lift = norm_attaining_lift(space, surj, target)
            image = [sum(surj[0][i] * lift[i] for i in range(dim))]
            assert image == target
            assert space.norm(lift) == quo.norm(target)
            # random coset samples never beat the lift
            ker = lg.kernel_basis([[Fraction(x) for x in r] for r in surj])
            for _ in range(20):
                coeffs = [F(rng.randint(-6, 6)) for _ in ker]
                k = [sum(c * kv[i] for c, kv in zip(coeffs, ker))
                     for i in range(dim)]
                other = [a + b for a, b in zip(lift, k)]
                assert space.norm(other) >= space.norm(lift)


class TestDual:
    def test_frozen_example(self):
        Q2 = PadicRationals(2)
        space = weighted(Q2, [F(1), F(2)])
        dual = dual_norm(space)
        assert [w.value() for w in dual.weights] == [F(1), F(1, 2)]

    def test_double_dual_isometry(self):
        rng = random.Random(3)
        Q5 = PadicRationals(5)
        for _ in range(20):
            dim = rng.randint(1, 4)
            space = weighted(Q5, [F(5) ** rng.randint(-2, 2)
                                  for _ in range(dim)])
            dd = dual_norm(dual_norm(space))
            for _ in range(10):
                v = [F(rng.randint(-9, 9)) for _ in range(dim)]
                assert space.norm(v) == dd.norm(v)


class TestLattice:
    def test_frozen_round_trip(self):
        Q2 = PadicRationals(2)
        space = weighted(Q2, [F(1), F(2)])
        lat = lattice_from_norm(space)
        cols = lat.columns()
        assert cols == [[F(1), F(0)], [F(0), F(2)]]
        back = norm_from_lattice(lat)
        assert [w.value() for w in back.weights] == [F(1), F(1)]

    @staticmethod
    def searched_scale(w, p):
        """The smallest m with (1/p)^m * w <= 1, by the search over m that
        the closed form replaced."""
        wv = w.value()
        m = 0
        if wv > 1:
            while Fraction(p) ** m < wv:
                m += 1
        else:
            while Fraction(p) ** (m - 1) >= wv:
                m -= 1
        return m

    def test_closed_form_scale_equals_search(self):
        rng = random.Random("lattice-scale")
        for p in (2, 3, 5, 1000003):
            field = PadicRationals(p)
            extremes = (-4096, 4096) if p in (2, 1000003) else ()
            for n in (-37, -1, 0, 1, 5) + extremes:
                for _ in range(1 if n in extremes else 3):
                    q = F(rng.randint(1, 10 ** rng.randint(1, 12)),
                          rng.randint(1, 10 ** rng.randint(1, 12)))
                    space = NormedSpace(field, [[F(1)]], [field.magnitude(q, n)])
                    [[g]] = lattice_from_norm(space).basis
                    # g spans the unit ball: norm(g) <= 1 < norm(g / p)
                    one = field.one_magnitude()
                    assert space.norm([g]) <= one < space.norm([g / p])
                    if abs(n) < 100:
                        assert g == F(p) ** self.searched_scale(space.weights[0], p)

    def test_canonical_form_is_basis_independent(self):
        Q2 = PadicRationals(2)
        a = Lattice.from_columns(Q2, [[F(1), F(0)], [F(0), F(2)]])
        b = Lattice.from_columns(Q2, [[F(1), F(0)], [F(2), F(2)]])
        # second set spans the same Z_(2)-lattice:
        # (1,2) = (1,0) + (0,2); (0,2) = (1,2) - (1,0)
        assert a == b

    def test_sandwich_strict(self):
        rng = random.Random(9)
        for p in (2, 3, 5):
            field = PadicRationals(p)
            for _ in range(10):
                dim = rng.randint(1, 3)
                space = weighted(field, [F(p) ** rng.randint(-1, 1)
                                         * (1 if rng.random() < 0.5
                                            else F(1))
                                         for _ in range(dim)])
                lat_norm = norm_from_lattice(lattice_from_norm(space))
                for _ in range(20):
                    v = [F(rng.randint(-9, 9)) for _ in range(dim)]
                    if all(x == 0 for x in v):
                        continue
                    base = space.norm(v).value()
                    rounded = lat_norm.norm(v).value()
                    assert base <= rounded < p * base

    @staticmethod
    def random_columns(rng, p, n):
        def entry():
            if rng.random() < 0.25:
                return F(0)
            return F(rng.randint(-50, 50) * p ** rng.randint(0, 3),
                     rng.randint(1, 30) * p ** rng.randint(0, 3))
        return [[entry() for _ in range(n)] for _ in range(n)]

    @staticmethod
    def canonical(kernel, p, cols):
        try:
            return kernel(p, [list(c) for c in cols])
        except PreconditionError as exc:
            return str(exc)

    def test_integer_kernel_matches_fraction_loop(self):
        rng = random.Random("hermite")
        dependent = 0
        for _ in range(600):
            p = rng.choice((2, 3, 5, 7, 1000003))
            n = rng.randint(1, 8)
            cols = self.random_columns(rng, p, n)
            if n > 1 and rng.random() < 0.1:
                cols[-1] = [3 * x - F(1, p) * y
                            for x, y in zip(cols[0], cols[1])]
            want = self.canonical(fraction_hermite, p, cols)
            assert self.canonical(canonical_lattice_columns, p, cols) == want
            dependent += isinstance(want, str)
        assert dependent >= 20
        for p in (2, 3):  # every error message, from its own input
            for cols in ([[F(1), F(0)], [F(0), F(0)]],
                         [[F(1), F(2)], [F(p), F(2 * p)]],
                         [[F(0), F(1), F(0)], [F(0), F(2), F(0)],
                          [F(1), F(0), F(0)]]):
                assert (self.canonical(canonical_lattice_columns, p, cols)
                        == self.canonical(fraction_hermite, p, cols))

    def test_canonical_form_ignores_column_order_and_units(self):
        # the form depends on the lattice alone, so no output or error can
        # show which of two tied columns became the pivot
        rng = random.Random("hermite-order")
        for _ in range(100):
            p = rng.choice((2, 3, 5))
            n = rng.randint(1, 5)
            cols = self.random_columns(rng, p, n)
            units = [F(rng.choice((1, -1, 7)), rng.choice((1, 11, 13)))
                     for _ in cols]
            shuffled = [[u * x for x in c] for u, c in zip(units, cols)]
            rng.shuffle(shuffled)
            assert (self.canonical(canonical_lattice_columns, p, shuffled)
                    == self.canonical(canonical_lattice_columns, p, cols))

    def test_integer_kernel_on_huge_weights(self, monkeypatch):
        rng = random.Random("hermite-weights")
        spaces = []
        for p in (2, 1000003):
            field = PadicRationals(p)
            for _ in range(4):
                n = rng.randint(1, 4)
                basis = self.random_columns(rng, p, n)
                if linalg.rank(basis) < n:
                    continue
                weights = [field.magnitude(F(rng.randint(1, 99),
                                             rng.randint(1, 99)),
                                           rng.choice((-4096, 0, 4096)))
                           for _ in range(n)]
                spaces.append(NormedSpace(field, basis, weights))
        got = [lattice_from_norm(sp).basis for sp in spaces]
        monkeypatch.setattr(spaces_module, "canonical_lattice_columns",
                            fraction_hermite)
        assert got == [lattice_from_norm(sp).basis for sp in spaces]

    def test_unit_ball_exponent_matches_fraction_loop(self):
        # k, the least integer with p^k >= q, by integer comparisons, against
        # the Fraction power loops it replaced
        def fraction_ball(space):
            p, cols = space.field.prime, []
            for i, w in enumerate(space.weights):
                k = 0
                while F(p) ** k < w.q:
                    k += 1
                while F(p) ** (k - 1) >= w.q:
                    k -= 1
                cols.append([x * F(p) ** (k - w.n) for x in space.column(i)])
            return Lattice.from_columns(space.field, cols)

        rng = random.Random("unit-ball-k")
        for p in (2, 3, 5, 1000003):
            field = PadicRationals(p)
            for _ in range(40):
                n = rng.randint(1, 3)
                basis = self.random_columns(rng, p, n)
                if linalg.rank(basis) < n:
                    continue
                weights = [field.magnitude(F(rng.randint(1, 10 ** rng.randint(1, 8)),
                                             rng.randint(1, 10 ** rng.randint(1, 8))),
                                           rng.randint(-3, 3))
                           for _ in range(n)]
                space = NormedSpace(field, basis, weights)
                assert lattice_from_norm(space) == fraction_ball(space)


def _coset_rep(x, p, a):
    """The representative of x + p^a Z_(p) in Z[1/p] ∩ [0, p^a)."""
    if x == 0:
        return x
    v = _vp(x, p)
    if v >= a:
        return F(0)
    s = max(0, -v)
    y = x * F(p) ** s
    m = p ** (a + s)
    return F((y.numerator * pow(y.denominator, -1, m)) % m, p ** s)


def fraction_hermite(p, cols):
    """The Hermite form over Z_(p) one Fraction at a time: the oracle for
    ``canonical_lattice_columns`` (same pivot rule, same errors)."""
    n = len(cols[0])
    work = [list(c) for c in cols if any(x != 0 for x in c)]
    if len(work) != n:
        raise PreconditionError("lattice must be given by n independent columns")
    remaining = list(range(len(work)))
    out = []
    for r in range(n):
        best = None  # (valuation, col_idx)
        for ci in remaining:
            x = work[ci][r]
            if x != 0 and (best is None or _vp(x, p) < best[0]):
                best = (_vp(x, p), ci)
        if best is None:
            raise PreconditionError("lattice columns are linearly dependent")
        a, ci = best
        unit = work[ci][r] / F(p) ** a
        pivot = [x / unit for x in work[ci]]
        remaining.remove(ci)
        for cj in remaining:
            f = work[cj][r] / pivot[r]
            work[cj] = [x - f * y for x, y in zip(work[cj], pivot)]
        out.append(pivot)
    for j in range(n):
        for k in range(j + 1, n):
            x = out[j][k]
            c = (x - _coset_rep(x, p, _vp(out[k][k], p))) / out[k][k]
            out[j] = [y - c * z for y, z in zip(out[j], out[k])]
    return out


class TestScalarExtension:
    def test_extension_preserves_base_norms(self):
        from ultranorm import LaurentRationals
        K = TrivialRationals()
        space = weighted(K, [F(1), F(2)])
        base = choose_laurent_base([w.value() for w in
                                    space.norm_value_set()
                                    if not w.is_zero] + [F(1)])
        ext = scalar_extension(space, LaurentRationals(base))
        for v in ([F(1), F(0)], [F(0), F(1)], [F(3), F(5)]):
            ev = [ext.field.from_rational(x) for x in v]
            assert ext.norm(ev).value() == space.norm(v).value()
