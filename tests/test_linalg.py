"""Exact linear algebra over Fractions and integer lattice routines."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ultranorm.linalg as lg
from ultranorm.fields import LaurentRationals, RationalFunction, _is_zero


def frac_matrix(rows):
    return [[Fraction(x) for x in row] for row in rows]


class TestRationalRoutines:
    def test_solve_and_invert(self):
        A = frac_matrix([[2, 1], [1, 1]])
        x = lg.solve(A, [Fraction(3), Fraction(2)])
        assert x == [Fraction(1), Fraction(1)]
        inv = lg.invert(A)
        for j, col in enumerate(lg.transpose(inv)):
            assert lg.mat_vec(A, col) == lg.identity(2)[j]

    def test_solve_inconsistent_returns_none(self):
        A = frac_matrix([[1, 1], [2, 2]])
        assert lg.solve(A, [Fraction(1), Fraction(3)]) is None

    def test_kernel_basis(self):
        A = frac_matrix([[1, 1, 0], [0, 0, 1]])
        ker = lg.kernel_basis(A)
        assert len(ker) == 1
        v = ker[0]
        assert v[0] + v[1] == 0 and v[2] == 0

    def test_rank(self):
        assert lg.rank(frac_matrix([[1, 2], [2, 4]])) == 1
        assert lg.rank(frac_matrix([[1, 0], [0, 1]])) == 2


class TestIntInput:
    """Python ints are rationals too: ``x / x`` on them gives a float, so
    the elimination routines must not take the field's one from there."""

    def test_rank(self):
        assert lg.rank([[1, 2], [3, 4]]) == 2
        assert lg.rank([[1, 2], [2, 4]]) == 1

    def test_invert_returns_fractions(self):
        inv = lg.invert([[1, 0], [0, 1]])
        assert inv == [[1, 0], [0, 1]]
        assert all(type(x) is Fraction for row in inv for x in row)
        inv = lg.invert([[2, 1], [1, 1]])
        assert inv == frac_matrix([[1, -1], [-1, 2]])
        assert all(type(x) is Fraction for row in inv for x in row)

    def test_solve(self):
        x = lg.solve([[2, 1], [1, 1]], [3, 2])
        assert x == [1, 1] and all(type(c) is Fraction for c in x)
        x = lg.solve([[1, 1, 0]], [2])
        assert x == [2, 0, 0] and all(type(c) is Fraction for c in x)
        assert lg.solve([[1, 1], [2, 2]], [1, 3]) is None

    def test_kernel_basis(self):
        ker = lg.kernel_basis([[1, 1, 0], [0, 0, 1]])
        assert ker == [[-1, 1, 0]]
        assert all(type(x) is Fraction for v in ker for x in v)

    def test_normed_space_on_int_basis(self):
        from ultranorm import NormedSpace, PadicRationals
        Q2 = PadicRationals(2)
        space = NormedSpace(Q2, [[1, 1], [0, 2]],
                            [Q2.one_magnitude(), Q2.one_magnitude()])
        # columns (1,0) and (1,2); (0,1) = -1/2*(1,0) + 1/2*(1,2)
        assert space.norm([0, 1]).value() == 2
        assert space.norm([1, 0]).value() == 1


def _random_matrix(rng, rows, cols, kind):
    """A random Fraction matrix of the given kind: 'dense', 'sparse'
    (mostly zeros, so row swaps are needed), 'deficient' (rank below
    min(rows, cols)), 'zero_rows' or 'huge' (numerators above 2^64)."""
    def entry():
        if kind == "huge":
            return Fraction(rng.randint(-2 ** 80, 2 ** 80), rng.randint(1, 2 ** 70))
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))

    if kind == "deficient":
        k = rng.randint(0, max(min(rows, cols) - 1, 0))
        left = [[entry() for _ in range(k)] for _ in range(rows)]
        right = [[entry() for _ in range(cols)] for _ in range(k)]
        return [[sum((left[i][t] * right[t][j] for t in range(k)), Fraction(0))
                 for j in range(cols)] for i in range(rows)]
    m = [[entry() if kind != "sparse" or rng.random() < 0.3 else Fraction(0)
          for _ in range(cols)] for _ in range(rows)]
    if kind == "zero_rows":
        for i in rng.sample(range(rows), rng.randint(1, rows)):
            m[i] = [Fraction(0)] * cols
    return m


SHAPES = [(1, 1), (1, 5), (5, 1), (3, 3), (4, 4), (6, 6), (2, 5), (3, 7),
          (5, 2), (7, 3)]
KINDS = ["dense", "sparse", "deficient", "zero_rows", "huge"]


def _rref_field(m):
    """Gauss-Jordan elimination one field element at a time: the oracle."""
    a = [list(row) for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if not _is_zero(a[i][c])), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = a[r][c]
        a[r] = [x / inv for x in a[r]]
        for i in range(rows):
            if i != r and not _is_zero(a[i][c]):
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def _lift(m):
    """m with every entry tagged as a constant of Q(T)."""
    return [[RationalFunction(x) for x in row] for row in m]


class TestRrefIntegerKernel:
    """``rref`` on rationals runs the fraction-free kernel; the field loop
    ``_rref_field`` is its oracle, in the matrix and in the pivots."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_field_elimination(self, shape, kind):
        rng = random.Random(f"{shape}-{kind}")
        for _ in range(8):
            m = _random_matrix(rng, *shape, kind)
            assert lg.rref(m) == _rref_field(m)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_zero_matrix(self, shape):
        rows, cols = shape
        m = [[Fraction(0)] * cols for _ in range(rows)]
        assert lg.rref(m) == _rref_field(m) == (m, [])

    def test_result_is_fractions(self):
        red, pivots = lg.rref([[0, 2, 4], [3, 0, 1], [0, 0, 0]])
        assert pivots == [0, 1]
        assert red == frac_matrix([[1, 0, Fraction(1, 3)], [0, 1, 2],
                                   [0, 0, 0]])
        assert all(type(x) is Fraction for row in red for x in row)

    def test_empty(self):
        assert lg.rref([]) == ([], [])
        assert lg.rref([[]]) == ([[]], [])

    @pytest.mark.parametrize("kind", ["dense", "huge"])
    def test_invert_is_inverse(self, kind):
        rng = random.Random(kind)
        for n in range(1, 7):
            m = _random_matrix(rng, n, n, kind)
            try:
                inv = lg.invert(m)
            except ValueError:
                assert lg.rank(m) < n
                continue
            for j, col in enumerate(lg.transpose(inv)):
                assert lg.mat_vec(m, col) == lg.identity(n)[j]


class TestRankWithoutRref:
    """``rank`` counts the pivots of the integer elimination and builds no
    Fraction; the pivot count of ``rref`` and of the field loop is its
    oracle."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_rref_pivots(self, shape, kind):
        rng = random.Random(f"rank-{shape}-{kind}")
        for _ in range(8):
            m = _random_matrix(rng, *shape, kind)
            ints = [[x.numerator * x.denominator for x in row] for row in m]
            for a in (m, ints, ints[:1] + m[1:]):
                fracs = [[Fraction(x) for x in row] for row in a]
                assert lg.rank(a) == len(lg.rref(a)[1]) == len(_rref_field(fracs)[1])

    def test_takes_no_rref(self, monkeypatch):
        def refuse(m):
            raise AssertionError("rank built an rref")
        monkeypatch.setattr(lg, "rref", refuse)
        monkeypatch.setattr(lg, "_rref_integer", refuse)
        assert lg.rank([[Fraction(1, 2), 3], [1, 6], [0, 0]]) == 1
        assert lg.rank([[0, 0, 1], [2, 4, 0], [1, 2, 5]]) == 2

    def test_constants_of_q_t_take_bareiss(self, monkeypatch):
        def refuse(m):
            raise AssertionError("rank built an rref")
        monkeypatch.setattr(lg, "rref", refuse)
        monkeypatch.setattr(lg, "_rref_integer", refuse)
        one = RationalFunction(Fraction(1))
        assert lg.rank([[one, one], [one, one]]) == 1
        rng = random.Random("rank/constants")
        for shape in SHAPES:
            m = _random_matrix(rng, *shape, "deficient")
            assert lg.rank(_lift(m)) == lg.rank(m) == len(_rref_field(m)[1])

    def test_empty(self):
        assert lg.rank([]) == lg.rank([[]]) == 0


def _loop_mat_vec(a, v):
    """The field loop that ``mat_vec`` runs on non-rational entries."""
    out = []
    for row in a:
        acc = row[0] * v[0]
        for k in range(1, len(v)):
            acc = acc + row[k] * v[k]
        out.append(acc)
    return out


def _random_vector(rng, n, kind):
    if kind == "zero":
        return [Fraction(0)] * n
    if kind == "huge":
        return [Fraction(rng.randint(-2 ** 80, 2 ** 80), rng.randint(1, 2 ** 70))
                for _ in range(n)]
    if kind == "sparse":
        return [Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                if rng.random() < 0.3 else Fraction(0) for _ in range(n)]
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)]


class TestMatVecIntegerKernel:
    """``mat_vec`` on rationals runs the fraction-free kernel; the field
    loop is its oracle."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_field_loop(self, shape, kind):
        rng = random.Random(f"{shape}-{kind}")
        for vkind in ("dense", "sparse", "zero", "huge") * 4:
            a = _random_matrix(rng, *shape, kind)
            v = _random_vector(rng, shape[1], vkind)
            out = lg.mat_vec(a, v)
            assert out == _loop_mat_vec(a, v)
            assert all(type(x) is Fraction for x in out)

    def test_int_and_mixed_entries(self):
        a = [[1, Fraction(1, 2), 0], [Fraction(-2, 3), 4, 5]]
        v = [3, Fraction(4, 5), Fraction(-1, 7)]
        out = lg.mat_vec(a, v)
        assert out == _loop_mat_vec(a, v)
        assert out == [Fraction(17, 5), Fraction(17, 35)]
        assert lg.mat_vec([[1, 2], [3, 4]], [5, 6]) == [17, 39]

    def test_non_constant_entries_are_refused(self):
        """T cannot be built, so no kernel meets it: the tag and the
        Laurent field refuse it.  Tagged constants of Q(T) come back as
        Fractions, equal to the rational result and to the field loops on
        their values."""
        for x in ((Fraction(0), Fraction(1)), [0, 1]):
            with pytest.raises(TypeError, match="exact rational"):
                RationalFunction(x)
        with pytest.raises(ValueError, match="^the laurent field has no uniformizer element$"):
            LaurentRationals(5).uniformizer()
        rng = random.Random("rf")
        for n in range(1, 5):
            rational = _random_matrix(rng, n, n, "dense")
            consts, v = _lift(rational), _random_vector(rng, n, "dense")
            b = _random_vector(rng, n, "dense")
            assert lg.mat_vec(consts, v) == lg.mat_vec(rational, v)
            assert lg.mat_vec(consts, v) == _loop_mat_vec(rational, v)
            red, pivots = lg.rref(consts)
            assert (red, pivots) == lg.rref(rational)
            assert (red, pivots) == _rref_field(rational)
            assert lg.kernel_basis(consts) == lg.kernel_basis(rational)
            assert lg.solve(consts, _lift([b])[0]) == lg.solve(rational, b)
            try:
                inverse = lg.invert(rational)
            except ValueError:
                inverse = None
            if inverse is not None:
                assert lg.invert(consts) == inverse
            for out in (red, lg.kernel_basis(consts), lg.invert(consts) if inverse else []):
                assert all(type(x) is Fraction for row in out for x in row)


class TestZeroMatrices:
    """A zero matrix over Q or Q(T): the kernel is the Fraction identity,
    solve gives Fraction zeros, and invert refuses it as zero."""

    ZEROS = ([[0, 0, 0], [0, 0, 0]], frac_matrix([[0, 0, 0]]),
             [[RationalFunction(0)] * 3] * 2)

    @pytest.mark.parametrize("zero", ZEROS, ids=["int", "fraction", "laurent"])
    def test_kernel_and_solve(self, zero):
        ker = lg.kernel_basis(zero)
        assert ker == lg.identity(3) and all(type(x) is Fraction for row in ker for x in row)
        x = lg.solve(zero, [Fraction(0)] * len(zero))
        assert x == [0, 0, 0] and all(type(a) is Fraction for a in x)
        assert lg.solve(zero, [Fraction(0)] * (len(zero) - 1) + [Fraction(1)]) is None

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_invert_refuses_zero(self, n):
        for zero in ([[0] * n] * n, [[RationalFunction(0)] * n] * n):
            with pytest.raises(ValueError, match=r"^singular matrix \(zero\)$"):
                lg.invert(zero)
        if n > 1:
            with pytest.raises(ValueError, match="^singular matrix$"):
                lg.invert([[1] * n] * n)

    def test_empty(self):
        assert lg.kernel_basis([]) == [] and lg.rref([]) == ([], [])
        with pytest.raises(ValueError, match=r"^singular matrix \(zero\)$"):
            lg.invert([])


class TestIntegerRoutines:
    def test_hnf_column_basis(self):
        cols = [[2, 0], [0, 3], [2, 3]]
        hnf = lg.hnf_column_basis(cols)
        assert len(hnf) == 2
        # the span contains the generators
        mat = frac_matrix([[hnf[j][i] for j in range(2)] for i in range(2)])
        for col in cols:
            coords = lg.solve(mat, [Fraction(x) for x in col])
            assert all(c.denominator == 1 for c in coords)

    def test_integer_kernel_is_saturated(self):
        A = [[1, 2, 6], [0, 4, 0]]
        ker = lg.integer_kernel(A)
        assert len(ker) == 1
        v = ker[0]
        assert all(sum(row[i] * v[i] for i in range(3)) == 0 for row in A)
        from math import gcd
        g = 0
        for x in v:
            g = gcd(g, x)
        assert g == 1  # primitive generator, not a proper multiple

    def test_lattice_intersection_oracle(self):
        A = [[1, 2, 6], [0, 4, 0], [0, 0, 8]]
        B = [[1, 0, 0], [1, 3, 0], [4, 0, 9]]
        inter = lg.lattice_intersection(A, B)
        mat = frac_matrix([[inter[j][i] for j in range(len(inter))]
                           for i in range(3)])
        # frozen membership oracle computed by brute force enumeration
        target = [Fraction(3), Fraction(6), Fraction(18)]
        coords = lg.solve(mat, target)
        assert coords is not None
        assert all(c.denominator == 1 for c in coords)

    def test_smith_diagonal(self):
        assert lg.smith_diagonal([[2, 0], [0, 3]]) == [1, 6]
        assert lg.smith_diagonal([[1, 0], [0, 1]]) == [1, 1]
        assert lg.smith_diagonal([[2, 4], [4, 8]]) == [2]

    @given(st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3),
                    min_size=2, max_size=2))
    @settings(max_examples=100)
    def test_integer_kernel_membership_both_ways(self, A):
        ker = lg.integer_kernel(A)
        for v in ker:
            assert all(sum(row[i] * v[i] for i in range(3)) == 0 for row in A)
        # saturation: any rational kernel vector with integer entries must
        # be an integer combination of the returned generators
        rat_ker = lg.kernel_basis(frac_matrix(A))
        if ker and rat_ker:
            mat = frac_matrix([[ker[j][i] for j in range(len(ker))]
                               for i in range(3)])
            for v in rat_ker:
                den = 1
                for x in v:
                    den = den * x.denominator // __import__("math").gcd(
                        den, x.denominator)
                w = [x * den for x in v]
                coords = lg.solve(mat, w)
                assert coords is not None
                assert all(c.denominator == 1 for c in coords)


class TestSympyOracles:
    """Sympy's normal forms as independent oracles: the Hermite normal form
    is canonical for the lattice spanned by the columns, so ours and the
    input span the same lattice exactly when sympy's forms agree."""

    @staticmethod
    def _int_matrix(rng, rows, cols, rank):
        left = [[rng.randint(-4, 4) for _ in range(rank)] for _ in range(rows)]
        right = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rank)]
        return [[sum(left[i][t] * right[t][j] for t in range(rank))
                 for j in range(cols)] for i in range(rows)]

    @pytest.mark.parametrize("shape", [(1, 1), (2, 3), (3, 3), (3, 5), (4, 2),
                                       (4, 6)])
    def test_hnf_column_basis(self, shape):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import hermite_normal_form
        rng = random.Random(f"hnf-{shape}")
        n, k = shape  # k columns in Z^n
        for _ in range(25):
            cols = [list(c) for c in zip(*self._int_matrix(
                rng, n, k, rng.randint(0, min(n, k))))]
            basis = lg.hnf_column_basis(cols)
            spanned = sympy.Matrix(n, k, lambda i, j: cols[j][i])
            assert len(basis) == spanned.rank()
            if not basis:
                continue
            ours = sympy.Matrix(n, len(basis), lambda i, j: basis[j][i])
            assert hermite_normal_form(ours) == hermite_normal_form(spanned)

    @pytest.mark.parametrize("shape", [(1, 1), (2, 2), (2, 4), (3, 3), (4, 3),
                                       (4, 4)])
    def test_smith_diagonal(self, shape):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import invariant_factors
        rng = random.Random(f"smith-{shape}")
        for _ in range(25):
            m = self._int_matrix(rng, *shape, rng.randint(0, min(shape)))
            want = [abs(int(d)) for d in
                    invariant_factors(sympy.Matrix(m), domain=sympy.ZZ) if d]
            assert lg.smith_diagonal(m) == want


def _greedy_completion(base, candidates, size):
    """The greedy loop that ``extend_basis`` replaced in five modules: keep
    a candidate when it raises the rank, stop at ``size`` rows."""
    rows = list(base)
    kept = []
    for i, v in enumerate(candidates):
        if lg.rank(rows + [v]) > len(rows):
            rows.append(v)
            kept.append(i)
            if len(rows) == size:
                break
    return kept


class TestExtendBasis:
    """``extend_basis`` against the greedy loop it replaced."""

    @staticmethod
    def _problem(rng, n, kind):
        """Independent base rows and candidates with dependent ones (zero,
        repeated, combinations of earlier rows) mixed in."""
        while True:
            base = _random_matrix(rng, rng.randint(0, n), n, kind)
            if lg.rank(base) == len(base):
                break
        pool = base + _random_matrix(rng, rng.randint(1, n + 2), n, kind)
        candidates = []
        for _ in range(rng.randint(1, 2 * n + 2)):
            pick = rng.random()
            if pick < 0.2:
                candidates.append([Fraction(0)] * n)
            elif pick < 0.5:
                a, b = rng.choice(pool), rng.choice(pool)
                c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                candidates.append([x + c * y for x, y in zip(a, b)])
            else:
                candidates.append(rng.choice(pool))
        return base, candidates

    @pytest.mark.parametrize("kind", ["dense", "sparse", "huge"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
    def test_matches_greedy_loop(self, n, kind):
        rng = random.Random(f"extend-{n}-{kind}")
        for _ in range(15):
            base, candidates = self._problem(rng, n, kind)
            assert lg.extend_basis(base, candidates, len(base)) == []
            for size in range(len(base) + 1, n + 1):
                kept = lg.extend_basis(base, candidates, size)
                assert kept == _greedy_completion(base, candidates, size)
                rows = base + [candidates[i] for i in kept]
                assert lg.rank(rows) == len(rows)
                assert len(rows) == min(size, lg.rank(base + candidates))

    def test_spanning_base_keeps_nothing(self):
        rng = random.Random("span")
        for n in range(1, 5):
            base = lg.identity(n)
            candidates = _random_matrix(rng, 2 * n, n, "dense")
            assert lg.extend_basis(base, candidates, n) == []
            assert _greedy_completion(base, candidates, n) == []

    def test_constant_rational_functions(self):
        rng = random.Random("rf-extend")
        for n in (2, 3, 4):
            base, candidates = self._problem(rng, n, "dense")
            assert (lg.extend_basis(_lift(base), _lift(candidates), n)
                    == lg.extend_basis(base, candidates, n)
                    == _greedy_completion(base, candidates, n))

    def test_int_tuples(self):
        rng = random.Random("tuples")
        for n in (1, 2, 3, 4):
            tuples = [tuple(rng.randint(-3, 3) for _ in range(n))
                      for _ in range(3 * n)]
            fractions = [[Fraction(x) for x in t] for t in tuples]
            assert (lg.extend_basis([], tuples, n)
                    == lg.extend_basis([], fractions, n)
                    == _greedy_completion([], fractions, n))

    def test_greedy_is_not_the_pivot_complement(self):
        # the kernel (1, 1) is completed by e_0, while its rref pivot is
        # column 0, whose complement would be e_1
        one, zero = Fraction(1), Fraction(0)
        assert lg.extend_basis([[one, one]], lg.identity(2), 2) == [0]
        assert lg.rref([[one, one]])[1] == [0]


def _tracked_integer_kernel(m):
    """The unimodular column reduction with an identity tracker that
    ``integer_kernel`` ran before it shared ``_int_col_reduce``."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    work = [[m[i][j] for i in range(rows)] +
            [1 if k == j else 0 for k in range(cols)] for j in range(cols)]
    active = list(range(cols))
    for r in range(rows):
        while True:
            nz = [j for j in active if work[j][r] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda j: abs(work[j][r]))
            a, b = work[nz[0]], work[nz[1]]
            q = b[r] // a[r]
            for i in range(rows + cols):
                b[i] -= q * a[i]
        nz = [j for j in active if work[j][r] != 0]
        if nz:
            active.remove(nz[0])
    ker = [work[j][rows:] for j in active]
    return lg.hnf_column_basis(ker) if ker else []


class TestIntegerKernel:
    """``integer_kernel``: kernel vectors, the right count, a saturated
    lattice, and the same canonical basis as the tracker it replaced."""

    @pytest.mark.parametrize("shape", [(1, 1), (1, 4), (2, 3), (3, 3), (3, 5),
                                       (4, 2), (4, 6)])
    def test_random_matrices(self, shape):
        rng = random.Random(f"kernel-{shape}")
        rows, cols = shape
        for trial in range(30):
            m = TestSympyOracles._int_matrix(rng, rows, cols,
                                             rng.randint(0, min(shape)))
            if trial % 3 == 0:
                for i in rng.sample(range(rows), rng.randint(1, rows)):
                    m[i] = [0] * cols
            ker = lg.integer_kernel(m)
            for x in ker:
                assert all(sum(a * b for a, b in zip(row, x)) == 0 for row in m)
            assert len(ker) == cols - lg.rank(m)
            if ker:
                assert lg.smith_diagonal(ker) == [1] * len(ker)
            assert ker == _tracked_integer_kernel(m)

    def test_degenerate(self):
        assert lg.integer_kernel([]) == []
        assert lg.integer_kernel([[0, 0]]) == [[1, 0], [0, 1]]
        assert lg.integer_kernel([[2, 3]]) == _tracked_integer_kernel([[2, 3]])
        assert lg.integer_kernel([[1, 0], [0, 1]]) == []


def _laplace_det(m):
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * _laplace_det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)) if m[0][j])


class TestAdjugate:
    """``adjugate``: (adj, det) with adj / det equal to ``invert`` and det
    equal to the Laplace expansion, including the sign of the row swaps."""

    def test_random_matrices(self):
        rng = random.Random("adjugate")
        singular = 0
        for _ in range(400):
            n = rng.randint(1, 6)
            m = [[rng.choice((0, 0, 1, -1, 2, -3, 7, 2 ** 40)) for _ in range(n)]
                 for _ in range(n)]
            adj, det = lg.adjugate(m)
            assert det == _laplace_det(m)
            if det == 0:
                singular += 1
                assert adj is None
                with pytest.raises(ValueError):
                    lg.invert(m)
                continue
            assert [[Fraction(x, det) for x in row] for row in adj] == lg.invert(m)
        assert 20 < singular < 300

    @pytest.mark.parametrize("m, det", [
        ([[0, 1], [1, 0]], -1),
        ([[0, 2, 1], [3, 0, 0], [0, 0, 5]], -30),
        ([[0, 0, 1], [0, 1, 0], [1, 0, 0]], -1),
        ([[0, 1, 0], [0, 0, 1], [1, 0, 0]], 1),
        ([[1, 2, 3], [2, 4, 7], [0, 1, 1]], -1)])  # a zero pivot mid-way
    def test_row_swaps(self, m, det):
        adj, d = lg.adjugate(m)
        assert d == det == _laplace_det(m)
        assert [[Fraction(x, d) for x in row] for row in adj] == lg.invert(m)

    def test_singular_and_empty(self):
        assert lg.adjugate([[0]]) == (None, 0)
        assert lg.adjugate([[1, 2], [2, 4]]) == (None, 0)
        assert lg.adjugate([[0, 0, 1], [0, 0, 2], [1, 1, 1]]) == (None, 0)
        assert lg.adjugate([[5]]) == ([[1]], 5)
        assert lg.adjugate([]) == ([], 1)
