"""Adelic norms, unit lattices, lambda invariants, graded basis search."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest

from ultranorm import NormedSpace, PadicRationals
import ultranorm.adelic as adelic
from ultranorm.adelic import (AdelicSpace, NormedLattice, _enumerate,
                              _find_unimodular, _lll,
                              _rational_hnf, arch_norm,
                              check_localization, finite_unit_lattice,
                              graded_minima, lambda_Q, lambda_Z,
                              nakai_basis_search, nakai_first_success)
from ultranorm.fields import _vp
from ultranorm.spaces import PreconditionError
import ultranorm.linalg as lg

F = Fraction


def diag_space(p, weights):
    field = PadicRationals(p)
    dim = len(weights)
    basis = [[F(1) if i == j else F(0) for j in range(dim)]
             for i in range(dim)]
    return NormedSpace(field, basis, [field.magnitude(w) for w in weights])


SUP2 = [[F(1), F(0)], [F(0), F(1)], [F(1), F(1)]]


def lambda_upper_bound(M):
    """The largest norm in the canonical basis, an upper bound for lambda_Z."""
    return max((M.arch(c) for c in M.basis_columns), default=F(0))


def dot_lll(rows, dot):
    """Reference LLL for ``_lll``, with the same delta and loop order:
    the whole Gram-Schmidt data are rebuilt from the inner product
    ``dot`` after every size reduction and every swap."""
    b = [list(row) for row in rows]
    n = len(b)

    def gso():
        mu = [[F(0)] * n for _ in range(n)]
        norms = [F(0)] * n
        gram = [[dot(b[i], b[j]) for j in range(n)] for i in range(n)]
        for i in range(n):
            norms[i] = gram[i][i]
            for j in range(i):
                mu[i][j] = gram[i][j]
                for k in range(j):
                    mu[i][j] -= mu[i][k] * mu[j][k] * norms[k]
                mu[i][j] /= norms[j]
                norms[i] -= mu[i][j] ** 2 * norms[j]
        return mu, norms

    mu, norms = gso()
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q != 0:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                mu, norms = gso()
        if norms[k] >= (F(3, 4) - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            mu, norms = gso()
            k = max(k - 1, 1)
    return b


def gram_dot(gram):
    """The inner product x^T G y of a Gram matrix G, as a Fraction (an int
    would turn the mu of ``dot_lll`` into floats)."""
    def dot(x, y):
        return F(sum(a * g * c for a, row in zip(x, gram) for g, c in zip(row, y)))
    return dot


def fraction_lll(gram):
    """The rational ``_lll`` that the integral one replaced: the Gram
    matrix follows each row operation in place, and mu and the
    Gram-Schmidt norms are rebuilt from it after every step."""
    n = len(gram)
    g = [list(row) for row in gram]
    b = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def gso():
        mu = [[F(0)] * n for _ in range(n)]
        norms = [F(0)] * n
        for i in range(n):
            norms[i] = g[i][i]
            for j in range(i):
                mu[i][j] = g[i][j]
                for k in range(j):
                    mu[i][j] -= mu[i][k] * mu[j][k] * norms[k]
                mu[i][j] /= norms[j]
                norms[i] -= mu[i][j] ** 2 * norms[j]
        return mu, norms

    mu, norms = gso()
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q != 0:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                g[k] = [x - q * y for x, y in zip(g[k], g[j])]
                for i in range(n):
                    g[i][k] = g[k][i] if i != k else g[k][k] - q * g[k][j]
                mu, norms = gso()
        if norms[k] >= (F(3, 4) - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            g[k], g[k - 1] = g[k - 1], g[k]
            for row in g:
                row[k], row[k - 1] = row[k - 1], row[k]
            mu, norms = gso()
            k = max(k - 1, 1)
    return b


def fraction_enumerate(phi0):
    """The rational ``_enumerate`` that the integer one replaced, kept as
    its oracle: ``fraction_lll`` on the rational Gram matrix, then the box
    of every invertible r-subset from ``lg.invert``, then the same integer
    scan."""
    r = len(phi0[0])
    red = fraction_lll([[sum(row[i] * row[j] for row in phi0) for j in range(r)]
                        for i in range(r)])
    phi = [[sum(row[j] * red[k][j] for j in range(r)) for k in range(r)]
           for row in phi0]
    bound = max(abs(x) for row in phi for x in row)
    best_box = None
    for subset in itertools.combinations(range(len(phi)), r):
        try:
            inv = lg.invert([phi[i] for i in subset])
        except ValueError:
            continue
        box = [bound * sum(abs(inv[i][j]) for j in range(r)) for i in range(r)]
        size = 1
        for b in box:
            size *= 2 * int(b) + 1
        if best_box is None or size < best_box[0]:
            best_box = (size, box)
    if best_box[0] > adelic.BOX_BOUND:
        raise PreconditionError(
            f"the enumeration box holds {best_box[0]} points, more than the "
            f"exact enumeration bound {adelic.BOX_BOUND}")
    ranges = [range(-int(b), int(b) + 1) for b in best_box[1]]
    den = math.lcm(*(x.denominator for row in phi for x in row))
    iphi = [[int(x * den) for x in row] for row in phi]
    ibound = int(bound * den)
    out = []
    for coords in itertools.product(*ranges):
        if next((c for c in coords if c != 0), 0) <= 0:
            continue
        val = max(abs(sum(a * c for a, c in zip(row, coords))) for row in iphi)
        if val <= ibound:
            orig = [sum(c * red[k][j] for k, c in enumerate(coords))
                    for j in range(r)]
            if next((c for c in orig if c != 0), 0) < 0:
                orig = [-c for c in orig]
            out.append((F(val, den), tuple(orig)))
    out.sort(key=lambda t: (t[0], sum(abs(c) for c in t[1]), t[1]))
    return out


def least_box(iphi0):
    """(red, iphi, ibound, size, box): the LLL data of ``_enumerate`` and the
    least adjugate box over every invertible r-subset of the reduced rows."""
    r = len(iphi0[0])
    cols = list(zip(*iphi0))
    red = _lll([[sum(a * b for a, b in zip(x, y)) for y in cols] for x in cols])
    iphi = [[sum(a * b for a, b in zip(row, v)) for v in red] for row in iphi0]
    ibound = max(abs(x) for row in iphi for x in row)
    best = None
    for subset in itertools.combinations(iphi, r):
        adj, d = lg.adjugate(subset)
        if d:
            box = [ibound * sum(map(abs, row)) // abs(d) for row in adj]
            size = math.prod(2 * b + 1 for b in box)
            if best is None or size < best[0]:
                best = (size, box)
    return red, iphi, ibound, best[0], best[1]


def box_scan_enumerate(iphi0, den):
    """The integer ``_enumerate`` that the pruned scan replaced, kept as its
    oracle: the least box over every invertible r-subset, refused past
    ``BOX_BOUND``, then every point of that box."""
    r = len(iphi0[0])
    if math.comb(len(iphi0), r) > adelic.SUBSET_BOUND:
        raise PreconditionError(f"the box choice takes {math.comb(len(iphi0), r)} "
                                f"adjugates of {r}-subsets, more than the subset "
                                f"bound {adelic.SUBSET_BOUND}")
    red, iphi, ibound, size, box = least_box(iphi0)
    if size > adelic.BOX_BOUND:
        raise PreconditionError(f"the enumeration box holds {size} points, more than "
                                f"the exact enumeration bound {adelic.BOX_BOUND}")
    out = []
    for coords in itertools.product(*(range(-b, b + 1) for b in box)):
        if next((c for c in coords if c != 0), 0) <= 0:
            continue
        val = max(abs(sum(a * c for a, c in zip(row, coords))) for row in iphi)
        if val <= ibound:
            orig = [sum(c * red[k][j] for k, c in enumerate(coords)) for j in range(r)]
            if next(c for c in orig if c != 0) < 0:
                orig = [-c for c in orig]
            out.append((val, tuple(orig)))
    out.sort(key=lambda t: (t[0], sum(map(abs, t[1])), t[1]))
    return [(F(val, den), coords) for val, coords in out]


def fraction_phi(cols, funcs):
    """The functionals in lattice coordinates as Fractions, the way
    ``NormedLattice`` formed them before its integer pair."""
    return [[sum(a * x for a, x in zip(f, col)) for col in cols] for f in funcs]


def two_pass_unit_lattice(A):
    """``finite_unit_lattice``'s columns as it built them in Fractions, with
    two ``lattice_from_norm`` calls per place; kept as its oracle."""
    from ultranorm.spaces import lattice_from_norm

    def fraction_hnf(cols):
        d = math.lcm(*(x.denominator for c in cols for x in c))
        hnf = lg.hnf_column_basis([[int(x * d) for x in c] for c in cols])
        return [[F(x, d) for x in c] for c in hnf]

    def intersection(a, b):
        d = math.lcm(*(x.denominator for cols in (a, b) for c in cols for x in c))
        inter = lg.lattice_intersection([[int(x * d) for x in c] for c in a],
                                        [[int(x * d) for x in c] for c in b])
        return [[F(x, d) for x in c] for c in inter]

    def globalized(p, space, over_den):
        lat = lattice_from_norm(space)
        r = space.dim
        cols = []
        for col in lat.columns():
            v = min(_vp(x, p) for x in col if x != 0)
            reduced = [x / F(p) ** v for x in col]
            den = math.lcm(*(x.denominator for x in reduced))
            ints = [int(x * den) for x in reduced]
            g = math.gcd(*ints)
            cols.append([F(p) ** v * F(x, g) for x in ints])
        inv = lg.invert([[lat.basis[i][j] for j in range(r)] for i in range(r)])
        n0 = 0
        for row in inv:
            for x in row:
                if x != 0:
                    n0 = max(n0, -_vp(x, p))
        n0 += max(0, -_vp(F(1, over_den), p))
        scale = F(p) ** n0 / over_den
        for i in range(r):
            cols.append([scale if j == i else F(0) for j in range(r)])
        return fraction_hnf(cols)

    r = A.dim
    d = 1
    for p, space in A.finite_places.items():
        n_p = 0
        for col in lattice_from_norm(space).columns():
            for x in col:
                if x != 0:
                    n_p = max(n_p, -_vp(x, p))
        d *= p ** n_p
    current = None
    for p in sorted(A.finite_places):
        g = globalized(p, A.finite_places[p], d)
        current = g if current is None else intersection(current, g)
    if current is None:
        current = [[F(int(i == j)) for i in range(r)] for j in range(r)]
    return current


def random_adelic(rng, r, primes):
    """A random adelic space on Q^r with non-diagonal places at some of the
    primes, weights q p^n with q != 1 and n in [-2, 2]."""
    while True:
        funcs = [[F(rng.randint(-2, 2)) for _ in range(r)]
                 for _ in range(r + rng.randint(0, 1))]
        if lg.rank(funcs) == r:
            break
    places = {}
    for p in primes:
        if rng.random() < 0.7:
            field = PadicRationals(p)
            while True:
                B = [[F(rng.randint(-3, 3), rng.choice((1, 1, 2, 3, 5)))
                      for _ in range(r)] for _ in range(r)]
                if lg.rank(B) == r:
                    break
            w = []
            for _ in range(r):
                q = F(1)
                while q == 1:
                    q = F(rng.randint(1, 12), rng.randint(1, 12))
                w.append(field.magnitude(q, rng.randint(-2, 2)))
            places[p] = NormedSpace(field, B, w)
    return AdelicSpace(r, places, funcs)


def det(m):
    """Integer determinant by Laplace expansion along the first row."""
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)) if m[0][j])


def box_oracle(M, funcs, radius):
    """(lambda_Q, lambda_Z) straight from their definitions over the
    coordinate box [-radius, radius]^r: the least t such that the box
    vectors of norm <= t span Q^r, resp. contain a Z-basis."""
    r = M.rank
    vals = {}
    for c in itertools.product(range(-radius, radius + 1), repeat=r):
        if next((x for x in c if x != 0), 0) > 0:  # one per +-pair
            vals[c] = arch_norm(funcs, M.vector(c))
    lq = lz = None
    for t in sorted(set(vals.values())):
        short = [c for c, v in vals.items() if v <= t]
        if lq is None and lg.rank([list(map(F, c)) for c in short]) == r:
            lq = t
        if any(abs(det(trio)) == 1
               for trio in itertools.combinations(short, r)):
            return lq, t


class TestFiniteUnitLattice:
    def test_no_places_gives_integers(self):
        A = AdelicSpace(2, {}, SUP2)
        M = finite_unit_lattice(A)
        assert M.basis_columns == [[F(1), F(0)], [F(0), F(1)]]

    def test_weighted_place_frozen(self):
        # weight 1/2 on e_0 puts (1/2)e_0 inside the unit ball
        A = AdelicSpace(2, {2: diag_space(2, [F(1, 2), F(1)])}, SUP2)
        M = finite_unit_lattice(A)
        assert M.basis_columns == [[F(1, 2), F(0)], [F(0), F(1)]]

    def test_fractional_column_frozen(self):
        # weight 2 on e_1 shrinks the ball to 2 Z_(2) in that coordinate
        A = AdelicSpace(2, {2: diag_space(2, [F(1), F(2)])}, SUP2)
        M = finite_unit_lattice(A)
        assert M.basis_columns == [[F(1), F(0)], [F(0), F(2)]]

    def test_two_places(self):
        A = AdelicSpace(2, {2: diag_space(2, [F(1, 2), F(1)]),
                            3: diag_space(3, [F(1), F(3)])}, SUP2)
        M = finite_unit_lattice(A)
        assert M.basis_columns == [[F(1, 2), F(0)], [F(0), F(3)]]

    def test_localization_identities(self):
        rng = random.Random(7)
        for _ in range(20):
            r = rng.randint(1, 3)
            while True:
                funcs = [[F(rng.randint(-2, 2)) for _ in range(r)]
                         for _ in range(r + 1)]
                if lg.rank(funcs) == r:
                    break
            places = {}
            for p in (2, 3):
                if rng.random() < 0.6:
                    field = PadicRationals(p)
                    while True:
                        B = [[F(rng.randint(-2, 2)) for _ in range(r)]
                             for _ in range(r)]
                        if lg.rank(B) == r:
                            break
                    w = [field.magnitude(F(p) ** rng.randint(-1, 1))
                         for _ in range(r)]
                    places[p] = NormedSpace(field, B, w)
            A = AdelicSpace(r, places, funcs)
            M = finite_unit_lattice(A)
            for p in list(places) + [5]:
                assert check_localization(A, M, p)

    def test_matches_two_pass_construction(self, monkeypatch):
        # one lattice_from_norm per place and integer columns throughout,
        # against the Fraction construction with two passes per place
        import ultranorm.spaces as spaces
        real, calls = spaces.lattice_from_norm, []
        monkeypatch.setattr(spaces, "lattice_from_norm",
                            lambda space: calls.append(space) or real(space))
        rng = random.Random("unit-lattice")
        three = 0
        for _ in range(150):
            A = random_adelic(rng, rng.randint(1, 4), (2, 3, 5))
            want = two_pass_unit_lattice(A)
            calls.clear()
            assert finite_unit_lattice(A).basis_columns == want
            assert len(calls) == len(A.finite_places)
            three += len(A.finite_places) == 3
        assert three > 20

    def test_non_spanning_messages_unchanged(self):
        with pytest.raises(PreconditionError, match="^archimedean functionals must span the dual$"):
            AdelicSpace(2, {2: diag_space(2, [F(1, 2), F(3)])}, [[F(1), F(1)]])
        A = AdelicSpace(2, {2: diag_space(2, [F(1, 2), F(3)]),
                            5: diag_space(5, [F(5), F(1)])}, SUP2)
        cols = finite_unit_lattice(A).basis_columns
        with pytest.raises(PreconditionError, match="^archimedean functionals do "
                           "not span the lattice's dual$"):
            NormedLattice(cols, [[F(1), F(1)], [F(2), F(2)]])


class TestLambda:
    def test_integers_with_sup_norm(self):
        M = NormedLattice([[F(1), F(0)], [F(0), F(1)]], SUP2)
        assert lambda_Q(M) == 1
        assert lambda_Z(M) == 1

    def test_stretched_lattice(self):
        M = NormedLattice([[F(2), F(0)], [F(0), F(1)]], SUP2)
        assert lambda_Q(M) == 2
        assert lambda_Z(M) == 2

    def test_want_basis_returns_unimodular_basis(self):
        M = NormedLattice([[F(1), F(0)], [F(0), F(2)]], SUP2)
        val, basis = lambda_Z(M, want_basis=True)
        assert val == 2
        mat = [[basis[j][i] for j in range(2)] for i in range(2)]
        coords = [lg.solve([[c[i] for c in M.basis_columns]
                            for i in range(2)], v) for v in basis]
        det = coords[0][0] * coords[1][1] - coords[0][1] * coords[1][0]
        assert abs(det) == 1

    def test_sandwich_random(self):
        rng = random.Random(13)
        for _ in range(30):
            r = rng.randint(1, 4)
            while True:
                funcs = [[F(rng.randint(-2, 2)) for _ in range(r)]
                         for _ in range(r + 1)]
                if lg.rank(funcs) == r:
                    break
            cols = []
            while lg.rank([[c[i] for c in cols] for i in range(r)]
                          if cols else [[0] * r]) < r:
                cols = [[F(rng.randint(-3, 3), rng.choice((1, 1, 2)))
                         for _ in range(r)] for _ in range(r)]
            from ultranorm.adelic import _rational_hnf
            M = NormedLattice(_rational_hnf(cols), funcs)
            lq, lz = lambda_Q(M), lambda_Z(M)
            assert lq <= lz <= r * lq
            assert lz <= lambda_upper_bound(M)

    def test_brute_force_oracle_rank_two(self):
        # independent oracle: direct enumeration over a coordinate box
        rng = random.Random(21)
        for _ in range(6):
            funcs = [[F(rng.randint(-2, 2)) for _ in range(2)]
                     for _ in range(3)]
            if lg.rank(funcs) < 2:
                continue
            cols = [[F(rng.randint(-2, 2)) for _ in range(2)]
                    for _ in range(2)]
            if lg.rank(cols) < 2:
                continue
            from ultranorm.adelic import _rational_hnf
            M = NormedLattice(_rational_hnf([[c[i] for c in cols]
                                             for i in range(2)]), funcs)
            lq = lambda_Q(M)
            lz = lambda_Z(M)
            # oracle: scan all coordinate pairs in a generous box
            vals = {}
            for a, b in itertools.product(range(-6, 7), repeat=2):
                if (a, b) == (0, 0):
                    continue
                v = M.vector((a, b))
                vals[(a, b)] = arch_norm(funcs, v)
            best_q = None
            for (c1, c2) in itertools.combinations(vals, 2):
                m1 = [list(map(Fraction, c1)), list(map(Fraction, c2))]
                if lg.rank(m1) == 2:
                    cand = max(vals[c1], vals[c2])
                    if best_q is None or cand < best_q:
                        best_q = cand
            assert lq == best_q
            best_z = None
            for (c1, c2) in itertools.combinations(vals, 2):
                det = c1[0] * c2[1] - c1[1] * c2[0]
                if abs(det) == 1:
                    cand = max(vals[c1], vals[c2])
                    if best_z is None or cand < best_z:
                        best_z = cand
            assert lz == best_z

    def test_brute_force_oracle_rank_three(self):
        # the box is sized so that it holds every coordinate vector of
        # norm <= lambda_upper_bound(M) >= lambda_Z(M) >= lambda_Q(M)
        # the l^1 norm on Z^3 + Z(1/2, 1/2, 1/2): lambda_Q = 1 < lambda_Z = 3/2
        cases = [([[F(1), F(0), F(0)], [F(0), F(1), F(0)], [F(1, 2)] * 3],
                  [[F(1), F(1), F(1)], [F(1), F(1), F(-1)],
                   [F(1), F(-1), F(1)], [F(-1), F(1), F(1)]])]
        rng = random.Random(23)
        while len(cases) < 7:
            funcs = [[F(rng.randint(-2, 2)) for _ in range(3)]
                     for _ in range(rng.choice((3, 4)))]
            cols = [[F(rng.randint(-2, 2), rng.choice((1, 1, 2)))
                     for _ in range(3)] for _ in range(3)]
            if lg.rank(funcs) == 3 and lg.rank(cols) == 3:
                cases.append((cols, funcs))
        for cols, funcs in cases:
            M = NormedLattice(_rational_hnf(cols), funcs)
            phi = [[sum(a * x for a, x in zip(f, c)) for c in M.basis_columns]
                   for f in funcs]
            spread = min(max(sum(abs(x) for x in row) for row in lg.invert(sub))
                         for sub in itertools.combinations(phi, 3)
                         if lg.rank(list(sub)) == 3)
            radius = int(lambda_upper_bound(M) * spread)
            assert (lambda_Q(M), lambda_Z(M)) == box_oracle(M, funcs, radius)

    @staticmethod
    def search_from_zero(M):
        """lambda_Z's value and basis by the binary search over every
        short-vector value, from the least one up (no lambda_Q start)."""
        values = sorted({val for val, _ in M._short_vectors})
        lo, hi, best = 0, len(values) - 1, None
        while lo <= hi:
            mid = (lo + hi) // 2
            found = _find_unimodular([(v, c) for v, c in M._short_vectors
                                      if v <= values[mid]], M.rank)
            if found is not None:
                best, hi = (values[mid], [M.vector(c) for c in found]), mid - 1
            else:
                lo = mid + 1
        return best

    def test_search_from_lambda_Q_matches_search_from_zero(self):
        cases = [([[F(1), F(0), F(0)], [F(0), F(1), F(0)], [F(1, 2)] * 3],
                  [[F(1), F(1), F(1)], [F(1), F(1), F(-1)],
                   [F(1), F(-1), F(1)], [F(-1), F(1), F(1)]])]
        rng = random.Random(31)
        while len(cases) < 25:
            r = rng.choice((2, 3))
            funcs = [[F(rng.randint(-2, 2)) for _ in range(r)]
                     for _ in range(rng.choice((r, r + 1)))]
            cols = [[F(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))
                     for _ in range(r)] for _ in range(r)]
            if lg.rank(funcs) == r and lg.rank(cols) == r:
                cases.append((cols, funcs))
        strict = 0
        for cols, funcs in cases:
            M = NormedLattice(_rational_hnf(cols), funcs)
            assert lambda_Z(M, want_basis=True) == self.search_from_zero(
                NormedLattice(_rational_hnf(cols), funcs))
            strict += lambda_Q(M) < lambda_Z(M)
        assert strict  # the l^1 lattice at least: 1 < 3/2

    def test_gram_lll_matches_dot_lll(self):
        # _lll takes the integer Gram matrix of D * phi, D the lcm of phi's
        # denominators: D^2 times the rational one, which LLL cannot tell
        rng = random.Random(29)
        for r in range(2, 7):
            for _ in range(6):
                while True:
                    phi = [[F(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
                            for _ in range(r)] for _ in range(r + rng.randint(0, 2))]
                    if lg.rank(phi) == r:
                        break

                def dot(x, y):
                    return sum(sum(a * c for a, c in zip(row, x))
                               * sum(a * c for a, c in zip(row, y)) for row in phi)

                eye = [[int(i == j) for j in range(r)] for i in range(r)]
                d = math.lcm(*(x.denominator for row in phi for x in row))
                gram = [[int(dot(x, y) * d * d) for y in eye] for x in eye]
                assert _lll(gram) == dot_lll(eye, dot)

    @pytest.mark.parametrize("gram", [
        [[2, 1], [1, 5]],        # mu = 1/2 rounds to 0
        [[2, -1], [-1, 5]],      # mu = -1/2 rounds to 0
        [[2, 3], [3, 7]],        # mu = 3/2 rounds to 2
        [[2, -3], [-3, 7]],      # mu = -3/2 rounds to -2
        [[2, 5], [5, 13]],       # mu = 5/2 rounds to 2
        [[4, 2, -6], [2, 6, 1], [-6, 1, 20]],
        [[2, 1, 3], [1, 3, -1], [3, -1, 11]],
        [[6, -4, 4, 1], [-4, 6, -3, -2], [4, -3, 6, 3], [1, -2, 3, 14]]])
    def test_lll_half_integral_mu(self, gram):
        # ties: round(mu) rounds half to even, as Fraction rounding does
        n = len(gram)
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        assert _lll(gram) == dot_lll(eye, gram_dot(gram))

    def test_lll_random_half_integral_grams(self):
        rng = random.Random("lll-ties")
        ties = 0
        for _ in range(300):
            n = rng.randint(2, 5)
            while True:
                rows = [[rng.choice((-2, -1, 0, 0, 1, 1, 2)) for _ in range(n)]
                        for _ in range(n + rng.randint(0, 1))]
                if lg.rank(rows) == n:
                    break
            gram = [[sum(row[i] * row[j] for row in rows) for j in range(n)]
                    for i in range(n)]
            ties += any(2 * abs(gram[i][0]) == gram[0][0] for i in range(1, n))
            eye = [[int(i == j) for j in range(n)] for i in range(n)]
            assert _lll(gram) == dot_lll(eye, gram_dot(gram))
        assert ties > 30

    @pytest.mark.parametrize("box_bound, min_refused", [(adelic.BOX_BOUND, 0),
                                                        (300, 100)])
    def test_enumerate_matches_fraction_oracle(self, box_bound, min_refused,
                                               monkeypatch):
        # the whole sorted list, or the same box-bound refusal message
        monkeypatch.setattr(adelic, "BOX_BOUND", box_bound)
        rng = random.Random(f"enumerate-{box_bound}")
        refused = 0
        for _ in range(500):
            r = rng.randint(1, 5)
            while True:
                phi = [[F(rng.randint(-4, 4), rng.choice((1, 2, 3, 6)))
                        for _ in range(r)] for _ in range(r + rng.randint(0, 2))]
                if lg.rank(phi) == r:
                    break
            try:
                want = fraction_enumerate(phi)
            except PreconditionError as exc:
                refused += 1
                with pytest.raises(PreconditionError) as info:
                    _enumerate(*lg._integer_matrix(phi))
                assert str(info.value) == str(exc)
                continue
            assert _enumerate(*lg._integer_matrix(phi)) == want
        assert refused >= min_refused

    @staticmethod
    def random_phi(rng, r, k):
        """The integer functionals of a random lattice of rank r: a
        non-identity basis and k functionals with zero entries."""
        while True:
            funcs = [[F(rng.choice((0, 0, 1, -1, 2, -2)), rng.choice((1, 1, 1, 2)))
                      for _ in range(r)] for _ in range(k)]
            cols = [[F(rng.randint(-2, 2), rng.choice((1, 1, 2, 3))) for _ in range(r)]
                    for _ in range(r)]
            if lg.rank(funcs) == r and lg.rank(cols) == r and any(
                    cols[i][j] != (i == j) for i in range(r) for j in range(r)):
                return NormedLattice(cols, funcs)._phi

    def test_pruned_scan_matches_box_scan(self, monkeypatch):
        # BOX_BOUND at each input's least box admits it with the oracle's list,
        # and so does the default bound, whose first admissible box may be
        # larger; one point less refuses it with the oracle's message.  The
        # oracle scans its whole box, so inputs past 20000 points are only
        # refused and admitted, not compared
        rng = random.Random("pruned-scan")
        compared = 0
        for r, count in [(1, 40), (2, 40), (3, 40), (4, 40), (5, 40), (6, 12)]:
            for _ in range(count):
                iphi0, den = self.random_phi(rng, r, r + rng.randint(0, 3))
                size = least_box(iphi0)[3]
                monkeypatch.setattr(adelic, "BOX_BOUND", size - 1)
                with pytest.raises(PreconditionError) as want:
                    box_scan_enumerate(iphi0, den)
                with pytest.raises(PreconditionError) as got:
                    _enumerate(iphi0, den)
                assert str(got.value) == str(want.value)
                monkeypatch.setattr(adelic, "BOX_BOUND", size)
                got = _enumerate(iphi0, den)
                if size <= 20000:
                    assert got == box_scan_enumerate(iphi0, den)
                    compared += r == 6
                monkeypatch.setattr(adelic, "BOX_BOUND", max(size, 10 ** 5))
                assert _enumerate(iphi0, den) == got
        assert compared >= 8

    def test_box_choice_stops_at_the_first_subset_within_the_bound(self, monkeypatch):
        # the first pair of rows gives a 5 x 5 box, the last pair a 3 x 3 one:
        # the scan runs in the larger box and lists the same vectors
        iphi0 = [[1, 0], [0, 1], [2, 0], [0, 2]]
        red, _, ibound, size, _ = least_box(iphi0)
        assert (red, ibound, size) == ([[1, 0], [0, 1]], 2, 9)
        adjugates, real = [], lg.adjugate
        monkeypatch.setattr(lg, "adjugate", lambda m: adjugates.append(list(m)) or real(m))
        want = box_scan_enumerate(iphi0, 1)
        adjugates.clear()
        assert _enumerate(iphi0, 1) == want
        assert adjugates == [[[1, 0], [0, 1]]]  # the first subset only
        assert len(want) == 4  # (1, 0), (0, 1), (1, 1), (1, -1)
        # a bound below the first box but at the least one goes on to it
        monkeypatch.setattr(adelic, "BOX_BOUND", 9)
        adjugates.clear()
        assert _enumerate(iphi0, 1) == want
        assert len(adjugates) == 6

    def test_integer_phi_matches_fraction_phi(self):
        rng = random.Random("phi")
        for _ in range(300):
            r = rng.randint(1, 5)
            while True:
                funcs = [[F(rng.randint(-4, 4), rng.choice((1, 2, 3, 6)))
                          for _ in range(r)] for _ in range(r + rng.randint(0, 2))]
                cols = [[F(rng.randint(-3, 3), rng.choice((1, 1, 2, 5)))
                         for _ in range(r)] for _ in range(r)]
                if lg.rank(funcs) == r and lg.rank(cols) == r:
                    break
            if rng.random() < 0.2:  # a common factor to divide out
                funcs = [[x * 6 for x in f] for f in funcs]
            M = NormedLattice(cols, funcs)
            ints, den = M._phi
            assert M._phi == lg._integer_matrix(fraction_phi(cols, funcs))
            assert [[F(x, den) for x in row] for row in ints] == fraction_phi(cols, funcs)

    def test_vector_matches_the_fraction_combination(self):
        rng = random.Random("vector")
        for _ in range(200):
            r = rng.randint(1, 5)
            while True:
                cols = [[F(rng.randint(-3, 3), rng.choice((1, 1, 2, 5))) for _ in range(r)]
                        for _ in range(r)]
                if lg.rank(cols) == r:
                    break
            M = NormedLattice(cols, [[F(int(i == j)) for j in range(r)] for i in range(r)])
            c = tuple(rng.randint(-5, 5) for _ in range(r))
            assert M.vector(c) == [sum(F(x) * col[i] for x, col in zip(c, cols))
                                   for i in range(r)]

    def test_unimodular_search_at_the_node_bound_and_one_past(self, monkeypatch):
        # nodes: (2, 0) is refused, (0, 1) taken, (1, 0) completes the basis
        vectors = [(F(1), (2, 0)), (F(1), (0, 1)), (F(1), (1, 0))]
        monkeypatch.setattr(adelic, "NODE_BOUND", 3)
        assert _find_unimodular(vectors, 2) == [(0, 1), (1, 0)]
        monkeypatch.setattr(adelic, "NODE_BOUND", 2)
        with pytest.raises(PreconditionError, match="^the Z-basis search visits "
                           "more than 2 nodes, the exact search bound$"):
            _find_unimodular(vectors, 2)

    def test_lambda_Z_at_the_node_bound_and_one_past(self, monkeypatch):
        # the l^1 lattice, where lambda_Q = 1 < lambda_Z = 3/2: the largest
        # search is a bound that passes, one node less is refused
        cols = [[F(1), F(0), F(0)], [F(0), F(1), F(0)], [F(1, 2)] * 3]
        funcs = [[F(1), F(1), F(1)], [F(1), F(1), F(-1)],
                 [F(1), F(-1), F(1)], [F(-1), F(1), F(1)]]
        real, nodes = adelic._partial_is_primitive, []
        monkeypatch.setattr(adelic, "_partial_is_primitive",
                            lambda rows: nodes.append(len(rows)) or real(rows))
        real_find, largest = adelic._find_unimodular, []

        def find(vectors, r):
            nodes.clear()
            try:
                return real_find(vectors, r)
            finally:
                largest.append(len(nodes))

        monkeypatch.setattr(adelic, "_find_unimodular", find)
        want = lambda_Z(NormedLattice(cols, funcs), want_basis=True)
        assert want[0] == F(3, 2)
        monkeypatch.setattr(adelic, "NODE_BOUND", max(largest))
        assert lambda_Z(NormedLattice(cols, funcs), want_basis=True) == want
        monkeypatch.setattr(adelic, "NODE_BOUND", max(largest) - 1)
        with pytest.raises(PreconditionError,
                           match=f"more than {max(largest) - 1} nodes"):
            lambda_Z(NormedLattice(cols, funcs))

    def test_lambda_at_the_subset_bound_and_one_past(self, monkeypatch):
        # the l^1 lattice above: 4 functionals in rank 3, so the box choice
        # takes the adjugates of C(4, 3) = 4 subsets
        cols = [[F(1), F(0), F(0)], [F(0), F(1), F(0)], [F(1, 2)] * 3]
        funcs = [[F(1), F(1), F(1)], [F(1), F(1), F(-1)],
                 [F(1), F(-1), F(1)], [F(-1), F(1), F(1)]]
        want = lambda_Q(NormedLattice(cols, funcs)), lambda_Z(NormedLattice(cols, funcs))
        assert want == (F(1), F(3, 2))
        monkeypatch.setattr(adelic, "SUBSET_BOUND", 4)
        assert (lambda_Q(NormedLattice(cols, funcs)),
                lambda_Z(NormedLattice(cols, funcs))) == want
        monkeypatch.setattr(adelic, "SUBSET_BOUND", 3)
        for invariant in (lambda_Q, lambda_Z):
            with pytest.raises(PreconditionError, match="^the box choice takes 4 adjugates "
                               "of 3-subsets, more than the subset bound 3$"):
                invariant(NormedLattice(cols, funcs))

    def test_l1_norm_on_Z6_is_refused_before_any_adjugate(self, monkeypatch):
        # 32 sign functionals: C(32, 6) = 906192 adjugates, about 48 s
        # without the bound; refused before the first one
        eye = [[F(int(i == j)) for j in range(6)] for i in range(6)]
        funcs = [[F(1)] + [F(s) for s in signs]
                 for signs in itertools.product((1, -1), repeat=5)]
        monkeypatch.setattr(lg, "adjugate", None)
        with pytest.raises(PreconditionError, match="^the box choice takes 906192 "
                           "adjugates of 6-subsets, more than the subset bound 100000$"):
            lambda_Q(NormedLattice(eye, funcs))
        assert math.comb(len(funcs), 6) > adelic.SUBSET_BOUND >= math.comb(17, 6)

    def test_non_spanning_functionals_rejected(self):
        eye = [[F(int(i == j)) for j in range(3)] for i in range(3)]
        funcs = [[F(1), F(0), F(0)], [F(0), F(1), F(0)], [F(1), F(1), F(0)]]
        with pytest.raises(PreconditionError):
            NormedLattice(eye, funcs)
        with pytest.raises(PreconditionError):
            NormedLattice(eye, [[F(1), F(0)], [F(0), F(1)]])

    def test_rank_bound_refusal(self):
        cols = [[F(1) if i == j else F(0) for j in range(9)]
                for i in range(9)]
        funcs = [[F(1) if i == j else F(0) for j in range(9)]
                 for i in range(9)]
        M = NormedLattice(cols, funcs)
        with pytest.raises(PreconditionError):
            lambda_Z(M)
        assert lambda_upper_bound(M) == 1

    def test_box_bound_refusal(self):
        # for lambda_0 = s the enumeration box holds (2s + 1) * 3 points
        eye = [[F(1), F(0)], [F(0), F(1)]]
        assert lambda_Z(NormedLattice(eye, [[F(100), F(0)], [F(0), F(1)]])) == 100
        M = NormedLattice(eye, [[F(10 ** 6), F(0)], [F(0), F(1)]])
        with pytest.raises(PreconditionError, match="enumeration bound"):
            lambda_Z(M)


class TestNakai:
    def family(self, c):
        out = {}
        for n in (1, 2, 3):
            r = n + 1
            s = c * F(1, 2) ** n
            funcs = [[(s if i == j else F(0)) for j in range(r)]
                     for i in range(r)]
            out[n] = AdelicSpace(r, {}, funcs)
        return out

    def test_unit_scale_succeeds_at_degree_one(self):
        n0, basis = nakai_first_success(self.family(F(1)), 3)
        assert n0 == 1
        assert sorted(basis) == [[F(0), F(1)], [F(1), F(0)]]

    def test_triple_scale_succeeds_at_degree_two(self):
        n0, basis = nakai_first_success(self.family(F(3)), 3)
        assert n0 == 2
        assert len(basis) == 3

    def test_search_returns_none_before_threshold(self):
        G = self.family(F(3))
        assert nakai_basis_search(G, 1) is None

    def test_graded_table(self):
        rows = list(graded_minima(self.family(F(1)), 3))
        assert [n for n, _, _, _ in rows] == [1, 2, 3]
        assert [lz for _, _, lz, _ in rows] == [F(1, 2), F(1, 4), F(1, 8)]
        for n, M, lz, basis in rows:
            assert M.rank == n + 1
            assert max(M.arch(v) for v in basis) == lz

    def test_graded_minima_missing_degree(self):
        G = self.family(F(1))
        del G[2]
        rows = graded_minima(G, 3)
        # refused at the first row, before degree 1 is computed
        with pytest.raises(PreconditionError, match="missing degree 2"):
            next(rows)
        assert [n for n, _, _, _ in graded_minima(G, 1)] == [1]

    def test_missing_degree_runs_no_lambda(self, monkeypatch):
        import ultranorm.adelic as adelic
        calls = []
        monkeypatch.setattr(adelic, "lambda_Z", lambda *a, **k: calls.append(a))
        G = self.family(F(1))
        del G[3]
        for n_max in (3, 10 ** 9):
            with pytest.raises(PreconditionError, match="graded family missing degree 3"):
                list(graded_minima(G, n_max))
            with pytest.raises(PreconditionError, match="missing degree 3"):
                nakai_first_success(G, n_max)
        assert calls == []
