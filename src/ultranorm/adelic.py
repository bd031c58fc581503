"""Adelically normed Q-vector spaces and their lambda invariants.

An adelic space carries a p-adic norm at finitely many primes (all other
primes standard orthonormal) plus an archimedean polyhedral norm given
by finitely many rational linear functionals.  The finite places cut out
a Z-lattice; lambda_Q / lambda_Z are the smallest archimedean bounds
admitting a Q-basis inside the lattice / a Z-basis of the lattice.  Both
read one exact result per lattice, all in Python integers: an integral LLL
reduction on the Gram matrix of the functionals, the box of the first
r-subset whose integer adjugate keeps it within BOX_BOUND, then one
interval-pruned depth-first scan of the short vectors up to the largest
norm in the reduced basis.  On top sits the graded basis search for free
bases of archimedean norm < 1."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import comb, gcd, prod
from operator import mul
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from . import linalg
from .fields import PadicRationals, _vp
from .spaces import NormedSpace, PreconditionError

RANK_BOUND = 8
BOX_BOUND = 10 ** 5  # lattice points: about 1 s for lambda_Q and lambda_Z at rank 2 or 8
NODE_BOUND = 10 ** 5  # primitivity tests in one Z-basis search: about 5 s at rank 6
SUBSET_BOUND = 10 ** 5  # r-subsets whose adjugate picks the box: about 8 s at rank 6


# ----------------------------------------------------------------------
# Archimedean polyhedral norms
# ----------------------------------------------------------------------


def arch_norm(functionals: Sequence[Sequence[Fraction]], v: Sequence[Fraction]) -> Fraction:
    """max_j |<f_j, v>| over the defining functionals (exact)."""
    return max((abs(sum(map(mul, f, v))) for f in functionals), default=Fraction(0))


# ----------------------------------------------------------------------
# AdelicSpace and its finite-part lattice
# ----------------------------------------------------------------------


@dataclass
class AdelicSpace:
    """Q^r with p-adic norms at finitely many primes and a polyhedral
    archimedean norm; unlisted primes carry the standard norm."""

    dim: int
    finite_places: Dict[int, NormedSpace]
    arch_functionals: List[List[Fraction]]

    def __post_init__(self):
        for p, space in self.finite_places.items():
            if space.field != PadicRationals(p):
                raise PreconditionError(f"place {p} carries a wrong-field norm")
            if space.dim != self.dim:
                raise PreconditionError("finite-place dimension mismatch")
        for i, f in enumerate(self.arch_functionals):
            if len(f) != self.dim:
                raise PreconditionError(
                    f"arch functional {i} has {len(f)} entries, the dimension "
                    f"is {self.dim}")
        funcs = [[Fraction(x) for x in f] for f in self.arch_functionals]
        if linalg.rank(funcs) < self.dim:
            raise PreconditionError("archimedean functionals must span the dual")
        self.arch_functionals = funcs

    def place(self, p: int) -> NormedSpace:
        if p in self.finite_places:
            return self.finite_places[p]
        return NormedSpace.standard(PadicRationals(p), self.dim)


@dataclass
class NormedLattice:
    """A Z-lattice in Q^r (canonical basis columns) with an archimedean
    polyhedral norm attached."""

    basis_columns: List[List[Fraction]]  # canonical, full rank
    arch_functionals: List[List[Fraction]]

    def __post_init__(self):
        if any(len(f) != self.dim for f in self.arch_functionals):
            raise PreconditionError("functional length differs from the dimension")
        # the functionals in lattice coordinates as (integers, den), equal to
        # ``linalg._integer_matrix`` of their rational values
        funcs, d_f = linalg._integer_matrix(self.arch_functionals)
        cols, d_c = self._cols = linalg._integer_matrix(self.basis_columns)
        phi = [[sum(map(mul, f, c)) for c in cols] for f in funcs]
        g = gcd(d_f * d_c, *(x for row in phi for x in row))
        self._phi = ([[x // g for x in row] for row in phi], d_f * d_c // g)
        if self.rank and linalg.rank(self._phi[0]) < self.rank:
            raise PreconditionError("archimedean functionals do not span the lattice's dual")

    @cached_property
    def _short_vectors(self) -> List[Tuple[Fraction, Tuple[int, ...]]]:
        """``_enumerate`` of this lattice, computed on first use and read
        by both lambda_Q and lambda_Z."""
        if self.rank > RANK_BOUND:
            raise PreconditionError(
                f"rank {self.rank} exceeds the exact enumeration bound {RANK_BOUND}")
        return _enumerate(*self._phi)

    @cached_property
    def _lambda_Q(self) -> Fraction:
        """lambda_Q, computed once: lambda_Z starts its search there."""
        if self.rank == 0:
            return Fraction(0)
        kept = linalg.extend_basis([], [c for _, c in self._short_vectors], self.rank)
        if len(kept) < self.rank:
            raise PreconditionError("enumeration failed to find a basis (internal error)")
        # the vectors are sorted by value, so the last one kept is the largest
        return self._short_vectors[kept[-1]][0]

    @property
    def rank(self) -> int:
        return len(self.basis_columns)

    @property
    def dim(self) -> int:
        return len(self.basis_columns[0]) if self.basis_columns else 0

    def vector(self, coords: Sequence[int]) -> List[Fraction]:
        cols, d = self._cols
        return [Fraction(sum(map(mul, coords, row)), d) for row in zip(*cols)]

    def arch(self, v: Sequence[Fraction]) -> Fraction:
        return arch_norm(self.arch_functionals, v)

    def __eq__(self, other) -> bool:
        if not isinstance(other, NormedLattice):
            return NotImplemented
        return self.basis_columns == other.basis_columns


def _rational_hnf(cols: Sequence[Sequence[Fraction]]) -> List[List[Fraction]]:
    """Canonical Z-basis of the lattice spanned by rational columns."""
    int_cols, d = linalg._integer_matrix(cols)
    return [[Fraction(x, d) for x in c] for c in linalg.hnf_column_basis(int_cols)]


def _place_ball(p: int, space: NormedSpace) -> Tuple[List[Tuple[List[int], int]], int]:
    """The unit ball of the place norm as (c, v) pairs, c a primitive
    integer vector: the p^v c span it over Z_(p) and are q-integral for
    every other prime q.  Also the least n >= 0 with p^n Z_(p)^r inside it."""
    from .spaces import lattice_from_norm
    lat = lattice_from_norm(space)
    out = []
    for col in lat.columns():
        ints, den = linalg._integer_row(col)
        g = gcd(*ints)
        out.append(([x // g for x in ints], _vp(g, p) - _vp(den, p)))
    inv, d_inv = linalg._integer_matrix(linalg.invert(lat.basis))
    return out, max(0, _vp(d_inv, p) - _vp(gcd(*(x for row in inv for x in row)), p))


def finite_unit_lattice(A: AdelicSpace) -> NormedLattice:
    """The lattice {x : ||x||_p <= 1 for all finite p}, with A's
    archimedean norm attached."""
    r = A.dim
    balls = {p: _place_ball(p, A.finite_places[p]) for p in sorted(A.finite_places)}
    # common overlattice U = (1/d) Z^r containing every place's unit ball
    d = prod(p ** max(0, -min(v for _, v in cols)) for p, (cols, _) in balls.items())
    current = [[int(i == j) for i in range(r)] for j in range(r)]  # Z^r
    for k, (p, (cols, n0)) in enumerate(balls.items()):
        # d G, G the Z-lattice equal to the ball at p and to U at every other
        # prime: the p^v c with a large p-power multiple of U, in integers
        gens = [[x * (d * p ** v if v >= 0 else d // p ** -v) for x in c] for c, v in cols]
        gens += [[p ** (n0 + _vp(d, p)) * (i == j) for j in range(r)] for i in range(r)]
        g = linalg.hnf_column_basis(gens)
        current = g if k == 0 else linalg.lattice_intersection(current, g)
    return NormedLattice([[Fraction(x, d) for x in c] for c in current],
                         A.arch_functionals)


def check_localization(A: AdelicSpace, M: NormedLattice, p: int) -> bool:
    """Lemma-style identity: M (x) Z_(p) equals the p-adic unit ball,
    checked by generator membership both ways."""
    space = A.place(p)
    one = space.field.one_magnitude()
    # every lattice generator has p-norm <= 1
    if any(space.norm(col) > one for col in M.basis_columns):
        return False
    # every unit-ball generator lies in M (x) Z_(p)
    from .spaces import lattice_from_norm
    ball = lattice_from_norm(space)
    mat = [[M.basis_columns[j][i] for j in range(M.rank)] for i in range(M.dim)]
    for col in ball.columns():
        coords = linalg.solve(mat, col)
        if coords is None or any(c != 0 and _vp(c, p) < 0 for c in coords):
            return False
    return True


# ----------------------------------------------------------------------
# lambda invariants by exact enumeration
# ----------------------------------------------------------------------


def _lll(gram: List[List[int]]) -> List[List[int]]:
    """Exact LLL reduction (delta = 3/4) of Z^r under a positive-definite
    integer Gram matrix; returns the unimodular transform whose rows are
    the reduced basis.  It keeps integral Gram-Schmidt data (Cohen, GTM
    138, Alg. 2.6.7): d[i + 1] the Gram determinant of rows 0..i, d[0] = 1,
    and lam[k][j] = d[j + 1] mu[k][j], updated in place by each size
    reduction and, by exact divisions, by each swap; only the rounding of
    a mu is ever a Fraction."""
    n = len(gram)
    b = [[int(i == j) for j in range(n)] for i in range(n)]
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]
    for k in range(n):
        for j in range(k + 1):
            u = gram[k][j]
            for i in range(j):
                u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = u
            else:
                d[k + 1] = u
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            # q = round(mu[k][j]) (half to even), which is 0 for |mu| <= 1/2
            if 2 * abs(lam[k][j]) > d[j + 1]:
                q = round(Fraction(lam[k][j], d[j + 1]))
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                lam[k][j] -= q * d[j + 1]
                for i in range(j):
                    lam[k][i] -= q * lam[j][i]
        t = lam[k][k - 1]
        if 4 * (d[k + 1] * d[k - 1] + t * t) >= 3 * d[k] * d[k]:
            k += 1
            continue
        b[k], b[k - 1] = b[k - 1], b[k]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        dk = (d[k - 1] * d[k + 1] + t * t) // d[k]
        for i in range(k + 1, n):
            u = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - t * u) // d[k]
            lam[i][k - 1] = (dk * u + t * lam[i][k]) // d[k + 1]
        d[k] = dk
        k = max(k - 1, 1)
    return b


def _enumerate(iphi0: List[List[int]],
               den: int) -> List[Tuple[Fraction, Tuple[int, ...]]]:
    """All nonzero lattice coordinate vectors (one per +-pair) with
    archimedean norm <= lambda_0, as sorted (norm, coords) pairs, where
    iphi0 / den holds the functionals in lattice coordinates and lambda_0
    is the largest norm in an LLL-reduced basis (so the list holds a
    Z-basis).  All in integers on iphi0."""
    r = len(iphi0[0])
    if comb(len(iphi0), r) > SUBSET_BOUND:
        raise PreconditionError(f"the box choice takes {comb(len(iphi0), r)} adjugates of "
                                f"{r}-subsets, more than the subset bound {SUBSET_BOUND}")
    # enumerate in LLL-reduced coordinates (smaller boxes), convert back;
    # LLL is invariant under the scaling by den^2 of the Gram matrix
    cols = list(zip(*iphi0))
    red = _lll([[sum(map(mul, x, y)) for y in cols] for x in cols])
    iphi = [[sum(map(mul, row, v)) for v in red] for row in iphi0]
    ibound = max(abs(x) for row in iphi for x in row)
    # the first invertible row subset S whose box is within the bound: |phi c|
    # <= lambda_0 bounds |c_i| by ibound * sum_j |adj_ij| / |det| on S's rows;
    # the least box over all subsets is taken only to word a refusal
    least = None
    for subset in combinations(iphi, r):
        adj, det = linalg.adjugate(subset)
        if not det:
            continue
        box = [ibound * sum(map(abs, row)) // abs(det) for row in adj]
        size = prod(2 * b + 1 for b in box)
        if size <= BOX_BOUND:
            break
        least = size if least is None else min(least, size)
    else:
        try:
            count = str(least)
        except ValueError:  # past the interpreter's int-to-str digit limit
            count = f"at least 2^{least.bit_length() - 1}"
        raise PreconditionError(f"the enumeration box holds {count} points, more than the "
                                f"exact enumeration bound {BOX_BOUND}")
    # depth first over the box: coordinate t takes the integer interval that
    # keeps each row within limit[t], ibound plus the most that the later
    # coordinates can add inside the box, so only the polytope's nodes are
    # visited; the first nonzero coordinate is positive (one per +-pair)
    cols = list(zip(*iphi))
    limit = [[ibound + sum(abs(a) * b for a, b in zip(row[t + 1:], box[t + 1:]))
              for row in iphi] for t in range(r)]
    out: List[Tuple[int, Tuple[int, ...]]] = []

    def scan(t: int, s: List[int], orig: List[int], lead: bool) -> None:
        lo, hi = -box[t] if lead else 0, box[t]
        for a, x, m in zip(cols[t], s, limit[t]):
            if a:
                if a < 0:
                    a, x = -a, -x
                lo, hi = max(lo, -((m + x) // a)), min(hi, (m - x) // a)
        for c in range(lo, hi + 1):
            row_sums = [x + a * c for a, x in zip(cols[t], s)]
            v = [x + c * y for x, y in zip(orig, red[t])]
            if t + 1 < r:
                scan(t + 1, row_sums, v, lead or c != 0)
            elif lead or c:
                # canonical sign: first nonzero original coordinate positive
                if next(x for x in v if x) < 0:
                    v = [-x for x in v]
                out.append((max(map(abs, row_sums)), tuple(v)))

    scan(0, [0] * len(iphi), [0] * r, False)
    # by norm (all over den, so on the integers), ties broken toward
    # sparser/smaller coordinate vectors; one Fraction per vector at the end
    out.sort(key=lambda t: (t[0], sum(map(abs, t[1])), t[1]))
    return [(Fraction(val, den), coords) for val, coords in out]


def lambda_Q(M: NormedLattice) -> Fraction:
    """Least lambda admitting a Q-basis inside M with all archimedean
    norms <= lambda."""
    return M._lambda_Q


def _partial_is_primitive(rows: List[Sequence[int]]) -> bool:
    """True iff the rows extend to a Z-basis of Z^r: all elementary
    divisors equal 1."""
    div = linalg.smith_diagonal([list(r) for r in rows])
    return len(div) == len(rows) and all(d == 1 for d in div)


def _find_unimodular(vectors: List[Tuple[Fraction, Tuple[int, ...]]],
                     r: int) -> Optional[List[Tuple[int, ...]]]:
    """A size-r subset of the coordinate vectors forming a Z-basis of
    Z^r (determinant +-1), or None; refused past NODE_BOUND nodes."""
    coords = [v for _, v in vectors]
    nodes = 0

    def dfs(start: int, selected: List[Tuple[int, ...]]) -> Optional[List[Tuple[int, ...]]]:
        nonlocal nodes
        if len(selected) == r:
            return list(selected)
        for i in range(start, len(coords)):
            nodes += 1
            if nodes > NODE_BOUND:
                raise PreconditionError(
                    f"the Z-basis search visits more than {NODE_BOUND} nodes, "
                    "the exact search bound")
            trial = selected + [coords[i]]
            if _partial_is_primitive(trial):
                found = dfs(i + 1, trial)
                if found is not None:
                    return found
        return None

    return dfs(0, [])


def lambda_Z(M: NormedLattice, want_basis: bool = False):
    """Least lambda admitting a Z-basis of M with all archimedean norms
    <= lambda; optionally also returns one such basis (ambient vectors)."""
    if M.rank == 0:
        return (Fraction(0), []) if want_basis else Fraction(0)
    vectors = M._short_vectors
    values = sorted({val for val, _ in vectors})
    # binary search the smallest attained value admitting a Z-basis; a
    # Z-basis is a Q-basis, so no value below lambda_Q admits one
    lo, hi = values.index(M._lambda_Q), len(values) - 1
    best: Optional[Tuple[Fraction, List[Tuple[int, ...]]]] = None
    while lo <= hi:
        mid = (lo + hi) // 2
        subset = [(v, c) for v, c in vectors if v <= values[mid]]
        found = _find_unimodular(subset, M.rank)
        if found is not None:
            best = (values[mid], found)
            hi = mid - 1
        else:
            lo = mid + 1
    if best is None:
        raise PreconditionError("no Z-basis found below the initial bound (internal error)")
    if want_basis:
        return best[0], [M.vector(c) for c in best[1]]
    return best[0]


# ----------------------------------------------------------------------
# Graded structures: per-degree minima and the basis search
# ----------------------------------------------------------------------


def graded_minima(G: Dict[int, AdelicSpace],
                  n_max: int) -> Iterator[Tuple[int, NormedLattice, Fraction, list]]:
    """(n, M, lambda_Z(M), a Z-basis attaining it) for n = 1..n_max, where
    M is the finite-part lattice of degree n; every degree is checked first."""
    for n in range(1, n_max + 1):
        if n not in G:
            raise PreconditionError(f"graded family missing degree {n}")
    for n in range(1, n_max + 1):
        M = finite_unit_lattice(G[n])
        yield (n, M, *lambda_Z(M, want_basis=True))


def nakai_basis_search(G: Dict[int, AdelicSpace], n: int):
    """A Z-basis of the degree-n finite-part lattice with all archimedean
    norms < 1, or None at this degree (decided exactly via lambda_Z)."""
    lz, basis = lambda_Z(finite_unit_lattice(G[n]), want_basis=True)
    return basis if lz < 1 else None


def nakai_first_success(G: Dict[int, AdelicSpace], n_max: int):
    """(first degree with a norm-<1 free basis, that basis), or (None, None)."""
    for n, _, lz, basis in graded_minima(G, n_max):
        if lz < 1:
            return n, basis
    return None, None
