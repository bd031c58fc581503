"""Over a Laurent field every kernel reads a tagged constant of Q(T) as its
rational value and returns Fractions: against the rational route, on tags, on
mixed input and on the Laurent field's own elements, which are Fractions.
Tags are built only by ``spaces.lift_constant`` and the detour's scalar
extension, and read by ``fields``; a guard keeps the tag an input tag with no
operators, and out of every other module."""

from __future__ import annotations

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest
from test_surface import SOURCE, _names
from test_spaces import basis_times

import ultranorm.linalg as lg
from ultranorm import (LaurentRationals, NormedSpace, RationalFunction, TrivialRationals,
                       distance_to_subspace, orthogonalize_flag, scalar_extension)
from ultranorm.metrics import QuotientMetric
from ultranorm.sections import Section, Subvariety, normalize_point, restriction_kernel
from ultranorm.spaces import lift_constant

F = Fraction


def fractions_only(x) -> bool:
    """Every leaf of nested lists and tuples is exactly a Fraction."""
    if isinstance(x, (list, tuple)):
        return all(map(fractions_only, x))
    return type(x) is Fraction


def mixed(rng, row):
    """The row with each entry a Fraction, an int or a tagged constant of Q(T)."""
    pick = (lambda x: x, RationalFunction,
            lambda x: x.numerator if x.denominator == 1 else x)
    return [rng.choice(pick)(x) for x in row]


def rationals(rng, n, dim):
    while True:
        rows = [[F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(dim)]
                for _ in range(n)]
        if lg.rank(rows) == min(n, dim):
            return rows


def trivial_space(rng, dim):
    K = TrivialRationals()
    weights = [K.magnitude(F(rng.randint(1, 9), rng.randint(1, 4))) for _ in range(dim)]
    return NormedSpace(K, rationals(rng, dim, dim), weights)


class TestLaurentKernelsReturnFractions:

    @pytest.mark.parametrize("P", [2, 5, 11])
    def test_linalg(self, P):
        rng = random.Random(f"laurent-fractions/linalg/{P}")
        for dim in (1, 2, 3, 4):
            a, b = rationals(rng, dim, dim), rationals(rng, 1, dim)[0]
            for consts in (lift_constant(a), [mixed(rng, row) for row in a]):
                for v in (lift_constant([b])[0], mixed(rng, b)):
                    got = lg.mat_vec(consts, v)
                    assert got == lg.mat_vec(a, b) and fractions_only(got)
                    got = lg.solve(consts, v)
                    assert got == lg.solve(a, b) and fractions_only(got)
                got = lg.rref(consts)
                assert got == lg.rref(a) and fractions_only(got[0])
                got = lg.invert(consts)
                assert got == lg.invert(a) and fractions_only(got)
                wide = consts[:-1] or consts
                got = lg.kernel_basis(wide)
                assert got == lg.kernel_basis(a[:-1] or a) and fractions_only(got)

    @pytest.mark.parametrize("P", [3, 7])
    def test_spaces(self, P):
        rng = random.Random(f"laurent-fractions/spaces/{P}")
        K = LaurentRationals(P)
        for dim in (1, 2, 3):
            base = trivial_space(rng, dim)
            ext = scalar_extension(base, K)
            lifted = NormedSpace(K, lift_constant(base.basis), ext.weights)
            rational = NormedSpace(K, base.basis, ext.weights)
            vectors = rationals(rng, dim, dim)
            x, flag = vectors[-1], vectors[:-1]
            want_flag = orthogonalize_flag(rational, vectors)
            want_dist = distance_to_subspace(rational, x, flag)
            for space in (ext, lifted):
                assert space.basis_inverse() == base.basis_inverse()
                assert fractions_only(space.basis_inverse())
                for inputs in (lift_constant(vectors), [mixed(rng, v) for v in vectors]):
                    for v, w in zip(inputs, vectors):
                        got = space.coordinates(v), basis_times(space, v)
                        assert got == (base.coordinates(w), basis_times(base, w))
                        assert fractions_only(got)
                    got = orthogonalize_flag(space, inputs)
                    assert got == want_flag and fractions_only(got[0])
                    if flag:
                        got = distance_to_subspace(space, inputs[-1], inputs[:-1])
                        assert got == want_dist and fractions_only(got[1])

    @pytest.mark.parametrize("P", [3, 7])
    def test_empty_subspace(self, P):
        """The minimizer over the empty subspace is ``field.zero()`` in every
        entry, a Fraction over a Laurent field too; the distance is the norm."""
        rng = random.Random(f"laurent-fractions/empty/{P}")
        K = LaurentRationals(P)
        for dim in (1, 2, 3):
            base = trivial_space(rng, dim)
            ext = scalar_extension(base, K)
            x = rationals(rng, 1, dim)[0]
            for space in (ext, NormedSpace(K, lift_constant(base.basis), ext.weights)):
                for v in (x, lift_constant([x])[0], mixed(rng, x)):
                    dist, minimizer = distance_to_subspace(space, v, [])
                    assert dist == ext.norm(x) and minimizer == [0] * dim
                    assert fractions_only(minimizer)

    def test_sections(self):
        rng = random.Random("laurent-fractions/sections")
        K, Q = LaurentRationals(5), TrivialRationals()
        for nv in (2, 3):
            for _ in range(5):
                pts = rationals(rng, nv + 1, nv)
                for coords in (lift_constant(pts), [mixed(rng, p) for p in pts]):
                    for c, p in zip(coords, pts):
                        got = normalize_point(K, c)
                        assert got == normalize_point(Q, p) and fractions_only(got)
                    for n in (0, 1, 2, 3):
                        got = restriction_kernel(Subvariety(K, nv, points=coords), n)
                        want = restriction_kernel(Subvariety(Q, nv, points=pts), n)
                        assert got == want and fractions_only(got)
                        got = restriction_kernel(Subvariety(K, nv, linear_forms=coords[:1]), n)
                        want = restriction_kernel(Subvariety(Q, nv, linear_forms=pts[:1]), n)
                        assert got == want and fractions_only(got)
            for d1, d2 in ((0, 1), (1, 1), (2, 1), (1, 3)):
                s, t = (Section.from_vector(Q, nv - 1, d, rationals(rng, 1, len(
                    Section.zero(Q, nv, d).to_vector()))[0]) for d in (d1, d2))
                sL, tL = (Section(K, nv, u.degree, dict(zip(u.coeffs, mixed(
                    rng, list(u.coeffs.values()))))) for u in (s, t))
                got = sL * tL
                assert got.coeffs == (s * t).coeffs and fractions_only(list(got.coeffs.values()))
                got = tL ** 3
                assert got.coeffs == (t ** 3).coeffs and fractions_only(list(got.coeffs.values()))

    def test_gauss_basis(self):
        rng = random.Random("laurent-fractions/gauss")
        K = LaurentRationals(5)
        for nv in (2, 3):
            base = trivial_space(rng, nv)
            weights = [K.magnitude(w.q, 0) for w in base.weights]
            h = QuotientMetric(NormedSpace(K, lift_constant(base.basis), weights))
            h_rational = QuotientMetric(base)
            for n in (0, 1, 2, 4):
                got = h.gauss_space(n).basis
                assert got == h_rational.gauss_space(n).basis and fractions_only(got)
                got = h.gauss_space(n).basis_inverse()
                assert got == h_rational.gauss_space(n).basis_inverse()
                assert fractions_only(got)


def mentions(path: Path) -> set:
    """Every name and attribute a module uses, imports or defines."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return _names(tree) | {node.name for node in ast.walk(tree) if isinstance(
        node, (ast.FunctionDef, ast.ClassDef, ast.alias))}


def _scopes_naming(tree: ast.Module, name: str) -> set:
    """The top-level definitions whose body mentions ``name``, as "module"
    for a mention outside every definition (an import or a statement)."""
    scopes = set()
    for node in tree.body:
        if name in _names(node) or any(
                isinstance(n, ast.alias) and name in (n.name, n.asname) for n in ast.walk(node)):
            is_def = isinstance(node, (ast.FunctionDef, ast.ClassDef))
            scopes.add(node.name if is_def else "module")
    return scopes


class TestNoConstantRewrapping:
    """The tag is an input tag: it defines no dunder but ``__init__``, and
    only ``fields``, ``spaces.lift_constant`` and the detour name it (the
    package's ``__init__`` re-exports it).  The lift helpers that wrapped
    kernel results do not come back."""

    @pytest.mark.parametrize("module", ["linalg", "metrics", "sections"])
    def test_kernel_modules_name_no_constant(self, module):
        assert mentions(SOURCE / f"{module}.py") & {"RationalFunction", "_of_constant"} == set()

    def test_the_tag_defines_only_init(self):
        tree = ast.parse((SOURCE / "fields.py").read_text(encoding="utf-8"))
        (cls,) = [n for n in tree.body if isinstance(n, ast.ClassDef)
                  and n.name == "RationalFunction"]
        methods = [n.name for n in cls.body if isinstance(n, ast.FunctionDef)]
        assert methods == ["__init__"]

    def test_only_the_input_side_names_the_tag(self):
        allowed = {"fields": None, "__init__": {"module"},
                   "spaces": {"module", "lift_constant"},
                   "extension": {"module", "extend_trivial_via_laurent"}}
        for path in sorted(SOURCE.glob("*.py")):
            scopes = _scopes_naming(ast.parse(path.read_text(encoding="utf-8")),
                                    "RationalFunction")
            if path.stem in allowed:
                assert allowed[path.stem] is None or scopes <= allowed[path.stem], path.name
            else:
                assert scopes == set(), path.name
        for path in sorted(SOURCE.glob("*.py")):
            assert mentions(path) & {"_of_constant", "constant"} == set(), path.name

    def test_lift_helpers_stay_gone(self):
        for path in sorted(SOURCE.glob("*.py")):
            assert mentions(path) & {"_lift", "_lifted", "_lift_basis", "_one"} == set(), path.name
