"""Job lists for the four benchmark workloads, generated from a seed.

A job is one ``ultranorm`` CLI invocation: a subcommand, the JSON files it
reads, extra flags, and the facts the output checks need.  Each workload
has a fixed *shape* (which subcommands, at which sizes, in which order);
the seed and the pass index only choose the numbers inside the configs.
So every pass costs about the same, while no two jobs in a run share a
config and no memo kept between jobs can stand in for the work.

Only valid configs are generated: every job is expected to exit 0.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction as F
from typing import Callable, Dict, List, Sequence

@dataclass
class Job:
    """One CLI call: ``[command, *flags for files, *extra]``."""

    command: str
    files: Dict[str, object]  # flag (e.g. "--config") -> JSON document
    extra: List[str] = field(default_factory=list)
    facts: Dict[str, object] = field(default_factory=dict)


# ----------------------------------------------------------------------
# exact helpers
# ----------------------------------------------------------------------


def rat(x) -> str:
    x = F(x)
    return f"{x.numerator}/{x.denominator}"


def rank(rows: Sequence[Sequence[F]]) -> int:
    a = [[F(x) for x in row] for row in rows]
    r = 0
    cols = len(a[0]) if a else 0
    for c in range(cols):
        piv = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c] / a[r][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


def invertible(rng: random.Random, dim: int, lo: int, hi: int,
               dens=(1,)) -> List[List[F]]:
    while True:
        m = [[F(rng.randint(lo, hi), rng.choice(dens)) for _ in range(dim)]
             for _ in range(dim)]
        if rank(m) == dim:
            return m


def proportional(a: Sequence[F], b: Sequence[F]) -> bool:
    return all(a[i] * b[j] == a[j] * b[i]
               for i in range(len(a)) for j in range(i + 1, len(a)))


def distinct_points(rng: random.Random, k: int, nv: int,
                    lo: int = -6, hi: int = 6) -> List[List[F]]:
    pts: List[List[F]] = []
    while len(pts) < k:
        p = [F(rng.randint(lo, hi), rng.randint(1, 4)) for _ in range(nv)]
        if any(p) and not any(proportional(p, q) for q in pts):
            pts.append(p)
    return pts


def matrix_json(rows) -> List[List[str]]:
    return [[rat(x) for x in row] for row in rows]


def space_json(field_json, basis, weights) -> dict:
    return {"field": field_json, "basis": matrix_json(basis),
            "weights": [{"q": rat(q), "n": n} for q, n in weights]}


def identity(dim: int) -> List[List[F]]:
    return [[F(int(i == j)) for j in range(dim)] for i in range(dim)]


def padic_space(rng: random.Random, p: int, dim: int) -> dict:
    """Random non-diagonal basis with weights q * (1/p)^n."""
    basis = invertible(rng, dim, -3, 3)
    weights = [(rng.choice((F(1), F(1), F(2), F(1, 3), F(5, 7))),
                rng.randint(-2, 2)) for _ in range(dim)]
    return space_json({"type": "padic", "p": p}, basis, weights)


def diagonal_power_space(rng: random.Random, p: int, dim: int) -> dict:
    """Identity basis with p-power weights: sigma is exactly 1 here."""
    weights = [(F(1), rng.randint(-2, 2)) for _ in range(dim)]
    return space_json({"type": "padic", "p": p}, identity(dim), weights)


def trivial_space(rng: random.Random, dim: int) -> dict:
    basis = invertible(rng, dim, -3, 3)
    weights = [(rng.choice((F(1), F(2), F(1, 2), F(3))), 0)
               for _ in range(dim)]
    return space_json({"type": "trivial"}, basis, weights)


def linear_form(rng: random.Random, nv: int, points) -> dict:
    """Degree-1 section that is nonzero on at least one of the points."""
    while True:
        c = [F(rng.randint(-3, 3)) for _ in range(nv)]
        if any(sum(a * x for a, x in zip(c, pt)) != 0 for pt in points):
            break
    coeffs = {}
    for i, a in enumerate(c):
        if a != 0:
            coeffs[",".join("1" if j == i else "0" for j in range(nv))] = rat(a)
    return {"degree": 1, "variables": nv, "coeffs": coeffs}


def extension_config(rng: random.Random, space: dict, nv: int,
                     npoints: int) -> dict:
    pts = distinct_points(rng, npoints, nv)
    return {"space": space, "subvariety": {"points": matrix_json(pts)},
            "representative": linear_form(rng, nv, pts)}


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------


def gauss_extension(rng: random.Random) -> List[Job]:
    """p-adic sigma samples and epsilon extension tables on P^1 and P^2."""
    jobs = []
    shapes = ([(2, 2 + i % 3, 2 + (i * 7) % 19) for i in range(56)]
              + [(3, 1 + i % 3, 2 + (i * 5) % 11) for i in range(32)]
              + [(3, 5, 2)])
    for i, (nv, degree, npts) in enumerate(shapes):
        p = (2, 3, 5)[i % 3]
        diagonal = i % 6 == 5
        space = (diagonal_power_space if diagonal else padic_space)(rng, p, nv)
        pts = distinct_points(rng, npts, nv, -9, 9)
        jobs.append(Job("sigma-sample",
                        {"--config": {"space": space},
                         "--points": {"points": matrix_json(pts)}},
                        ["--max-degree", str(degree)],
                        {"diagonal": diagonal}))
    shapes = ([(2, 4 + i % 7) for i in range(12)]
              + [(3, 3 + i % 3) for i in range(8)] + [(3, 6)])
    for i, (nv, degree) in enumerate(shapes):
        space = padic_space(rng, (2, 3, 5)[i % 3], nv)
        cfg = extension_config(rng, space, nv, 2 + i % 3)
        eps = rat(F(1, rng.choice((10, 50, 100))))
        jobs.append(Job("extension-table", {"--config": cfg},
                        ["--max-degree", str(degree), "--epsilon", eps]))
    for i in range(4):
        # a line in P^2, given by one linear form
        form = [F(rng.randint(-3, 3)) for _ in range(3)]
        form[i % 3] = F(rng.choice((1, 2, 3)))
        while True:
            rep = linear_form(rng, 3, [[F(1)] * 3])
            coeffs = [F(rep["coeffs"].get(e, 0))
                      for e in ("1,0,0", "0,1,0", "0,0,1")]
            if not proportional(coeffs, form):
                break
        cfg = {"space": padic_space(rng, (2, 3, 5)[i % 3], 3),
               "subvariety": {"linear": matrix_json([form])},
               "representative": rep}
        jobs.append(Job("extension-table", {"--config": cfg},
                        ["--max-degree", str(3 + i % 3), "--epsilon", "1/20"]))
    return jobs


def laurent_detour(rng: random.Random) -> List[Job]:
    """Trivially valued extensions through the Laurent-series detour.

    No P^2 degree-4 job: at about 0.8 s it alone would be a quarter of a
    pass and most of the difference between seeds.
    """
    shapes = ([(2, 2)] * 30 + [(2, 3)] * 25 + [(2, 4)] * 20 + [(2, 5)] * 10
              + [(3, 2)] * 13 + [(3, 3)] * 2)
    jobs = []
    for i, (nv, degree) in enumerate(shapes):
        cfg = extension_config(rng, trivial_space(rng, nv), nv, 1 + i % 3)
        jobs.append(Job("extend-trivial", {"--config": cfg},
                        ["--max-degree", str(degree)]))
    return jobs


def _functionals(rng: random.Random, r: int, k: int, scale: F = F(1)):
    while True:
        rows = [[F(rng.randint(-2, 2)) * scale for _ in range(r)]
                for _ in range(k)]
        if rank(rows) == r:
            return rows


def _adelic(rng: random.Random, r: int, scale: F) -> dict:
    places = {}
    for p in (2, 3):
        basis = invertible(rng, r, -2, 2)
        weights = [(F(1), rng.randint(-1, 1)) for _ in range(r)]
        places[str(p)] = space_json({"type": "padic", "p": p}, basis, weights)
    funcs = _functionals(rng, r, r + 1, scale)
    return {"dim": r, "places": places, "arch_functionals": matrix_json(funcs)}


def lattice_minima(rng: random.Random) -> List[Job]:
    """Exact lattice minima and the graded basis search.

    Rank-3 lambda jobs and rank-2 graded families only: on random rank-4
    lattices and rank-3 graded families the unimodular basis search in
    ``adelic`` is exhaustive and sometimes runs for minutes (one job took
    over three), which no run can absorb, and rank 5-6 jobs take seconds
    each with a long tail.
    """
    jobs = []
    for i in range(80):
        r, k = 3, 4 + (i % 3 == 2)
        cols = invertible(rng, r, -2, 2, (1, 1, 2))
        funcs = _functionals(rng, r, k)
        lattice = {"columns": matrix_json(cols)}
        norm = {"functionals": matrix_json(funcs)}
        if i % 2:
            files = {"--config": {"lattice": lattice, "norm": norm}}
        else:
            files = {"--lattice": lattice, "--norm": norm}
        jobs.append(Job("lambda", files, [], {"functionals": funcs}))
    for _ in range(20):
        degrees = {str(n): _adelic(rng, 2, F(rng.choice((1, 2, 3)), 2 ** n))
                   for n in (1, 2, 3)}
        jobs.append(Job("nakai", {"--config": {"degrees": degrees}},
                        ["--max-degree", "3"], {"degrees": degrees}))
    return jobs


def small_requests(rng: random.Random) -> List[Job]:
    """Many cheap orthogonalize / quotient / dual / lattice calls."""
    jobs = []
    for i in range(480):
        dim = 2 + i % 7
        kind = i % 5
        p = (2, 3, 5, 7)[i % 4]
        if kind >= 3 or i % 2 == 0:
            space = padic_space(rng, p, dim)
        else:
            space = trivial_space(rng, dim)
        if kind == 0:
            vecs = invertible(rng, dim, -4, 4)[:1 + i % dim]
            jobs.append(Job("orthogonalize", {"--config": {
                "space": space, "vectors": matrix_json(vecs)}}))
        elif kind == 1:
            sur = invertible(rng, dim, -3, 3)[:1 + i % (dim - 1)]
            jobs.append(Job("quotient", {"--config": {
                "space": space, "surjection": matrix_json(sur)}},
                facts={"surjection": sur}))
        elif kind == 2:
            jobs.append(Job("dual", {"--config": {"space": space}}))
        elif kind == 3:
            jobs.append(Job("lattice", {"--config": {"space": space}}))
        else:
            cols = invertible(rng, dim, -4, 4, (1, 1, p))
            jobs.append(Job("lattice", {"--config": {
                "field": {"type": "padic", "p": p},
                "lattice": {"columns": matrix_json(cols)}}}))
    return jobs


GENERATORS: Dict[str, Callable[[random.Random], List[Job]]] = {
    "gauss_extension": gauss_extension,
    "laurent_detour": laurent_detour,
    "lattice_minima": lattice_minima,
    "small_requests": small_requests,
}
WORKLOADS = tuple(GENERATORS)


def jobs_for(workload: str, seed: int, pass_index) -> List[Job]:
    """The job list of one pass; the same arguments give the same jobs."""
    return GENERATORS[workload](random.Random(f"{workload}/{seed}/{pass_index}"))
