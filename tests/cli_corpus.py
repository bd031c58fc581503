"""Golden CLI corpus: deterministic cases for ``ultranorm.cli.main`` and the
sha256 digest of what each one prints.

Each case is a list of arguments plus the files it reads; it runs in process,
in a fresh directory holding those files, so error messages that name a path
read the same on every machine.  ``tests/test_cli_corpus.py`` compares every
case with ``cli_corpus.json``.  Record that file again with

    PYTHONPATH=src python3 tests/cli_corpus.py

only on a commit whose outputs are known good, and list the changed cases when
a change alters bytes on purpose.  Recording refuses a case that exits 1 or
prints a traceback.  The digests hold for the Python minor version recorded in
the file: argparse, json and the interpreter's digit limit word their messages
per version.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from typing import Dict, List

from ultranorm import cli

DIGESTS = Path(__file__).with_name("cli_corpus.json")

FIELDS = {
    "q2": {"type": "padic", "p": 2},
    "q3": {"type": "padic", "p": 3},
    "q1000003": {"type": "padic", "p": 1000003},
    "trivial": {"type": "trivial"},
    "laurent5": {"type": "laurent", "base_prime": 5},
}

# (basis rows, weights as (q, n)) on P^1 and P^2; the diagonal frame has unit weights
FRAMES = {
    "diag1": ([["1", "0"], ["0", "1"]], [("1", 0), ("1", 0)]),
    "frame1": ([["1", "2/3"], ["5", "-7"]], [("3/5", 1), ("1", 0)]),
    "frame2": ([["1", "2/3", "0"], ["5", "-7", "1/2"], ["0", "1", "4"]],
               [("3/5", 1), ("7/4", -2), ("1", 0)]),
}

POINTS = {2: [["1", "0"], ["1", "1"], ["2", "-3"]],
          3: [["1", "0", "0"], ["1", "1", "1"], ["2", "-1", "3"]]}
VECTORS = {2: [["6", "0"], ["2", "1"]],
           3: [["1", "1", "0"], ["0", "2", "-1"], ["3", "0", "1/9"]]}
SURJECTIONS = {2: [["1", "1"]], 3: [["1", "1", "0"], ["0", "2", "-1"]]}
LINEAR = {2: [["1", "-1"]], 3: [["1", "2", "-1"]]}


def _space(field, basis, weights) -> dict:
    return {"field": field, "basis": basis,
            "weights": [{"q": q, "n": n} for q, n in weights]}


def _representative(dim: int) -> dict:
    return {"degree": 1, "variables": dim, "coeffs": {",".join("1" if i == j else "0"
                                                               for j in range(dim)): "1"
                                                      for i in (0, dim - 1)}}


def _identity(dim: int) -> List[List[str]]:
    return [["1" if i == j else "0" for j in range(dim)] for i in range(dim)]


def _case(argv: List[str], files: Dict[str, object], env: Dict[str, str] = None) -> dict:
    """A case that writes those of ``files`` that ``argv`` names."""
    return {"argv": argv,
            "files": {name: obj if isinstance(obj, str) else json.dumps(obj)
                      for name, obj in files.items() if name in argv},
            "env": env or {}}


def _space_cases() -> Dict[str, dict]:
    """The seven space commands over every field and frame."""
    cases = {}
    for (fname, field), (rname, (basis, weights)) in itertools.product(
            FIELDS.items(), FRAMES.items()):
        dim = len(basis)
        if fname == "trivial":  # the trivial valuation has no uniformizer power
            weights = [(q, 0) for q, _ in weights]
        space = _space(field, basis, weights)
        problem = {"space": space, "subvariety": {"points": POINTS[dim]},
                   "representative": _representative(dim)}
        linear = dict(problem, subvariety={"linear": LINEAR[dim]})
        files = {"metric.json": {"space": space}, "problem.json": problem,
                 "linear.json": linear, "points.json": {"points": POINTS[dim]},
                 "vectors.json": {"space": space, "vectors": VECTORS[dim]},
                 "surjection.json": {"space": space, "surjection": SURJECTIONS[dim]},
                 "columns.json": {"field": field, "lattice": {"columns": basis}}}
        degree = "4" if dim == 2 else "3"
        runs = {
            "orthogonalize": ["orthogonalize", "--config", "vectors.json"],
            "quotient": ["quotient", "--config", "surjection.json"],
            "dual": ["dual", "--config", "metric.json"],
            "lattice-space": ["lattice", "--config", "metric.json"],
            "lattice-columns": ["lattice", "--config", "columns.json"],
            "sigma-points": ["sigma-sample", "--config", "metric.json",
                             "--max-degree", degree, "--points", "points.json"],
            "sigma-points-json": ["sigma-sample", "--config", "metric.json", "--max-degree",
                                  "2", "--points", "points.json", "--format", "json"],
            "sigma-seeded": ["sigma-sample", "--config", "metric.json",
                             "--max-degree", "2", "--seed", "7"],
            "table-points": ["extension-table", "--config", "problem.json",
                             "--max-degree", degree],
            "table-epsilon-json": ["extension-table", "--config", "problem.json",
                                   "--max-degree", degree, "--epsilon", "1/10",
                                   "--format", "json"],
            "table-linear": ["extension-table", "--config", "linear.json",
                             "--max-degree", degree, "--epsilon", "1/3"],
            "extend-trivial": ["extend-trivial", "--config", "problem.json",
                               "--max-degree", degree],
            "extend-trivial-linear": ["extend-trivial", "--config", "linear.json"],
        }
        for run, argv in runs.items():
            cases[f"{run}/{fname}/{rname}"] = _case(argv, files)
    # the defaults: degree 4 (sigma), 8 (table) and 1 (extend-trivial), seed 0
    space = _space(FIELDS["trivial"], FRAMES["frame1"][0], [("3/5", 0), ("1", 0)])
    problem = {"space": space, "subvariety": {"points": POINTS[2]},
               "representative": _representative(2)}
    files = {"metric.json": {"space": space}, "problem.json": problem}
    cases["sigma-defaults/trivial/frame1"] = _case(
        ["sigma-sample", "--config", "metric.json"], files)
    cases["table-defaults/trivial/frame1"] = _case(
        ["extension-table", "--config", "problem.json", "--format", "csv"], files)
    cases["extend-trivial-defaults/trivial/frame1"] = _case(
        ["extend-trivial", "--config", "problem.json", "--jobs", "3"], files)
    cases["dual-out/trivial/frame1"] = _case(
        ["dual", "--config", "metric.json", "--out", "out.txt"], files)
    return cases


def _adelic(dim: int, places: Dict[int, dict], funcs) -> dict:
    return {"dim": dim, "places": {str(p): s for p, s in places.items()},
            "arch_functionals": funcs}


def _lattice_cases() -> Dict[str, dict]:
    """lambda through its three inputs, and nakai on graded families."""
    cases = {}
    funcs = [["1", "0"], ["0", "1"], ["1", "1"], ["1/2", "-3/2"]]
    for fname in ("q2", "q3", "q1000003"):
        p = FIELDS[fname]["p"]
        frame = FRAMES["frame1"]
        if fname == "q1000003":  # a weight p^1 there leaves lambda's box past its bound
            frame = (frame[0], [(q, 0) for q, _ in frame[1]])
        place = _space(FIELDS[fname], *frame)
        adelic = _adelic(2, {p: place}, funcs)
        two = _adelic(2, {p: place, 5: _space(
            {"type": "padic", "p": 5}, [["1", "3"], ["0", "1"]], [("1/25", 0), ("1", 0)])},
            [["3", "0"], ["0", "1/2"], ["1", "-1"]])
        degrees = {str(n): _adelic(2, {p: _space(FIELDS[fname], frame[0],
                                                 [(q, k * n) for q, k in frame[1]])},
                                   [[str(Fraction(x) / (n + 1)) for x in f] for f in funcs])
                   for n in (1, 2, 3)}
        files = {"adelic.json": {"adelic": adelic}, "two.json": {"adelic": two},
                 "graded.json": {"degrees": degrees}}
        cases[f"lambda-adelic/{fname}"] = _case(["lambda", "--config", "adelic.json"], files)
        cases[f"lambda-two-places/{fname}"] = _case(["lambda", "--config", "two.json"], files)
        cases[f"nakai/{fname}"] = _case(["nakai", "--config", "graded.json"], files)
        cases[f"nakai-json/{fname}"] = _case(
            ["nakai", "--config", "graded.json", "--format", "json", "--max-degree", "2"], files)
    for fname in ("trivial", "laurent5"):
        place = _space(FIELDS[fname], *FRAMES["diag1"])
        files = {"adelic.json": {"adelic": _adelic(2, {2: place}, funcs)}}
        cases[f"lambda-adelic/{fname}"] = _case(["lambda", "--config", "adelic.json"], files)
    cols = [["2", "1", "0"], ["0", "3", "1/2"], ["0", "0", "1"]]
    norm = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"], ["1", "-1", "1"]]
    files = {"lat.json": {"columns": cols}, "norm.json": {"functionals": norm},
             "both.json": {"lattice": {"columns": cols}, "norm": {"functionals": norm}}}
    cases["lambda-files"] = _case(["lambda", "--lattice", "lat.json", "--norm", "norm.json"],
                                  files)
    cases["lambda-config"] = _case(["lambda", "--config", "both.json"], files)
    return cases


def _malformed_cases() -> Dict[str, dict]:
    """The CLI contract step's malformed configs, plus argument errors."""
    space = _space(FIELDS["q2"], *FRAMES["diag1"])

    def exponent(p, n):
        return _space({"type": "padic", "p": p}, FRAMES["diag1"][0], [("1", n), ("1", 0)])

    problem = {"space": space, "subvariety": {"points": [["1", "0"], ["1", "1"]]},
               "representative": {"degree": 1, "variables": 2, "coeffs": {"1,0": "1"}}}
    place4 = {"adelic": {"dim": 1, "places": {"4": _space(FIELDS["q2"], [["1"]], [("1", 0)])},
                         "arch_functionals": [["1"]]}}
    files = {
        "short.json": {"space": space, "vectors": [["1"]]},
        "wide.json": {"space": space, "surjection": [["1", "1", "1"]]},
        "place4.json": place4,
        "metric.json": {"space": space},
        "problem.json": problem,
        "deep.json": "[" * 200000 + "]" * 200000,
        "ragged_lattice.json": {"lattice": {"columns": [["1", "0"], ["0"]]},
                                "norm": {"functionals": _identity(2)}},
        "ragged_columns.json": {"columns": [["1", "0"], ["0"]]},
        "functionals.json": {"functionals": _identity(2)},
        "identity2.json": {"columns": _identity(2)},
        "tiny_functional.json": {"functionals": [["1/1000000", "0"], ["0", "1"]]},
        "short_functional.json": {"adelic": {"dim": 2,
                                             "arch_functionals": [["1", "0"], ["1"]]}},
        "short_functional_graded.json": {"degrees": {"1": {
            "dim": 2, "arch_functionals": [["1", "0"], ["1"]]}}},
        "ragged_field_lattice.json": {"field": FIELDS["q2"],
                                      "lattice": {"columns": [["1", "0"], ["1"]]}},
        "trivial_field_lattice.json": {"field": FIELDS["trivial"],
                                       "lattice": {"columns": [["1", "0"], ["0", "2"]]}},
        "bad_representative.json": dict(problem, subvariety={"points": [["1", "0"]]},
                                        representative={"degree": 1, "variables": 2,
                                                        "coeffs": {"1,0,0": "1"}}),
        "long_point.json": dict(problem, subvariety={"points": [["1", "0", "1"]]}),
        "exponent_1e20.json": {"space": exponent(2, 10 ** 20), "vectors": [["1", "0"]]},
        "exponent_1e5.json": {"space": exponent(2, 100000)},
        "unprintable_lattice.json": {"space": exponent(1000003, -4096)},
        "long_rational.json": {"space": _space(FIELDS["q2"], [["1" * 5000, "0"], ["0", "1"]],
                                               [("1", 0), ("1", 0)])},
        "not_json.json": "{",
        "bad_field.json": {"space": dict(space, field={"type": "padic"})},
        "unknown_key.json": {"space": space, "extra": 1},
        "zero_point.json": {"points": [["0", "0"]]},
        "point_arity.json": {"points": [["1", "0", "0"]]},
        "no_subvariety.json": {"space": space},
        "singular.json": {"space": dict(space, basis=[["1", "2"], ["2", "4"]])},
        "missing_degree.json": {"degrees": {"2": {"dim": 1, "arch_functionals": [["1"]]}}},
    }
    runs = {
        "short-vector": ["orthogonalize", "--config", "short.json"],
        "wide-surjection": ["quotient", "--config", "wide.json"],
        "place-4": ["lambda", "--config", "place4.json"],
        "negative-degree": ["sigma-sample", "--config", "metric.json", "--max-degree", "-1"],
        "sigma-huge-degree": ["sigma-sample", "--config", "metric.json",
                              "--max-degree", "1000000"],
        "table-huge-degree": ["extension-table", "--config", "problem.json",
                              "--max-degree", "1000000"],
        "extend-huge-degree": ["extend-trivial", "--config", "problem.json",
                               "--max-degree", "1000000"],
        "ragged-lattice": ["lambda", "--config", "ragged_lattice.json"],
        "ragged-columns": ["lambda", "--lattice", "ragged_columns.json",
                           "--norm", "functionals.json"],
        "tiny-functional": ["lambda", "--lattice", "identity2.json",
                            "--norm", "tiny_functional.json"],
        "short-functional": ["lambda", "--config", "short_functional.json"],
        "short-functional-graded": ["nakai", "--config", "short_functional_graded.json"],
        "ragged-field-lattice": ["lattice", "--config", "ragged_field_lattice.json"],
        "trivial-field-lattice": ["lattice", "--config", "trivial_field_lattice.json"],
        "long-point": ["extension-table", "--config", "long_point.json"],
        "exponent-1e20": ["orthogonalize", "--config", "exponent_1e20.json"],
        "exponent-1e5": ["lattice", "--config", "exponent_1e5.json"],
        "unprintable-lattice": ["lattice", "--config", "unprintable_lattice.json"],
        "long-rational": ["dual", "--config", "long_rational.json"],
        "out-directory": ["dual", "--config", "metric.json", "--out", "."],
        "deep-json": ["dual", "--config", "deep.json"],
        "bad-representative": ["extension-table", "--config", "bad_representative.json"],
        "not-json": ["dual", "--config", "not_json.json"],
        "missing-file": ["dual", "--config", "absent.json"],
        "no-config": ["dual"],
        "bad-field": ["dual", "--config", "bad_field.json"],
        "unknown-key": ["dual", "--config", "unknown_key.json"],
        "zero-point": ["sigma-sample", "--config", "metric.json", "--points", "zero_point.json"],
        "point-arity": ["sigma-sample", "--config", "metric.json",
                        "--points", "point_arity.json"],
        "no-subvariety": ["extension-table", "--config", "no_subvariety.json"],
        "singular-basis": ["dual", "--config", "singular.json"],
        "missing-degree": ["nakai", "--config", "missing_degree.json"],
        "lambda-no-input": ["lambda"],
        "lambda-half-input": ["lambda", "--lattice", "identity2.json"],
        "bad-epsilon": ["extension-table", "--config", "problem.json", "--epsilon", "x"],
        "zero-epsilon": ["extension-table", "--config", "problem.json", "--epsilon", "0"],
        "unknown-command": ["frobnicate"],
        "no-command": [],
        "bad-format": ["dual", "--config", "metric.json", "--format", "xml"],
        "zero-jobs": ["dual", "--config", "metric.json", "--jobs", "0"],
        "lattice-flag-elsewhere": ["dual", "--config", "metric.json",
                                   "--lattice", "identity2.json"],
        "unknown-flag": ["dual", "--config", "metric.json", "--verbose"],
    }
    cases = {f"malformed/{name}": _case(argv, files) for name, argv in runs.items()}
    cases["malformed/log-level"] = _case(["dual", "--config", "metric.json"], files,
                                         {"ULTRANORM_LOG": "loud"})
    cases["log-level-any-case"] = _case(["dual", "--config", "metric.json"], files,
                                        {"ULTRANORM_LOG": "debug"})
    return cases


def _bound_cases() -> Dict[str, dict]:
    """Each cheap work bound at the bound and one past it."""
    cases = {}

    def at_and_past(name, at, past):
        cases[f"bound/{name}-at"] = at
        cases[f"bound/{name}-past"] = past

    # the degree bound: 120 forms, at degree 119 on P^1 and degree 14 on P^2
    space = _space(FIELDS["q2"], *FRAMES["diag1"])
    files = {"metric.json": {"space": space}, "points.json": {"points": [["1", "1"]]}}
    at_and_past("degree-P1", *(_case(["sigma-sample", "--config", "metric.json", "--max-degree",
                                      n, "--points", "points.json"], files)
                               for n in ("119", "120")))
    space = _space(FIELDS["q3"], *FRAMES["frame2"])
    problem = {"space": space, "subvariety": {"points": POINTS[3][:1]},
               "representative": _representative(3)}
    at_and_past("degree-P2", *(_case(["extension-table", "--config", "problem.json",
                                      "--max-degree", n], {"problem.json": problem})
                               for n in ("14", "15")))
    # the weight exponent: |n| <= 4096
    for n, tag in ((4096, "at"), (4097, "past"), (-4096, "at-negative"),
                   (-4097, "past-negative")):
        space = _space(FIELDS["q2"], FRAMES["diag1"][0], [("1", n), ("3", 0)])
        cases[f"bound/exponent-{tag}"] = _case(["dual", "--config", "metric.json"],
                                               {"metric.json": {"space": space}})
    # the interpreter's decimal digit limit on reading a rational
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 4300
    for digits, tag in ((limit, "at"), (limit + 1, "past")):
        space = _space(FIELDS["q2"], [["1" * digits, "0"], ["0", "1"]], [("1", 0), ("1", 0)])
        cases[f"bound/digits-{tag}"] = _case(["orthogonalize", "--config", "vectors.json"],
                                             {"vectors.json": {"space": space,
                                                               "vectors": [["1", "0"]]}})
    # the exact enumeration rank: 8 (a 3^8-point box) and 9
    for r, tag in ((8, "at"), (9, "past")):
        files = {"lat.json": {"columns": _identity(r)},
                 "norm.json": {"functionals": _identity(r) + [["1"] * r]}}
        cases[f"bound/rank-{tag}"] = _case(
            ["lambda", "--lattice", "lat.json", "--norm", "norm.json"], files)
    # the enumeration box: 3 (2k + 1) points for the functionals (x / k, y)
    for k, tag in ((16666, "at"), (16667, "past")):
        files = {"lat.json": {"columns": _identity(2)},
                 "norm.json": {"functionals": [[f"1/{k}", "0"], ["0", "1"]]}}
        cases[f"bound/box-{tag}"] = _case(
            ["lambda", "--lattice", "lat.json", "--norm", "norm.json"], files)
    # the subset bound, past it: C(448, 2) = 100128 adjugates are refused up front
    funcs = [["1", str(i)] for i in range(448)]
    files = {"lat.json": {"columns": _identity(2)}, "norm.json": {"functionals": funcs}}
    cases["bound/subsets-past"] = _case(
        ["lambda", "--lattice", "lat.json", "--norm", "norm.json"], files)
    return cases


def _extreme_weight_cases() -> Dict[str, dict]:
    """The weight-exponent bound +-4096 over Q_1000003 on a dense P^2 frame, at the
    degree bound: magnitudes whose exponents differ by about 10^5."""
    space = _space(FIELDS["q1000003"], FRAMES["frame2"][0], [("1", 4096), ("1", -4096), ("2", 0)])
    problem = {"space": space, "subvariety": {"points": POINTS[3]},
               "representative": _representative(3)}
    files = {"metric.json": {"space": space}, "points.json": {"points": POINTS[3]},
             "problem.json": problem, "linear.json": dict(problem, subvariety={
                 "linear": LINEAR[3]})}
    runs = {
        "sigma": ["sigma-sample", "--config", "metric.json", "--max-degree", "14",
                  "--points", "points.json"],
        "table": ["extension-table", "--config", "problem.json", "--max-degree", "14"],
        "table-epsilon": ["extension-table", "--config", "problem.json", "--max-degree", "14",
                          "--epsilon", "1/100"],
        "table-linear": ["extension-table", "--config", "linear.json", "--max-degree", "6"],
    }
    return {f"extreme-weight/{name}": _case(argv, files) for name, argv in runs.items()}


def cases() -> Dict[str, dict]:
    """Every case by name, in a fixed order."""
    return {**_space_cases(), **_lattice_cases(), **_malformed_cases(), **_bound_cases(),
            **_extreme_weight_cases()}


def run_case(case: dict, directory: Path):
    """(exit code, stdout, stderr, text written to out.txt) of one case,
    run in ``directory`` after writing its files there."""
    for name, text in case["files"].items():
        (directory / name).write_text(text, encoding="utf-8")
    cwd, saved = os.getcwd(), {k: os.environ.get(k) for k in case["env"]}
    out, err = io.StringIO(), io.StringIO()
    try:
        os.chdir(directory)
        os.environ.update(case["env"])
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(case["argv"])
    finally:
        os.chdir(cwd)
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    written = directory / "out.txt"
    return code, out.getvalue(), err.getvalue(), (written.read_text(encoding="utf-8")
                                                  if written.is_file() else "")


def digest(result) -> str:
    return hashlib.sha256(json.dumps(result).encode("utf-8")).hexdigest()


def python_version() -> str:
    return "%d.%d" % sys.version_info[:2]


def record() -> int:
    table = {}
    for name, case in cases().items():
        with tempfile.TemporaryDirectory() as directory:
            try:
                result = run_case(case, Path(directory))
            except Exception as exc:  # an uncaught error is exit 1 with a traceback
                print(f"{name}: raised {exc!r}", file=sys.stderr)
                return 1
        if result[0] not in (0, 2, 3) or "Traceback" in result[2]:
            print(f"{name}: exit {result[0]}: {result[2]}", file=sys.stderr)
            return 1
        table[name] = digest(result)
    doc = {"python": python_version(), "cases": table}
    DIGESTS.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"recorded {len(table)} cases", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(record())
