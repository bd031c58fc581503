"""Command-line interface: config ingestion, dispatch, CSV/JSON emission.

All outputs are exact (rationals as "num/den" strings, magnitudes as
(q, n) pairs) and byte-identical across runs.  Every command runs its
tasks in order in one thread; ``--jobs`` is still accepted and checked
(>= 1) but never changes the work or the output.  Exit codes: 2 for
config or schema violations, 3 for mathematical precondition failures.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import random
import sys
from fractions import Fraction
from typing import Any, Dict, List, Optional, Sequence

from . import linalg, serialization as ser
from .adelic import (AdelicSpace, NormedLattice, finite_unit_lattice,
                     graded_minima, lambda_Q, lambda_Z)
from .extension import (ExtensionProblem, _check_representative, check_extension_theorem,
                        extend_trivial_via_laurent, min_norm_lift)
from .fields import PadicRationals
from .metrics import QuotientMetric, sigma
from .spaces import (Lattice, PreconditionError, dual_norm, lattice_from_norm,
                     norm_from_lattice, orthogonalize_flag, quotient_norm)

LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")
DEGREE_BOUND = 120  # degree-n forms C(n + m, m); extend-trivial takes ~30 s at 120 (2 vCPU)
_PARSER: Optional["_Parser"] = None  # set by the first build_parser call


# ----------------------------------------------------------------------
# plumbing
# ----------------------------------------------------------------------


class ConfigError(Exception):
    """Maps to exit code 2 with a machine-readable error object."""

    def __init__(self, path: str, message: str):
        super().__init__(message)
        self.path = path
        self.message = message


def _load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError("", f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # also past the digit or depth limit
        raise ConfigError("", f"malformed JSON in {path}: {exc}") from exc


def _load_config(path: Optional[str], schema: Dict[str, Any]) -> Any:
    if path is None:
        raise ConfigError("", "--config is required for this command")
    data = _load_json(path)
    ser.validate(data, schema)  # main reports a SchemaViolation as exit 2
    return data


def _json_text(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _csv_text(header: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _parse_epsilon(text: str) -> Fraction:
    try:
        eps = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError("", f"--epsilon must be NUM/DEN, got {text!r}") from exc
    if eps <= 0:
        raise ConfigError("", "--epsilon must be positive")
    return eps


def _bounded_degree(m: int, n: int) -> int:
    """n, refused before any work past DEGREE_BOUND degree-n forms on P^m."""
    if math.comb(n + m, m) > DEGREE_BOUND:
        raise PreconditionError(f"degree {n} on P^{m} has {math.comb(n + m, m)} "
                                f"monomials, above the degree bound {DEGREE_BOUND}")
    return n


def _point_str(point: Sequence[Fraction]) -> str:
    return ":".join(ser.rational_to_str(Fraction(x)) for x in point)


# ----------------------------------------------------------------------
# per-command configs
# ----------------------------------------------------------------------

ORTHOGONALIZE_SCHEMA = {
    "type": "object",
    "properties": {"space": ser.NORM_SCHEMA, "vectors": ser.MATRIX_SCHEMA},
    "required": ["space", "vectors"],
    "additionalProperties": False,
}

QUOTIENT_SCHEMA = {
    "type": "object",
    "properties": {"space": ser.NORM_SCHEMA, "surjection": ser.MATRIX_SCHEMA},
    "required": ["space", "surjection"],
    "additionalProperties": False,
}

DUAL_SCHEMA = {
    "type": "object",
    "properties": {"space": ser.NORM_SCHEMA},
    "required": ["space"],
    "additionalProperties": False,
}

LATTICE_SCHEMA = {
    "type": "object",
    "properties": {
        "space": ser.NORM_SCHEMA,
        "field": ser.FIELD_SCHEMA,
        "lattice": ser.LATTICE_SCHEMA,
    },
    "additionalProperties": False,
}

LAMBDA_CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "lattice": ser.LATTICE_SCHEMA,
        "norm": ser.FUNCTIONALS_SCHEMA,
        "adelic": ser.ADELIC_SCHEMA,
    },
    "additionalProperties": False,
}


def _metric_from_config(data: Dict[str, Any], degree: int) -> tuple[QuotientMetric, int]:
    """The config's metric and ``degree``, which is refused past the degree
    bound from the frame's length alone, before the metric is built."""
    space = ser.space_from_json(data["space"], "/space")
    degree = _bounded_degree(space.dim - 1, degree)
    return QuotientMetric(space), degree


def _problem_from_config(data: Dict[str, Any], degree: int) -> tuple[ExtensionProblem, int]:
    metric, degree = _metric_from_config(data, degree)
    if "subvariety" not in data or "representative" not in data:
        raise ConfigError("", "config requires 'subvariety' and 'representative'")
    Y = ser.subvariety_from_json(data["subvariety"], metric.field,
                                 metric.num_vars)
    rep = ser.section_from_json(data["representative"], metric.field, "/representative",
                                lambda degree, nv: _check_representative(metric, degree, nv))
    return ExtensionProblem(metric, Y, rep), degree


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------


def cmd_orthogonalize(args) -> str:
    data = _load_config(args.config, ORTHOGONALIZE_SCHEMA)
    space = ser.space_from_json(data["space"], "/space")
    vectors = ser.matrix_from_json(data["vectors"])
    g, norms, pivots = orthogonalize_flag(space, vectors)
    out = {
        "vectors": ser.matrix_to_json(g),
        "norms": [ser.magnitude_to_json(w) for w in norms],
        "pivots": list(pivots),
    }
    return _json_text(out)


def cmd_quotient(args) -> str:
    data = _load_config(args.config, QUOTIENT_SCHEMA)
    space = ser.space_from_json(data["space"], "/space")
    surjection = ser.matrix_from_json(data["surjection"])
    quo, lifts = quotient_norm(space, surjection)
    out = {
        "quotient": ser.space_to_json(quo),
        "lifts": ser.matrix_to_json(lifts),
    }
    return _json_text(out)


def cmd_dual(args) -> str:
    data = _load_config(args.config, DUAL_SCHEMA)
    space = ser.space_from_json(data["space"], "/space")
    return _json_text({"dual": ser.space_to_json(dual_norm(space))})


def cmd_lattice(args) -> str:
    data = _load_config(args.config, LATTICE_SCHEMA)
    if "space" in data:
        space = ser.space_from_json(data["space"], "/space")
        lat = lattice_from_norm(space)
        return _json_text({"columns": ser.matrix_to_json(lat.columns())})
    if "field" in data and "lattice" in data:
        field = ser.field_from_json(data["field"], "/field")
        cols = ser.matrix_from_json(data["lattice"]["columns"])
        lat = Lattice.from_columns(field, cols)
        space = norm_from_lattice(lat)
        return _json_text({"space": ser.space_to_json(space)})
    raise ConfigError("", "config needs either 'space' or 'field'+'lattice'")


def _sample_points(args, num_vars: int) -> List[List[Fraction]]:
    if args.points:
        data = _load_json(args.points)
        ser.validate(data, ser.POINTS_SCHEMA)
        pts = ser.matrix_from_json(data["points"])
        for i, p in enumerate(pts):
            if len(p) != num_vars:
                raise ConfigError(f"/points/{i}",
                                  f"point has {len(p)} coordinates, need {num_vars}")
            if all(x == 0 for x in p):
                raise ConfigError(f"/points/{i}", "point must be nonzero")
        return pts
    rng = random.Random(args.seed)
    pts = []
    while len(pts) < 20:
        p = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
             for _ in range(num_vars)]
        if any(x != 0 for x in p):
            pts.append(p)
    return pts


def cmd_sigma_sample(args) -> str:
    data = _load_config(args.config, ser.METRIC_SCHEMA)
    metric, n_max = _metric_from_config(data, 4 if args.max_degree is None else args.max_degree)
    points = _sample_points(args, metric.num_vars)
    labels = [_point_str(p) for p in points]
    points = [linalg._integer_row(p)[0] for p in points]  # sigma is scale-invariant
    rows = []
    for n in range(1, n_max + 1):
        for point, label in zip(points, labels):
            val = sigma(metric, n, point)
            rows.append([n, label, val.num, val.den, val.n])
    header = ["degree", "point", "ratio_num", "ratio_den", "exponent"]
    if args.format == "json":
        return _json_text({"rows": [dict(zip(header, r)) for r in rows]})
    return _csv_text(header, rows)


def cmd_extension_table(args) -> str:
    eps = _parse_epsilon(args.epsilon) if args.epsilon else None
    data = _load_config(args.config, ser.METRIC_SCHEMA)
    problem, n_max = _problem_from_config(
        data, 8 if args.max_degree is None else args.max_degree)
    ratios = [min_norm_lift(problem, n)[1] for n in range(1, n_max + 1)]
    eps_flags: Optional[List[bool]] = None
    if eps is not None:
        report = check_extension_theorem(problem, eps, n_max)
        eps_flags = [not ok for ok in report["holds"]]
    rows = []
    for i, r in enumerate(ratios):
        n = i + 1
        v = r.value()
        try:  # the decay rate column is a float diagnostic, marked approximate
            approx = math.log(v) / n
        except OverflowError:  # past the float range
            approx = (math.log(v.numerator) - math.log(v.denominator)) / n
        row = [n, r.num, r.den, r.n, f"{approx:.12g}"]
        if eps_flags is not None:
            row.append("yes" if eps_flags[i] else "no")
        rows.append(row)
    header = ["n", "ratio_num", "ratio_den", "exponent",
              "log_ratio_over_n_approx"]
    if eps_flags is not None:
        header.append("exceeds_epsilon")
    if args.format == "json":
        return _json_text({"rows": [dict(zip(header, r)) for r in rows]})
    return _csv_text(header, rows)


def cmd_extend_trivial(args) -> str:
    data = _load_config(args.config, ser.METRIC_SCHEMA)
    problem, n = _problem_from_config(data, 1 if args.max_degree is None else args.max_degree)
    section, ratio = extend_trivial_via_laurent(problem, n)
    return _json_text({
        "degree": n,
        "section": ser.section_to_json(section),
        "ratio": ser.magnitude_to_json(ratio),
    })


def _lattice_from_args(args) -> NormedLattice:
    if args.config:
        data = _load_config(args.config, LAMBDA_CONFIG_SCHEMA)
        if "adelic" in data:
            A = _adelic_from_json(data["adelic"], "/adelic")
            return finite_unit_lattice(A)
        if "lattice" in data and "norm" in data:
            cols = ser.matrix_from_json(data["lattice"]["columns"])
            funcs = ser.matrix_from_json(data["norm"]["functionals"])
            return _normed_lattice(cols, funcs)
        raise ConfigError("", "config needs 'adelic' or 'lattice'+'norm'")
    if not (args.lattice and args.norm):
        raise ConfigError("", "provide --config, or both --lattice and --norm")
    lat = _load_json(args.lattice)
    nrm = _load_json(args.norm)
    ser.validate(lat, ser.LATTICE_SCHEMA)
    ser.validate(nrm, ser.FUNCTIONALS_SCHEMA)
    return _normed_lattice(ser.matrix_from_json(lat["columns"]),
                           ser.matrix_from_json(nrm["functionals"]))


def _normed_lattice(cols: List[List[Fraction]],
                    funcs: List[List[Fraction]]) -> NormedLattice:
    from .adelic import _rational_hnf
    from .linalg import rank
    for i, row in enumerate(cols):
        if len(row) != len(cols[0]):
            raise PreconditionError(
                f"lattice row {i} has {len(row)} entries, row 0 has {len(cols[0])}")
    if rank(cols) != len(cols[0]):
        raise PreconditionError("lattice columns are linearly dependent")
    basis = _rational_hnf([[row[j] for row in cols] for j in range(len(cols[0]))])
    return NormedLattice(basis, funcs)


def _adelic_from_json(data: Dict[str, Any], pointer: str) -> AdelicSpace:
    places = {}
    for key, place_json in data.get("places", {}).items():
        try:
            PadicRationals(int(key))
        except ValueError as exc:
            raise ser.SchemaViolation(f"{pointer}/places/{key}", str(exc)) from exc
        places[int(key)] = ser.space_from_json(place_json,
                                               f"{pointer}/places/{key}")
    funcs = ser.matrix_from_json(data["arch_functionals"])
    return AdelicSpace(int(data["dim"]), places, funcs)


def cmd_lambda(args) -> str:
    M = _lattice_from_args(args)
    lq = lambda_Q(M)
    lz = lambda_Z(M)
    return _json_text({
        "lambda_Q": ser.rational_to_str(lq),
        "lambda_Z": ser.rational_to_str(lz),
        "rank": M.rank,
    })


def cmd_nakai(args) -> str:
    data = _load_config(args.config, ser.GRADED_SCHEMA)
    degrees = {int(k): _adelic_from_json(v, f"/degrees/{k}")
               for k, v in data["degrees"].items()}
    n_max = args.max_degree if args.max_degree is not None else max(degrees)
    rows = []
    first_success = None
    for n, M, lz, basis in graded_minima(degrees, n_max):
        success = lz < 1
        if success and first_success is None:
            first_success = n
        basis_str = ""
        if success:
            basis_str = ";".join(
                ",".join(ser.rational_to_str(x) for x in vec)
                for vec in sorted(basis))
        rows.append([n, ser.rational_to_str(lambda_Q(M)),
                     ser.rational_to_str(lz), M.rank,
                     "yes" if success else "no", basis_str])
    header = ["n", "lambda_Q", "lambda_Z", "rank", "basis_found", "basis"]
    if args.format == "json":
        return _json_text({
            "rows": [dict(zip(header, r)) for r in rows],
            "first_success": first_success,
        })
    return _csv_text(header, rows)


COMMANDS = {
    "orthogonalize": cmd_orthogonalize,
    "quotient": cmd_quotient,
    "dual": cmd_dual,
    "lattice": cmd_lattice,
    "sigma-sample": cmd_sigma_sample,
    "extension-table": cmd_extension_table,
    "extend-trivial": cmd_extend_trivial,
    "lambda": cmd_lambda,
    "nakai": cmd_nakai,
}


class _Parser(argparse.ArgumentParser):
    """Argument errors raise ConfigError: exit 2 with JSON, not usage text."""

    def error(self, message):
        raise ConfigError("", message)


def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first call (not at
    import) and shared by every later call: parsing never changes it."""
    global _PARSER
    if _PARSER is not None:
        return _PARSER
    parser = _Parser(
        prog="ultranorm",
        description="Exact computations with ultrametric norms, quotient "
                    "metrics, extension obstructions, and adelic lattice "
                    "invariants.")
    parser.add_argument("command", choices=list(COMMANDS))
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--out", help="output path (default stdout)")
    parser.add_argument("--max-degree", type=int, default=None)
    parser.add_argument("--epsilon", help="positive rational NUM/DEN")
    parser.add_argument("--points", help="JSON file with sample points")
    parser.add_argument("--jobs", type=int, default=1,
                        help="accepted for compatibility (must be >= 1); work "
                             "runs in one thread and the value never changes "
                             "the output")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for generated sample points")
    parser.add_argument("--format", choices=["csv", "json"], default=None)
    parser.add_argument("--lattice", help="lambda: JSON lattice columns")
    parser.add_argument("--norm", help="lambda: JSON norm functionals")
    _PARSER = parser
    return parser


def _config_error(message: str) -> int:
    print(json.dumps({"error": "config", "path": "", "message": message}),
          file=sys.stderr)
    return 2


def main(argv: Optional[Sequence[str]] = None) -> int:
    level = (os.environ.get("ULTRANORM_LOG") or "WARNING").upper()
    if level not in LOG_LEVELS:
        return _config_error(f"ULTRANORM_LOG must be one of "
                             f"{', '.join(LOG_LEVELS)} (any case)")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command != "lambda" and (args.lattice is not None
                                         or args.norm is not None):
            parser.error("--lattice and --norm belong to the lambda command")
        if args.jobs < 1:
            parser.error("--jobs must be >= 1")
        if args.max_degree is not None and args.max_degree < 0:
            parser.error("--max-degree must be >= 0")
    except ConfigError as exc:
        return _config_error(exc.message)
    if args.format is None:
        args.format = "csv" if args.command in ("sigma-sample",
                                                "extension-table",
                                                "nakai") else "json"
    try:
        text = COMMANDS[args.command](args)
    except (ConfigError, ser.SchemaViolation) as exc:
        print(json.dumps({"error": "schema", "path": exc.path,
                          "message": exc.message}, sort_keys=True),
              file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(json.dumps({"error": "precondition", "message": str(exc)},
                         sort_keys=True),
              file=sys.stderr)
        return 3
    if not args.out:
        sys.stdout.write(text)
        return 0
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:  # a directory, or a missing parent
        return _config_error(f"cannot write {args.out}: {exc}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
