"""Correctness checks on every job's output.

Two kinds:

* byte identity: on the reference seed the sha256 of each job's stdout
  must match the digest recorded in ``reference_digests.json`` (the CLI
  promises byte-identical output);
* exact invariants on the parsed output, on any seed: sigma >= 1 (and
  = 1 on diagonal p-power metrics), extension ratios >= 1 and
  subadditive, lambda_Q <= lambda_Z <= rank * lambda_Q, every basis the
  graded search reports has archimedean norms < 1, and structural
  identities for the small linear-algebra requests.

``check_job`` returns None for a good output, else a one-line reason.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from fractions import Fraction as F
from typing import Dict, List, Optional

from workloads import Job

DIGEST_CHARS = 12


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:DIGEST_CHARS]


def _magnitude(q: F, n: int, p: Optional[int]) -> F:
    """Value of q * (1/p)^n (p None: trivial valuation, n = 0)."""
    return q if p is None else q * F(p) ** (-n)


def _prime(space: dict) -> Optional[int]:
    return space["field"].get("p")


def _rows(text: str) -> List[Dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def _arch(funcs, v) -> F:
    return max(abs(sum(F(a) * x for a, x in zip(f, v))) for f in funcs)


def _sigma(job: Job, out: str) -> Optional[str]:
    p = _prime(job.files["--config"]["space"])
    rows = _rows(out)
    npts = len(job.files["--points"]["points"])
    if len(rows) != npts * int(job.extra[1]):
        return f"sigma-sample: {len(rows)} rows"
    for row in rows:
        q = F(int(row["ratio_num"]), int(row["ratio_den"]))
        n = int(row["exponent"])
        if _magnitude(q, n, p) < 1:
            return f"sigma < 1 at degree {row['degree']}"
        if job.facts.get("diagonal") and (q, n) != (1, 0):
            return f"sigma != 1 on a diagonal metric at degree {row['degree']}"
    return None


def _extension_table(job: Job, out: str) -> Optional[str]:
    p = _prime(job.files["--config"]["space"])
    rows = _rows(out)
    if len(rows) != int(job.extra[1]):
        return f"extension-table: {len(rows)} rows"
    ratios = [_magnitude(F(int(r["ratio_num"]), int(r["ratio_den"])),
                         int(r["exponent"]), p) for r in rows]
    if min(ratios) < 1:
        return "extension ratio < 1"
    for a in range(1, len(ratios)):
        for b in range(a, len(ratios) - a + 1):
            if ratios[a + b - 1] > ratios[a - 1] * ratios[b - 1]:
                return f"ratio_{a + b} > ratio_{a} * ratio_{b}"
    return None


def _extend_trivial(job: Job, out: str) -> Optional[str]:
    data = json.loads(out)
    if data["degree"] != int(job.extra[1]) or data["section"]["degree"] != data["degree"]:
        return "extend-trivial: wrong degree"
    ratio = data["ratio"]
    if ratio["n"] != 0 or F(ratio["q"]) < 1:
        return "extend-trivial: ratio < 1"
    return None


def _sandwich(lq: F, lz: F, rank: int) -> Optional[str]:
    if not (0 < lq <= lz <= rank * lq):
        return f"lambda sandwich fails: {lq} {lz} rank {rank}"
    return None


def _lambda(job: Job, out: str) -> Optional[str]:
    data = json.loads(out)
    rank = len(job.facts["functionals"][0])
    if data["rank"] != rank:
        return f"lambda: rank {data['rank']} != {rank}"
    return _sandwich(F(data["lambda_Q"]), F(data["lambda_Z"]), rank)


def _nakai(job: Job, out: str) -> Optional[str]:
    rows = _rows(out)
    if len(rows) != int(job.extra[1]):
        return f"nakai: {len(rows)} rows"
    for row in rows:
        lq, lz, rank = F(row["lambda_Q"]), F(row["lambda_Z"]), int(row["rank"])
        bad = _sandwich(lq, lz, rank)
        if bad:
            return bad
        if (row["basis_found"] == "yes") != (lz < 1):
            return f"nakai: basis_found disagrees with lambda_Z at n={row['n']}"
        if row["basis_found"] == "yes":
            funcs = job.facts["degrees"][row["n"]]["arch_functionals"]
            basis = [[F(x) for x in vec.split(",")]
                     for vec in row["basis"].split(";")]
            if len(basis) != rank or any(_arch(funcs, v) >= 1 for v in basis):
                return f"nakai: basis at n={row['n']} is not short"
    return None


def _orthogonalize(job: Job, out: str) -> Optional[str]:
    data = json.loads(out)
    t = len(job.files["--config"]["vectors"])
    if not (len(data["vectors"]) == len(data["norms"]) == t
            and len(set(data["pivots"])) == t):
        return "orthogonalize: wrong shape or repeated pivots"
    return None


def _quotient(job: Job, out: str) -> Optional[str]:
    data = json.loads(out)
    sur = job.facts["surjection"]
    basis = [[F(x) for x in row] for row in data["quotient"]["basis"]]
    lifts = [[F(x) for x in v] for v in data["lifts"]]
    if len(lifts) != len(sur) or len(basis) != len(sur):
        return "quotient: wrong dimension"
    for j, lift in enumerate(lifts):
        image = [sum(a * x for a, x in zip(row, lift)) for row in sur]
        if image != [row[j] for row in basis]:
            return f"quotient: lift {j} does not map to basis column {j}"
    return None


def _dual(job: Job, out: str) -> Optional[str]:
    space = job.files["--config"]["space"]
    p = _prime(space)
    dual = json.loads(out)["dual"]["weights"]
    for w, d in zip(space["weights"], dual):
        if _magnitude(F(w["q"]), w["n"], p) * _magnitude(F(d["q"]), d["n"], p) != 1:
            return "dual: weight is not reciprocal"
    return None if len(dual) == len(space["weights"]) else "dual: wrong dimension"


def _lattice(job: Job, out: str) -> Optional[str]:
    cfg = job.files["--config"]
    data = json.loads(out)
    if "space" in cfg:
        dim = len(cfg["space"]["basis"])
        cols = data["columns"]
        if len(cols) != dim or any(len(c) != dim for c in cols):
            return "lattice: wrong shape"
        return None
    dim = len(cfg["lattice"]["columns"])
    weights = data["space"]["weights"]
    if len(weights) != dim or any(w != {"q": "1/1", "n": 0} for w in weights):
        return "lattice: unit ball norm is not orthonormal"
    return None


INVARIANTS = {
    "sigma-sample": _sigma,
    "extension-table": _extension_table,
    "extend-trivial": _extend_trivial,
    "lambda": _lambda,
    "nakai": _nakai,
    "orthogonalize": _orthogonalize,
    "quotient": _quotient,
    "dual": _dual,
    "lattice": _lattice,
}


def check_job(job: Job, code, out: str, err: str,
              expected_digest: Optional[str]) -> Optional[str]:
    if code != 0:
        return f"{job.command}: exit {code}: {err.strip()[:160]}"
    if expected_digest is not None and digest(out) != expected_digest:
        return f"{job.command}: output differs from the reference"
    try:
        return INVARIANTS[job.command](job, out)
    except (ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
        return f"{job.command}: unparsable output ({exc!r})"
