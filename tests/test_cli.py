"""Command dispatch, schemas, exit codes, deterministic output."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ultranorm
from ultranorm import cli
from ultranorm import serialization as ser
from ultranorm.cli import main
from ultranorm.metrics import sigma
from ultranorm.sections import normalize_point

F = Fraction


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def norm_json(p=2, weights=("1/1", "1/1")):
    dim = len(weights)
    return {
        "field": {"type": "padic", "p": p},
        "basis": [[("1" if i == j else "0") for j in range(dim)]
                  for i in range(dim)],
        "weights": [{"q": w, "n": 0} for w in weights],
    }


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCommands:
    def test_orthogonalize(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.json", {
            "space": norm_json(),
            "vectors": [["6", "0"], ["2", "1"]],
        })
        code, out, _ = run(capsys, ["orthogonalize", "--config", cfg])
        assert code == 0
        data = json.loads(out)
        assert data["norms"][0] == {"n": 1, "q": "1/1"}

    def test_quotient(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.json", {
            "space": norm_json(weights=("1/1", "1/4")),
            "surjection": [["1", "1"]],
        })
        code, out, _ = run(capsys, ["quotient", "--config", cfg])
        assert code == 0
        data = json.loads(out)
        assert data["quotient"]["weights"] == [{"n": 2, "q": "1/1"}]

    def test_laurent_quotient_prints_the_trivial_lifts(self, tmp_path, capsys):
        """The kernel is completed with the field's one, so over Q(T) the
        lifts hold constants of Q(T); they print as the trivial field's."""
        outs = []
        for field in ({"type": "laurent", "base_prime": 5}, {"type": "trivial"}):
            space = {"field": field,
                     "basis": [["1", "2", "0"], ["0", "1/3", "1"], ["1", "0", "-1"]],
                     "weights": [{"q": q, "n": 0} for q in ("1", "3", "1/2")]}
            cfg = write(tmp_path, "c.json", {
                "space": space, "surjection": [["1", "1", "0"], ["0", "2", "-1"]]})
            code, out, err = run(capsys, ["quotient", "--config", cfg])
            assert (code, err) == (0, "")
            outs.append(json.loads(out))
        laurent, trivial = outs
        assert laurent["lifts"] == trivial["lifts"]
        assert laurent["quotient"]["field"] == {"type": "laurent", "base_prime": 5}
        laurent["quotient"]["field"] = trivial["quotient"]["field"]
        assert laurent == trivial

    def test_dual(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.json", {"space": norm_json(weights=("1/1", "2/1"))})
        code, out, _ = run(capsys, ["dual", "--config", cfg])
        assert code == 0
        data = json.loads(out)
        assert data["dual"]["weights"] == [{"n": 0, "q": "1/1"},
                                           {"n": 1, "q": "1/1"}]

    def test_lattice_round_trip(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.json", {"space": norm_json(weights=("1/1", "2/1"))})
        code, out, _ = run(capsys, ["lattice", "--config", cfg])
        assert code == 0
        cols = json.loads(out)["columns"]
        cfg2 = write(tmp_path, "c2.json", {
            "field": {"type": "padic", "p": 2},
            "lattice": {"columns": cols},
        })
        code, out, _ = run(capsys, ["lattice", "--config", cfg2])
        assert code == 0
        assert "space" in json.loads(out)

    def test_lambda_trivial_example(self, tmp_path, capsys):
        lat = write(tmp_path, "M.json", {"columns": [["1", "0"], ["0", "1"]]})
        nrm = write(tmp_path, "N.json", {"functionals": [["1", "0"], ["0", "1"]]})
        code, out, _ = run(capsys, ["lambda", "--lattice", lat, "--norm", nrm])
        assert code == 0
        data = json.loads(out)
        assert data["lambda_Q"] == "1/1"
        assert data["lambda_Z"] == "1/1"

    def test_extension_table_semipositive(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.json", {
            "space": norm_json(),
            "subvariety": {"points": [["1", "0"]]},
            "representative": {"degree": 1, "variables": 2,
                               "coeffs": {"1,0": "1"}},
        })
        code, out, _ = run(capsys, ["extension-table", "--config", cfg,
                                    "--max-degree", "4"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("n,ratio_num")
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[1] == "1" and fields[2] == "1" and fields[3] == "0"

    def test_sigma_sample_all_ones(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.json", {"space": norm_json()})
        pts = write(tmp_path, "p.json", {"points": [["1", "2"], ["3", "5"]]})
        code, out, _ = run(capsys, ["sigma-sample", "--config", cfg,
                                    "--max-degree", "3", "--points", pts])
        assert code == 0
        for line in out.strip().split("\n")[1:]:
            fields = line.split(",")
            assert fields[-3:] == ["1", "1", "0"]

    def test_nakai_csv(self, tmp_path, capsys):
        degrees = {}
        for n in (1, 2):
            r = n + 1
            s = f"1/{2 ** n}"
            degrees[str(n)] = {
                "dim": r,
                "arch_functionals": [[(s if i == j else "0")
                                      for j in range(r)] for i in range(r)],
            }
        cfg = write(tmp_path, "g.json", {"degrees": degrees})
        code, out, _ = run(capsys, ["nakai", "--config", cfg,
                                    "--max-degree", "2"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[1].split(",")[:5] == ["1", "1/2", "1/2", "2", "yes"]


    def test_nakai_refuses_a_missing_degree_before_lambda(self, tmp_path, capsys,
                                                         monkeypatch):
        import ultranorm.adelic as adelic
        calls = []
        monkeypatch.setattr(adelic, "lambda_Z", lambda *a, **k: calls.append(a))
        one = {"dim": 1, "arch_functionals": [["1/2"]]}
        cfg = write(tmp_path, "g.json", {"degrees": {"1": one, "3": one}})
        for max_degree in ("3", "1000000000"):
            code, out, err = run(capsys, ["nakai", "--config", cfg,
                                          "--max-degree", max_degree])
            assert (code, out) == (3, "")
            obj = json.loads(err)
            assert obj["error"] == "precondition"
            assert obj["message"] == "graded family missing degree 2"
        assert calls == []


class TestErrors:
    def test_malformed_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, ["dual", "--config", str(path)])
        assert code == 2
        obj = json.loads(err)
        assert obj["error"] == "schema"
        assert "path" in obj

    def test_schema_violation_has_pointer_path(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.json", {"space": {
            "field": {"type": "padic"},
            "basis": [["1"]],
            "weights": [{"q": "1/1", "n": 0}],
        }})
        code, _, err = run(capsys, ["dual", "--config", cfg])
        assert code == 2
        obj = json.loads(err)
        assert obj["error"] == "schema"
        assert obj["path"] == "/space/field"

    def test_unknown_keys_rejected(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.json", {"space": norm_json(),
                                         "bogus": 1})
        code, _, err = run(capsys, ["dual", "--config", cfg])
        assert code == 2

    def test_log_level_is_case_insensitive(self, tmp_path):
        # a fresh interpreter, as in a plain CLI run: main reads
        # ULTRANORM_LOG from the environment before anything else
        cfg = write(tmp_path, "c.json", {"space": norm_json()})
        src = str(Path(ultranorm.__file__).resolve().parents[1])
        env = dict(os.environ, ULTRANORM_LOG="debug",
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "ultranorm.cli", "dual",
                               "--config", cfg], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)

    def test_unknown_log_level_exit_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ULTRANORM_LOG", "loud")
        cfg = write(tmp_path, "c.json", {"space": norm_json()})
        code, out, err = run(capsys, ["dual", "--config", cfg])
        assert code == 2
        assert out == ""
        obj = json.loads(err)
        assert obj["error"] == "config"
        assert "ULTRANORM_LOG" in obj["message"]

    def test_jobs_below_one_exit_2(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.json", {"space": norm_json()})
        code, out, err = run(capsys, ["dual", "--config", cfg, "--jobs", "0"])
        assert code == 2
        assert out == ""
        assert "--jobs" in json.loads(err)["message"]

    @pytest.mark.parametrize("epsilon", ["abc", "0", "1/0", "-1/2"])
    def test_bad_epsilon_exits_before_the_table(self, tmp_path, capsys,
                                                monkeypatch, epsilon):
        def no_table(*args, **kwargs):
            raise AssertionError("the table was computed before --epsilon was read")

        monkeypatch.setattr(cli, "min_norm_lift", no_table)
        cfg = write(tmp_path, "c.json", {
            "space": norm_json(),
            "subvariety": {"points": [["1", "0"]]},
            "representative": {"degree": 1, "variables": 2,
                               "coeffs": {"1,0": "1"}},
        })
        code, out, err = run(capsys, ["extension-table", "--config", cfg,
                                      f"--epsilon={epsilon}"])
        assert code == 2
        assert out == ""
        assert "--epsilon" in json.loads(err)["message"]

    def test_precondition_failure_exit_3(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.json", {
            "space": norm_json(),
            "surjection": [["0", "0"]],
        })
        code, _, err = run(capsys, ["quotient", "--config", cfg])
        assert code == 3
        obj = json.loads(err)
        assert obj["error"] == "precondition"

    @pytest.mark.parametrize("command,extra", [
        ("sigma-sample", {}),
        ("extension-table", {
            "subvariety": {"points": [["1", "0"]]},
            "representative": {"degree": 1, "variables": 2,
                               "coeffs": {"1,0": "1"}}}),
        ("orthogonalize", {"vectors": [["1", "0"]]}),
    ])
    def test_singular_basis_exit_3(self, tmp_path, capsys, command, extra):
        space = norm_json()
        space["basis"] = [["1", "2"], ["2", "4"]]
        cfg = write(tmp_path, "c.json", {"space": space, **extra})
        code, out, err = run(capsys, [command, "--config", cfg,
                                      "--max-degree", "2"])
        assert code == 3
        assert out == ""
        assert json.loads(err)["error"] == "precondition"

    @pytest.mark.parametrize("space,path", [
        (norm_json(p=4), "/space/field/p"),
        (norm_json(weights=("1/1", "-1")), "/space/weights/1/q"),
        (norm_json(weights=("1/1", "0")), "/space/weights/1/q"),
    ])
    def test_bad_field_or_weight_exit_2(self, tmp_path, capsys, space, path):
        cfg = write(tmp_path, "c.json", {"space": space})
        code, out, err = run(capsys, ["dual", "--config", cfg])
        assert code == 2
        assert out == ""
        obj = json.loads(err)
        assert obj["error"] == "schema"
        assert obj["path"] == path

    @pytest.mark.parametrize("columns,functionals", [
        # functionals of rank 2 on Z^3
        ([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
         [["1", "0", "0"], ["0", "1", "0"], ["1", "1", "0"]]),
        # dependent lattice columns
        ([["1", "2"], ["2", "4"]], [["1", "0"], ["0", "1"]]),
        # functionals shorter than the lattice's ambient dimension
        ([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
         [["1", "0"], ["0", "1"]]),
    ])
    def test_degenerate_lambda_exit_3(self, tmp_path, capsys, columns,
                                      functionals):
        lat = write(tmp_path, "lat.json", {"columns": columns})
        nrm = write(tmp_path, "nrm.json", {"functionals": functionals})
        code, out, err = run(capsys, ["lambda", "--lattice", lat,
                                      "--norm", nrm])
        assert code == 3
        assert out == ""
        assert json.loads(err)["error"] == "precondition"


class TestMalformedShapes:
    """Wrong lengths, non-prime place keys and negative degrees exit 2 or 3
    with JSON on stderr, never a traceback or an answer for another input."""

    @pytest.mark.parametrize("vector", [["1"], ["1", "2", "3"]])
    def test_orthogonalize_wrong_length_exit_3(self, tmp_path, capsys, vector):
        cfg = write(tmp_path, "c.json", {"space": norm_json(),
                                         "vectors": [vector]})
        code, out, err = run(capsys, ["orthogonalize", "--config", cfg])
        assert code == 3
        assert out == ""
        obj = json.loads(err)
        assert obj["error"] == "precondition"
        assert f"{len(vector)} entries" in obj["message"]

    @pytest.mark.parametrize("row", [["1"], ["1", "1", "1"]])
    def test_quotient_wrong_row_length_exit_3(self, tmp_path, capsys, row):
        cfg = write(tmp_path, "c.json", {"space": norm_json(),
                                         "surjection": [row]})
        code, out, err = run(capsys, ["quotient", "--config", cfg])
        assert code == 3
        assert out == ""
        obj = json.loads(err)
        assert obj["error"] == "precondition"
        assert f"{len(row)} entries" in obj["message"]

    @pytest.mark.parametrize("command,path", [
        ("lambda", "/adelic/places/4"),
        ("nakai", "/degrees/1/places/4"),
    ])
    def test_non_prime_place_exit_2(self, tmp_path, capsys, command, path):
        adelic = {"dim": 1, "arch_functionals": [["1"]],
                  "places": {"4": norm_json(weights=("1/1",))}}
        cfg = write(tmp_path, "c.json", {"adelic": adelic} if command == "lambda"
                    else {"degrees": {"1": adelic}})
        code, out, err = run(capsys, [command, "--config", cfg])
        assert code == 2
        assert out == ""
        obj = json.loads(err)
        assert obj["error"] == "schema"
        assert obj["path"] == path

    @pytest.mark.parametrize("command,field", [
        ("sigma-sample", "padic"),
        ("extension-table", "padic"),
        ("extend-trivial", "trivial"),
    ])
    def test_negative_max_degree_exit_2(self, tmp_path, capsys, command,
                                        field):
        space = norm_json()
        space["field"] = ({"type": "trivial"} if field == "trivial"
                          else space["field"])
        cfg = write(tmp_path, "c.json", {
            "space": space,
            "subvariety": {"points": [["1", "0"]]},
            "representative": {"degree": 1, "variables": 2,
                               "coeffs": {"1,0": "1"}},
        })
        code, out, err = run(capsys, [command, "--config", cfg,
                                      "--max-degree", "-1"])
        assert code == 2
        assert out == ""
        obj = json.loads(err)
        assert obj["error"] == "config"
        assert "--max-degree" in obj["message"]

    def ragged_exit_3(self, capsys, argv, message):
        code, out, err = run(capsys, argv)
        assert code == 3
        assert out == ""
        obj = json.loads(err)
        assert obj["error"] == "precondition"
        assert obj["message"] == message

    def test_ragged_lattice_config_exit_3(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.json", {
            "lattice": {"columns": [["1", "0"], ["0"]]},
            "norm": {"functionals": [["1", "0"], ["0", "1"]]}})
        self.ragged_exit_3(capsys, ["lambda", "--config", cfg],
                           "lattice row 1 has 1 entries, row 0 has 2")

    def test_ragged_lattice_file_exit_3(self, tmp_path, capsys):
        lat = write(tmp_path, "lat.json", {"columns": [["1", "0"], ["0"]]})
        nrm = write(tmp_path, "nrm.json",
                    {"functionals": [["1", "0"], ["0", "1"]]})
        self.ragged_exit_3(capsys, ["lambda", "--lattice", lat, "--norm", nrm],
                           "lattice row 1 has 1 entries, row 0 has 2")

    @pytest.mark.parametrize("command", ["lambda", "nakai"])
    def test_short_arch_functional_exit_3(self, tmp_path, capsys, command):
        adelic = {"dim": 2, "arch_functionals": [["1", "0"], ["1"]]}
        cfg = write(tmp_path, "c.json", {"adelic": adelic} if command == "lambda"
                    else {"degrees": {"1": adelic}})
        self.ragged_exit_3(capsys, [command, "--config", cfg],
                           "arch functional 1 has 1 entries, the dimension is 2")

    def test_ragged_field_lattice_exit_3(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.json", {
            "field": {"type": "padic", "p": 2},
            "lattice": {"columns": [["1", "0"], ["1"]]}})
        self.ragged_exit_3(capsys, ["lattice", "--config", cfg],
                           "lattice column 1 has 1 entries, column 0 has 2")

    @pytest.mark.parametrize("field", [{"type": "trivial"},
                                       {"type": "laurent", "base_prime": 3}])
    def test_lattice_over_non_padic_field_exit_3(self, tmp_path, capsys, field):
        cfg = write(tmp_path, "c.json", {
            "field": field, "lattice": {"columns": [["1", "0"], ["0", "2"]]}})
        self.ragged_exit_3(capsys, ["lattice", "--config", cfg],
                           "lattices require a p-adic base field")

    def test_oversized_enumeration_box_exit_3(self, tmp_path, capsys):
        lat = write(tmp_path, "lat.json", {"columns": [["1", "0"], ["0", "1"]]})
        nrm = write(tmp_path, "nrm.json", {
            "functionals": [["99999999999999999999/7", "0"], ["0", "1"]]})
        code, out, err = run(capsys, ["lambda", "--lattice", lat, "--norm", nrm])
        assert (code, out) == (3, "")
        assert "enumeration bound" in json.loads(err)["message"]

    @pytest.mark.parametrize("command", ["lambda", "nakai"])
    def test_unprintable_enumeration_box_exit_3(self, tmp_path, capsys, command):
        """Weights p^+-4096 over Q_1000003 give a box of about 2^244887 points,
        past the interpreter's int-to-str digit limit: the refusal names a
        power of two below the size instead."""
        place = {"field": {"type": "padic", "p": 1000003},
                 "basis": [["1", "2/3", "0"], ["5", "-7", "1/2"], ["0", "1", "4"]],
                 "weights": [{"q": "1", "n": 4096}, {"q": "1", "n": -4096},
                             {"q": "2", "n": 0}]}
        adelic = {"dim": 3, "places": {"1000003": place}, "arch_functionals": [
            ["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"], ["1", "1", "1"]]}
        cfg = write(tmp_path, "c.json", {"adelic": adelic} if command == "lambda"
                    else {"degrees": {"1": adelic}})
        code, out, err = run(capsys, [command, "--config", cfg])
        assert (code, out) == (3, "")
        obj = json.loads(err)
        assert obj["error"] == "precondition"
        assert obj["message"] == ("the enumeration box holds at least 2^244887 points, "
                                  "more than the exact enumeration bound 100000")

    def test_long_basis_search_exit_3(self, tmp_path, capsys, monkeypatch):
        # the l^1 lattice: lambda_Q = 1, and lambda_Z = 3/2 needs a search
        import ultranorm.adelic as adelic
        lat = write(tmp_path, "lat.json", {
            "columns": [["1", "0", "1/2"], ["0", "1", "1/2"], ["0", "0", "1/2"]]})
        nrm = write(tmp_path, "nrm.json", {"functionals": [
            ["1", "1", "1"], ["1", "1", "-1"], ["1", "-1", "1"], ["-1", "1", "1"]]})
        code, out, err = run(capsys, ["lambda", "--lattice", lat, "--norm", nrm])
        assert (code, err) == (0, "")
        assert json.loads(out)["lambda_Z"] == "3/2"
        monkeypatch.setattr(adelic, "NODE_BOUND", 1)
        code, out, err = run(capsys, ["lambda", "--lattice", lat, "--norm", nrm])
        assert (code, out) == (3, "")
        obj = json.loads(err)
        assert obj["error"] == "precondition"
        assert "more than 1 nodes, the exact search bound" in obj["message"]

    @staticmethod
    def exponent_space(p, n):
        return {"field": {"type": "padic", "p": p},
                "basis": [["1", "0"], ["0", "1"]],
                "weights": [{"q": "1", "n": n}, {"q": "1", "n": 0}]}

    @pytest.mark.parametrize("command,n,extra", [
        ("orthogonalize", 10 ** 20, {"vectors": [["1", "0"]]}),
        ("lattice", 10 ** 5, {}),
        ("dual", -4097, {}),
    ], ids=["orthogonalize-1e20", "lattice-1e5", "dual-below"])
    def test_weight_exponent_out_of_range_exit_2(self, tmp_path, capsys,
                                                 command, n, extra):
        cfg = write(tmp_path, "c.json", {"space": self.exponent_space(2, n), **extra})
        code, out, err = run(capsys, [command, "--config", cfg])
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "schema", "path": "/space/weights/0/n",
            "message": f"{n} is {'greater' if n > 0 else 'less'} than the "
                       f"{'maximum' if n > 0 else 'minimum'} of "
                       f"{4096 if n > 0 else -4096}"}

    def test_unprintable_lattice_exit_3(self, tmp_path, capsys):
        # 1000003^4096 has about 24,600 decimal digits
        cfg = write(tmp_path, "c.json", {"space": self.exponent_space(1000003, -4096)})
        code, out, err = run(capsys, ["lattice", "--config", cfg])
        assert (code, out) == (3, "")
        assert json.loads(err)["message"].startswith("result too large to print")

    def test_exponent_bound_is_inclusive(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.json", {"space": self.exponent_space(2, 4096)})
        code, out, err = run(capsys, ["lattice", "--config", cfg])
        assert (code, err) == (0, "")
        # weight 2^-4096: the unit ball is spanned by 2^-4096 e_0
        assert json.loads(out)["columns"][0][0] == f"1/{2 ** 4096}"

    @pytest.mark.parametrize("point", [["1", "0", "1"], ["1"]],
                             ids=["long", "short"])
    def test_subvariety_point_length_exit_3(self, tmp_path, capsys, point):
        cfg = write(tmp_path, "c.json", {
            "space": norm_json(),
            "subvariety": {"points": [["0", "1"], point]},
            "representative": {"degree": 1, "variables": 2,
                               "coeffs": {"1,0": "1"}},
        })
        self.ragged_exit_3(capsys, ["extension-table", "--config", cfg],
                           f"point 1 has {len(point)} coordinates, need 2")

    @pytest.mark.parametrize("coeffs,message", [
        ({"1,0,0": "1"}, "exponent arity 3 != 2"),
        ({"2,0": "1"}, "exponent degree 2 != 1"),
    ], ids=["arity", "degree"])
    def test_representative_error_path(self, tmp_path, capsys, coeffs,
                                       message):
        key = next(iter(coeffs))
        cfg = write(tmp_path, "c.json", {
            "space": norm_json(),
            "subvariety": {"points": [["1", "0"]]},
            "representative": {"degree": 1, "variables": 2, "coeffs": coeffs},
        })
        code, out, err = run(capsys, ["extension-table", "--config", cfg])
        assert code == 2
        assert out == ""
        obj = json.loads(err)
        assert obj["error"] == "schema"
        assert obj["path"] == f"/representative/coeffs/{key}"
        assert obj["message"] == message

    @pytest.mark.parametrize("command", ["extension-table", "extend-trivial"])
    @pytest.mark.parametrize("coeffs,key,first", [
        ({"1,0": "1", "0,1": "1", "01,0": "5"}, "01,0", "1,0"),
        ({"01,0": "5", "0,1": "1", "1,0": "1"}, "1,0", "01,0"),
    ], ids=["padded-last", "padded-first"])
    def test_duplicate_exponent_exit_2(self, tmp_path, capsys, command, coeffs, key, first):
        # "1,0" and "01,0" both name x_0: the later key is refused in either
        # order, where one of the two coefficients used to win silently
        space = dict(norm_json(), field={"type": "trivial"})
        cfg = write(tmp_path, "c.json", {
            "space": space,
            "subvariety": {"points": [["1", "0"], ["1", "1"]]},
            "representative": {"degree": 1, "variables": 2, "coeffs": coeffs},
        })
        code, out, err = run(capsys, [command, "--config", cfg])
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "schema", "path": f"/representative/coeffs/{key}",
                                   "message": f"exponent {key} repeats key {first}"}

    @pytest.mark.parametrize("shape,message", [
        ({"degree": 10 ** 9, "variables": 2}, "representative must have degree 1"),
        ({"degree": 1, "variables": 10 ** 8}, "representative/metric dimension mismatch"),
    ], ids=["degree", "variables"])
    def test_representative_shape_refused_before_allocation(self, tmp_path, capsys,
                                                            monkeypatch, shape, message):
        # a dense section holds C(n + m, m) integers: the shape is checked first
        def refuse(*args):
            raise AssertionError("section allocated before its shape was checked")
        monkeypatch.setattr(ser, "Section", refuse)
        cfg = write(tmp_path, "c.json", {
            "space": norm_json(),
            "subvariety": {"points": [["1", "0"]]},
            "representative": dict(shape, coeffs={}),
        })
        code, out, err = run(capsys, ["extension-table", "--config", cfg])
        assert (code, out) == (3, "")
        assert json.loads(err) == {"error": "precondition", "message": message}

    # 5000 decimal digits is past the interpreter's default str-to-int limit
    LONG = "1" * 5000
    digit_limit = pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits")
        or not 0 < sys.get_int_max_str_digits() < 5000,
        reason="needs a str-to-int digit limit below 5000 digits")

    @digit_limit
    @pytest.mark.parametrize("entry", [LONG, "1/" + LONG, "-" + LONG + "/7"])
    def test_rational_past_digit_limit_exit_3(self, tmp_path, capsys, entry):
        space = norm_json()
        space["basis"][0][0] = entry
        cfg = write(tmp_path, "c.json", {"space": space})
        self.ragged_exit_3(capsys, ["dual", "--config", cfg],
                           "input too large to read: an integer exceeds the "
                           "interpreter's decimal digit limit")

    @digit_limit
    def test_json_integer_past_digit_limit_exit_2(self, tmp_path, capsys):
        text = json.dumps({"space": self.exponent_space(2, 0)})
        path = tmp_path / "c.json"
        path.write_text(text.replace('"n": 0', f'"n": {self.LONG}', 1))
        code, out, err = run(capsys, ["dual", "--config", str(path)])
        assert (code, out) == (2, "")
        obj = json.loads(err)
        assert obj["error"] == "schema" and obj["path"] == ""
        assert obj["message"].startswith("malformed JSON")

    @digit_limit
    def test_exponent_past_digit_limit_exit_2(self, tmp_path, capsys):
        key = self.LONG + ",0"
        cfg = write(tmp_path, "c.json", {
            "space": norm_json(),
            "subvariety": {"points": [["1", "0"]]},
            "representative": {"degree": 1, "variables": 2,
                               "coeffs": {key: "1"}},
        })
        code, out, err = run(capsys, ["extension-table", "--config", cfg])
        assert (code, out) == (2, "")
        obj = json.loads(err)
        assert obj["error"] == "schema"
        assert obj["path"] == f"/representative/coeffs/{key}"

    @pytest.mark.parametrize("target", ["directory", "missing-parent"])
    def test_unwritable_out_exit_2(self, tmp_path, capsys, target):
        cfg = write(tmp_path, "c.json", {"space": norm_json()})
        dest = str(tmp_path if target == "directory" else tmp_path / "no" / "o.json")
        code, out, err = run(capsys, ["dual", "--config", cfg, "--out", dest])
        assert (code, out) == (2, "")
        obj = json.loads(err)
        assert (obj["error"], obj["path"]) == ("config", "")
        assert obj["message"].startswith(f"cannot write {dest}: ")

    @pytest.mark.parametrize("flag", ["--config", "--points", "--lattice", "--norm"])
    def test_deeply_nested_json_exit_2(self, tmp_path, capsys, flag):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200000 + "]" * 200000)
        lam = ["lambda", "--lattice", write(tmp_path, "lat.json", {"columns": [["1"]]}),
               "--norm", write(tmp_path, "nrm.json", {"functionals": [["1"]]})]
        sample = ["sigma-sample", "--config", write(tmp_path, "c.json", {"space": norm_json()}),
                  "--points", write(tmp_path, "p.json", {"points": [["1", "0"]]})]
        argv = lam if flag in lam else sample
        argv[argv.index(flag) + 1] = str(deep)
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        obj = json.loads(err)
        assert (obj["error"], obj["path"]) == ("schema", "")
        assert obj["message"].startswith(f"malformed JSON in {deep}: ")


class TestDeterminism:
    def test_byte_identical_across_jobs(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.json", {"space": norm_json()})
        outputs = set()
        for jobs in ("1", "4", "8"):
            code, out, _ = run(capsys, ["sigma-sample", "--config", cfg,
                                        "--max-degree", "2",
                                        "--jobs", jobs])
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1

    def test_seed_controls_generated_points(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.json", {"space": norm_json()})
        _, out_a, _ = run(capsys, ["sigma-sample", "--config", cfg,
                                   "--max-degree", "1", "--seed", "1"])
        _, out_b, _ = run(capsys, ["sigma-sample", "--config", cfg,
                                   "--max-degree", "1", "--seed", "1"])
        _, out_c, _ = run(capsys, ["sigma-sample", "--config", cfg,
                                   "--max-degree", "1", "--seed", "2"])
        assert out_a == out_b
        assert out_a != out_c


class TestSigmaSampleOracle:
    """sigma-sample against sigma at the normalized point, computed and
    formatted once per (degree, point) row."""

    POINTS = [["1", "2", "3"], ["2", "4", "6"], ["-1/3", "0", "5/7"],
              ["0", "0", "4"], ["9/2", "1", "1"], ["-3/2", "-3", "-9/2"],
              ["0", "0", "-1/8"], ["1/3", "0", "-5/7"]]  # with scaled duplicates

    @staticmethod
    def oracle(space, points, n_max):
        h, _ = cli._metric_from_config({"space": space}, n_max)
        rows = []
        for n in range(1, n_max + 1):
            for p in points:
                x = [Fraction(c) for c in p]
                val = sigma(h, n, normalize_point(h.field, x))
                label = ":".join(ser.rational_to_str(c) for c in x)
                rows.append([n, label, val.q.numerator, val.q.denominator, val.n])
        return rows

    @pytest.mark.parametrize("field", [{"type": "padic", "p": 2}, {"type": "padic", "p": 3},
                                       {"type": "trivial"},
                                       {"type": "laurent", "base_prime": 3}],
                             ids=["Q2", "Q3", "trivial", "laurent"])
    @pytest.mark.parametrize("n_max", [1, 2, 4])
    def test_rows_equal_the_per_row_oracle(self, tmp_path, capsys, field, n_max):
        exponents = (1, -2, 0) if field["type"] == "padic" else (0, 0, 0)
        space = {"field": field,
                 "basis": [["1", "1/2", "0"], ["0", "3", "1"], ["2", "0", "1/5"]],
                 "weights": [{"q": q, "n": e} for q, e in zip(("2", "1", "5/3"), exponents)]}
        cfg = write(tmp_path, "c.json", {"space": space})
        pts = write(tmp_path, "p.json", {"points": self.POINTS})
        rows = self.oracle(space, self.POINTS, n_max)
        assert len(rows) == n_max * len(self.POINTS)
        header = ["degree", "point", "ratio_num", "ratio_den", "exponent"]
        argv = ["sigma-sample", "--config", cfg, "--points", pts, "--max-degree", str(n_max)]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert out == "\n".join(",".join(map(str, r)) for r in [header] + rows) + "\n"
        code, out, _ = run(capsys, argv + ["--format", "json"])
        assert code == 0
        assert out == json.dumps({"rows": [dict(zip(header, r)) for r in rows]},
                                 sort_keys=True, indent=2) + "\n"


class TestArguments:
    """One flat parser for every command; argument errors keep the CLI's
    exit-2 contract."""

    @pytest.mark.parametrize("argv", [
        ["bogus"],
        ["dual", "--bogus"],
        ["dual", "--lattice", "x.json"],
        ["orthogonalize", "--norm", "x.json"],
        ["sigma-sample", "--max-degree", "abc"],
        [],
    ], ids=["unknown-command", "unknown-flag", "lattice-outside-lambda",
            "norm-outside-lambda", "non-integer-max-degree", "no-command"])
    def test_argument_error_exit_2(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        obj = json.loads(err)
        assert obj["error"] == "config"
        assert obj["path"] == ""
        assert obj["message"]

    def test_help_exits_0_on_stdout(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: ultranorm")
        assert captured.err == ""

    # written from the namespaces of the former one-subparser-per-command
    # parser; only lambda had --lattice and --norm there
    FULL = {"config": "c.json", "out": "o.txt", "max_degree": 3,
            "epsilon": "1/7", "points": "p.json", "jobs": 2, "seed": 5,
            "format": "json"}
    DEFAULT = {"config": None, "out": None, "max_degree": None,
               "epsilon": None, "points": None, "jobs": 1, "seed": 0,
               "format": None}
    FLAGS = ["--config", "c.json", "--out", "o.txt", "--max-degree", "3",
             "--epsilon", "1/7", "--points", "p.json", "--jobs", "2",
             "--seed", "5", "--format", "json"]

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_namespace_matches_former_parser(self, command):
        full = {"command": command, **self.FULL}
        default = {"command": command, **self.DEFAULT,
                   "lattice": None, "norm": None}
        flags = list(self.FLAGS)
        if command == "lambda":
            full.update(lattice="l.json", norm="n.json")
            flags += ["--lattice", "l.json", "--norm", "n.json"]
        else:
            full.update(lattice=None, norm=None)

        def typed(d):
            return {k: (type(v), v) for k, v in d.items()}

        parse = cli.build_parser().parse_args
        assert typed(vars(parse([command] + flags))) == typed(full)
        assert typed(vars(parse(flags + [command]))) == typed(full)
        assert typed(vars(parse([command]))) == typed(default)

    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_shared_parser_gives_fresh_call_output(self, tmp_path, capsys,
                                                   monkeypatch):
        cfg = write(tmp_path, "c.json", {"space": norm_json(weights=("1/1", "2/1"))})
        calls = [["dual", "--bogus"], ["dual", "--config", cfg],
                 ["lattice", "--jobs", "0", "--config", cfg]]
        shared = [run(capsys, argv) for argv in calls]
        fresh = []
        for argv in calls:
            monkeypatch.setattr(cli, "_PARSER", None)
            fresh.append(run(capsys, argv))
        assert [code for code, _, _ in shared] == [2, 0, 2]
        assert shared == fresh


class TestHugeRatios:
    def test_extension_table_log_past_float_range(self, tmp_path, capsys):
        # ratio p^8192 with p = 1000003 is far past the float range
        space = norm_json(p=1000003)
        space["weights"] = [{"q": "1", "n": 4096}, {"q": "1", "n": -4096}]
        cfg = write(tmp_path, "c.json", {
            "space": space,
            "subvariety": {"points": [["1", "0"], ["1", "1"]]},
            "representative": {"degree": 1, "variables": 2,
                               "coeffs": {"1,0": "1", "0,1": "-1/2"}},
        })
        code, out, err = run(capsys, ["extension-table", "--config", cfg,
                                      "--max-degree", "3"])
        assert (code, err) == (0, "")
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert [row[0] for row in rows] == ["1", "2", "3"]
        for row in rows:
            assert row[1:4] == ["1", "1", "-8192"]
            assert float(row[4]) * int(row[0]) == pytest.approx(
                8192 * math.log(1000003))

    def test_extend_trivial_with_a_large_prime_squared(self, tmp_path, capsys):
        # 2^64 + 1 = 274177 * 67280421310721, and the degree-2 weight ratio
        # carries the larger factor squared: the base prime is chosen
        # without factoring it
        space = {"field": {"type": "trivial"}, "basis": [["1", "0"], ["0", "1"]],
                 "weights": [{"q": f"7/{2 ** 64 + 1}", "n": 0}, {"q": "1", "n": 0}]}
        cfg = write(tmp_path, "c.json", {
            "space": space,
            "subvariety": {"points": [["1", "0"], ["1", "1"]]},
            "representative": {"degree": 1, "variables": 2, "coeffs": {"1,0": "1"}},
        })
        code, out, err = run(capsys, ["extend-trivial", "--config", cfg,
                                      "--max-degree", "2"])
        assert (code, err) == (0, "")
        assert json.loads(out)["degree"] == 2


class TestDegreeBound:
    """sigma-sample, extension-table and extend-trivial count the
    C(n + m, m) degree-n forms on P^m before any work and refuse more than
    DEGREE_BOUND with exit 3, JSON naming the bound."""

    @staticmethod
    def problem(tmp_path, field, num_vars):
        space = norm_json(weights=("1/1",) * num_vars)
        if field == "trivial":
            space["field"] = {"type": "trivial"}
        unit = ["1"] + ["0"] * (num_vars - 1)
        return write(tmp_path, "c.json", {
            "space": space,
            "subvariety": {"points": [unit, ["1"] * num_vars]},
            "representative": {"degree": 1, "variables": num_vars,
                               "coeffs": {",".join(unit): "1"}},
        })

    def test_helper_at_the_bound_and_one_past(self):
        bound = cli.DEGREE_BOUND
        # P^1 has n + 1 forms of degree n; P^2 has C(14 + 2, 2) = 120 at 14
        assert cli._bounded_degree(1, bound - 1) == bound - 1
        assert cli._bounded_degree(0, 10 ** 9) == 10 ** 9
        with pytest.raises(ultranorm.PreconditionError, match="degree bound"):
            cli._bounded_degree(1, bound)
        n = max(n for n in range(200) if math.comb(n + 2, 2) <= bound)
        assert cli._bounded_degree(2, n) == n
        with pytest.raises(ultranorm.PreconditionError, match="degree bound"):
            cli._bounded_degree(2, n + 1)

    def test_sigma_sample_at_the_real_bound(self, tmp_path, capsys):
        n = max(n for n in range(200) if math.comb(n + 2, 2) <= cli.DEGREE_BOUND)
        cfg = write(tmp_path, "m.json", {"space": norm_json(weights=("1/1",) * 3)})
        pts = write(tmp_path, "p.json", {"points": [["1", "2", "3"]]})
        code, out, err = run(capsys, ["sigma-sample", "--config", cfg, "--points",
                                      pts, "--max-degree", str(n)])
        assert (code, err) == (0, "")
        assert len(out.strip().split("\n")) == n + 1
        code, out, err = run(capsys, ["sigma-sample", "--config", cfg, "--points",
                                      pts, "--max-degree", str(n + 1)])
        assert (code, out) == (3, "")
        assert f"degree bound {cli.DEGREE_BOUND}" in json.loads(err)["message"]

    @pytest.mark.parametrize("command,field", [
        ("sigma-sample", "padic"),
        ("extension-table", "padic"),
        ("extend-trivial", "trivial"),
    ])
    def test_each_command_at_a_bound_and_one_past(self, tmp_path, capsys,
                                                  monkeypatch, command, field):
        cfg = self.problem(tmp_path, field, 3)
        monkeypatch.setattr(cli, "DEGREE_BOUND", math.comb(3 + 2, 2))
        code, out, err = run(capsys, [command, "--config", cfg, "--max-degree", "3"])
        assert (code, err) == (0, "")
        assert out
        code, out, err = run(capsys, [command, "--config", cfg, "--max-degree", "4"])
        assert (code, out) == (3, "")
        obj = json.loads(err)
        assert obj["error"] == "precondition"
        assert "15 monomials" in obj["message"]
        assert "degree bound 10" in obj["message"]

    @pytest.mark.parametrize("command,field", [
        ("sigma-sample", "padic"),
        ("extension-table", "padic"),
        ("extend-trivial", "trivial"),
    ])
    def test_past_the_bound_builds_no_metric(self, tmp_path, capsys, monkeypatch,
                                             command, field):
        # P^120 has 121 degree-1 forms: the frame's length alone refuses
        # degree 1, before the metric orthogonalizes the 121 x 121 frame
        cfg = self.problem(tmp_path, field, 121)
        built = []
        monkeypatch.setattr(cli, "QuotientMetric", lambda *args: built.append(args))
        code, out, err = run(capsys, [command, "--config", cfg, "--max-degree", "1"])
        assert (code, out, built) == (3, "", [])
        obj = json.loads(err)
        assert obj["error"] == "precondition"
        assert obj["message"] == ("degree 1 on P^120 has 121 monomials, "
                                  "above the degree bound 120")

    @pytest.mark.parametrize("command,field", [
        ("sigma-sample", "padic"),
        ("extension-table", "padic"),
        ("extend-trivial", "trivial"),
    ])
    def test_huge_degree_exits_3_at_once(self, tmp_path, capsys, command, field):
        cfg = self.problem(tmp_path, field, 2)
        code, out, err = run(capsys, [command, "--config", cfg,
                                      "--max-degree", "1000000"])
        assert (code, out) == (3, "")
        obj = json.loads(err)
        assert obj["error"] == "precondition"
        assert f"degree bound {cli.DEGREE_BOUND}" in obj["message"]
