import json

import numpy as np
import pytest

from trisect.cli import run
from conftest import reference_curve


@pytest.fixture(scope="module")
def curve_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("curves") / "g3.json"
    coeffs = [float(c) for c in np.poly(range(7))[::-1]]
    path.write_text(json.dumps({"f_coeffs": coeffs}))
    return str(path)


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestPeriods:

    def test_passes_with_report_fields(self, capsys, curve_file):
        code, report = run_json(capsys, ["periods", "--curve", curve_file])
        assert code == 0
        assert report["pass"] is True
        assert report["schema_version"] == 1
        assert report["command"] == "periods"
        assert len(report["inputs_digest"]) == 64
        assert report["results"]["genus"] == 3
        assert report["results"]["bilinear_residual"] < 1e-9
        # tau serialized as nested [re, im] pairs
        tau = report["results"]["tau"]
        assert len(tau) == 3 and len(tau[0][0]) == 2

    def test_deterministic_modulo_timings(self, capsys, curve_file):
        _, first = run_json(capsys, ["periods", "--curve", curve_file])
        _, second = run_json(capsys, ["periods", "--curve", curve_file])
        first.pop("timings_ms")
        second.pop("timings_ms")
        assert first == second


class TestThetaCommand:

    def test_value_at_origin(self, capsys, curve_file):
        code, report = run_json(capsys, [
            "theta", "--curve", curve_file,
            "--z", json.dumps([[0.0, 0.0]] * 3)])
        assert code == 0
        re, im = report["results"]["value"]
        assert abs(complex(re, im)) > 0.1
        assert report["results"]["bound_on_tail"] < 1e-10

    def test_odd_characteristic_vanishes(self, capsys, curve_file):
        code, report = run_json(capsys, [
            "theta", "--curve", curve_file,
            "--z", json.dumps([[0.0, 0.0]] * 3), "--char", "111;111"])
        assert code == 0
        re, im = report["results"]["value"]
        assert abs(complex(re, im)) < 1e-10

    def test_malformed_char_is_exit_2(self, capsys, curve_file):
        code, report = run_json(capsys, [
            "theta", "--curve", curve_file,
            "--z", json.dumps([[0.0, 0.0]] * 3), "--char", "11;11;11"])
        assert code == 2
        assert report["code"] == "INVALID_INPUT"


class TestConstructions:

    def test_fay_certificate(self, capsys, curve_file):
        code, report = run_json(capsys, ["fay", "--curve", curve_file,
                                         "--seed", "3"])
        assert code == 0
        cert = report["results"]["certificate"]
        assert cert["rank"]["decided_rank"] == 2
        assert cert["passes"] is True

    def test_trisecant(self, capsys, curve_file):
        code, report = run_json(capsys, ["trisecant", "--curve", curve_file,
                                         "--seed", "3"])
        assert code == 0
        assert report["results"]["halving_residual"] < 1e-7
        cert = report["results"]["certificate"]
        assert max(cert["theta_residuals"]) < 1e-7

    def test_gamma00_dim(self, capsys, curve_file):
        code, report = run_json(capsys, ["gamma00-dim", "--curve",
                                         curve_file])
        assert code == 0
        assert report["results"]["dimension"] == 1
        assert report["results"]["expected"] == 1


class TestFiber:

    def test_four_fold_point(self, capsys):
        code, report = run_json(capsys, ["fiber", "--k0", "4P0",
                                         "--genus", "3"])
        assert code == 0
        assert report["results"]["total_multiplicity"] == 6
        assert report["results"]["entries"] == [
            {"subdivisor": [["P0", 2]], "multiplicity": 6}]

    def test_bad_k0_is_exit_2(self, capsys):
        code, report = run_json(capsys, ["fiber", "--k0", "nonsense!",
                                         "--genus", "3"])
        assert code == 2


class TestErrorPaths:

    def test_invalid_curve_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"f_coeffs": [1.0, 0.0, 0.0, 1.0]}))
        code, report = run_json(capsys, ["periods", "--curve", str(bad)])
        assert code == 2
        assert report["code"] == "INVALID_INPUT"

    def test_missing_file(self, capsys):
        code, report = run_json(capsys, ["periods", "--curve",
                                         "/nonexistent.json"])
        assert code == 2

    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 2

    @pytest.mark.parametrize("argv, code", [
        (["theta", "--z", "notjson"], 2),
        (["periods", "--tol", "-1"], 2),
        (["theta", "--z", "[[1e300,0],[0,1e3],[0,0]]"], 3),
        (["theta", "--z", "[[0,0],[0,0],[0,0]]", "--tol", "nan"], 2),
    ], ids=["z-not-json", "negative-period-tol", "non-finite-theta",
            "nan-theta-tol"])
    def test_exit_contract(self, capsys, curve_file, argv, code):
        assert run(argv + ["--curve", curve_file]) == code
        report = json.loads(capsys.readouterr().out,
                            parse_constant=_reject_non_finite)
        assert report["code"] == {2: "INVALID_INPUT",
                                  3: "NUMERICAL_FAILURE"}[code]


def _reject_non_finite(token):
    raise ValueError(f"strict JSON has no {token}")


class TestSelftestCommand:

    def test_single_criterion(self, capsys):
        code, report = run_json(capsys, ["selftest", "--only",
                                         "elliptic-periods"])
        assert code == 0
        assert report["results"]["summary"] == {"elliptic-periods": "PASS"}
        crit = report["results"]["criteria"]["elliptic-periods"]
        assert crit["passed"] is True
