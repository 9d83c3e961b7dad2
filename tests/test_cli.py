import contextlib
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import trisect.curves as cv
import trisect.gamma00 as g00
import trisect.secants as se
from trisect.cli import run
from trisect.selftest import Context, DEFAULT_SEED, criterion_theta_trisecant
from conftest import reference_curve


def write_curve(tmp_path_factory, genus):
    """A curve file of the reference curve of this genus."""
    path = tmp_path_factory.mktemp("curves") / f"g{genus}.json"
    coeffs = reference_curve(genus).f_coeffs.tolist()
    path.write_text(json.dumps({"f_coeffs": coeffs}))
    return str(path)


def theta_divisor_setup(genus, seed, ell):
    """Curve, periods, B_ell sample and kappa in the order the theta-divisor
    commands compute them, so that every figure agrees to the last bit."""
    curve = reference_curve(genus)
    sample = cv.sample_B_ell(curve, ell, seed=seed)
    periods = cv.period_matrix(curve)
    kappa, _ = cv.riemann_constant(curve, periods)
    return curve, periods, sample, kappa


@pytest.fixture(scope="module")
def curve_file(tmp_path_factory):
    return write_curve(tmp_path_factory, 3)


@pytest.fixture(scope="module")
def curve4_file(tmp_path_factory):
    return write_curve(tmp_path_factory, 4)


@pytest.fixture(scope="module")
def curve2_file(tmp_path_factory):
    return write_curve(tmp_path_factory, 2)


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

    def test_trisecant_reproduces_selftest(self, capsys, curve_file):
        code, report = run_json(capsys, [
            "trisecant", "--curve", curve_file,
            "--seed", str(DEFAULT_SEED + 3)])
        assert code == 0
        g3 = criterion_theta_trisecant(Context(), DEFAULT_SEED)["g3"]
        cert = report["results"]["certificate"]
        assert cert["theta_residuals"] == g3["theta_residuals"]
        assert cert["rank"]["gap_ratio"] == g3["collinearity_gap"]
        assert cert["gauss_angles"] == g3["gauss_angles"]
        assert report["results"]["halving_residual"] \
            == g3["halving_residual"]

    def test_multisecant(self, capsys, curve_file):
        code, report = run_json(capsys, ["multisecant", "--curve",
                                         curve_file, "--ell", "3",
                                         "--seed", "2"])
        assert code == 0
        certs, distinct = se.multisecant_sweep(*theta_divisor_setup(3, 2, 3))
        assert report["results"]["n_partitions"] == len(certs) == 4
        assert report["results"]["distinct_points"] == len(distinct)
        assert report["results"]["certificates"] == json.loads(
            json.dumps([cert.to_dict() for cert in certs]))

    def test_gamma00_trisecant(self, capsys, curve4_file):
        code, report = run_json(capsys, ["gamma00-trisecant", "--curve",
                                         curve4_file, "--seed", "3"])
        assert code == 0
        curve, periods, sample, kappa = theta_divisor_setup(4, 3, 3)
        tri = se.theta_trisecant_construct(curve, periods, sample, kappa)
        dim, info = g00.trisecant_gamma00_test(periods.tau, *tri.lifts)
        controls = g00.gamma00_controls(periods.tau,
                                        np.random.default_rng(3 + 1), 1)
        assert report["results"] == {
            "trisecant_dimension": dim, "control_dimension": controls[0],
            "span_rank": info["span_rank"],
            "degenerate_span": info["degenerate_span"]}

    def test_span(self, capsys, curve4_file):
        code, report = run_json(capsys, ["span", "--curve", curve4_file,
                                         "--seed", "5"])
        assert code == 0
        inner, outer, dim, details = g00.span_VpWp(
            *theta_divisor_setup(4, 5, 3))
        assert report["results"] == {
            "dim_inner_span": inner, "dim_outer_span": outer,
            "dim_gamma00": dim, "fiber": details}


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

    @pytest.mark.parametrize("argv, code, curve", [
        (["theta", "--z", "notjson"], 2, None),
        (["periods", "--tol", "-1"], 2, None),
        (["theta", "--z", "[[1e300,0],[0,1e3],[0,0]]"], 3, None),
        (["theta", "--z", "[[0,0],[0,0],[0,0]]", "--tol", "nan"], 2, None),
        (["theta", "--z", "[[0,0],[0,1e17],[0,0]]"], 3, None),
        (["fay", "--seed", "-1"], 2, None),
        (["fay", "--seed", "x"], 2, None),
        (["periods"], 2, "[" * 100_000),
        (["periods"], 2, '{"f_coeffs": [0, -1, 0, true]}'),
        (["theta", "--z", "[[true,false],[0,0],[0,0]]"], 2, None),
    ], ids=["z-not-json", "negative-period-tol", "non-finite-theta",
            "nan-theta-tol", "unreducible-theta-argument", "negative-seed",
            "malformed-seed", "deeply-nested-curve", "boolean-coefficient",
            "boolean-z"])
    def test_exit_contract(self, capsys, tmp_path, curve_file, argv, code,
                           curve):
        """Each bad input exits 2 or 3 with a strict-JSON error; a curve
        text, where given, replaces the reference curve file."""
        if curve is not None:
            curve_file = tmp_path / "curve.json"
            curve_file.write_text(curve)
        assert run(argv + ["--curve", str(curve_file)]) == code
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


#: numbers as text, well-formed or not, from tiny to beyond float range
NUMBER_TEXT = st.one_of(
    st.floats().map(repr),
    st.integers(-10 ** 30, 10 ** 30).map(str),
    st.sampled_from(["nan", "inf", "-inf", "-0", "1e-320", "1e308", "",
                     "0x10", "1_0", " 3 "]),
    st.text(max_size=8),
)
#: JSON numbers, non-finite and beyond float range included
JSON_NUMBERS = st.one_of(st.floats(), st.integers(-10 ** 400, 10 ** 400))
Z_TEXT = st.one_of(
    st.lists(st.tuples(JSON_NUMBERS, JSON_NUMBERS),
             max_size=3).map(json.dumps),
    st.lists(st.lists(JSON_NUMBERS, max_size=3), max_size=3).map(json.dumps),
    st.text(max_size=20),
)
#: the options each command takes; others are drawn now and then too
OPTIONS = {"periods": ["--tol"], "theta": ["--z", "--tol"],
           "fay": ["--seed"], "trisecant": ["--seed"],
           "multisecant": ["--seed", "--ell"], "gamma00-dim": [],
           "gamma00-trisecant": ["--seed"], "span": ["--seed", "--ell"]}
VALUES = {"--z": Z_TEXT, "--tol": NUMBER_TEXT, "--seed": NUMBER_TEXT,
          "--ell": NUMBER_TEXT}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(OPTIONS)))
    names = [name for name in VALUES if name in OPTIONS[command]
             and (name == "--z" or draw(st.booleans()))]
    if draw(st.integers(0, 9)) == 0:
        names.append(draw(st.sampled_from(sorted(VALUES))))
    return [command] + [item for name in names
                        for item in (name, draw(VALUES[name]))]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(argv=argvs())
def test_exit_contract_fuzz(curve2_file, argv):
    out = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("always")
        code = run(argv + ["--curve", curve2_file])
    assert code in (0, 1, 2, 3)
    report = json.loads(out.getvalue(), parse_constant=_reject_non_finite)
    if code in (0, 1):
        assert report["pass"] is (code == 0)
    else:
        assert report["error"]
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
