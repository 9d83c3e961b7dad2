import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import trisect
import trisect.curves as cv
import trisect.gamma00 as g00
import trisect.secants as se
from trisect.cli import run
from trisect.numeric import DEFAULT_RANK_TOL
from trisect.selftest import Context, DEFAULT_SEED, criterion_theta_trisecant
from trisect.theta import RiemannMatrix, DEFAULT_THETA_TOL
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

    def test_reports_the_quadrature(self, capsys, curve_file):
        """The node counts of the 2g period integrals and of the leg
        infinity -> anchor, and their largest error bound, within --tol."""
        _, report = run_json(capsys, ["periods", "--curve", curve_file,
                                      "--tol", "1e-12"])
        quad = report["results"]["quadrature"]
        assert len(quad["period_nodes"]) == 6
        assert all(n >= 2 for n in quad["period_nodes"])
        assert quad["infinity_nodes"] >= 8
        assert 0.0 < quad["max_bound"] <= 1e-12

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

    def test_fresh_curve_builds_each_lattice_cache_for_its_sums(
            self, capsys, monkeypatch, curve_file):
        """One trisecant run on a fresh genus-3 curve enumerates each
        lattice point of tau and of tau/2 once: the shells RiemannMatrix._ball
        lists for a matrix follow one another out from the origin and sum
        to its final cache, so rho and the nearest-translate search read
        that cache and enumerate nothing of their own."""
        shells = []
        ball = RiemannMatrix._ball

        def counted(rm, inner, outer):
            points, norms = ball(rm, inner, outer)
            shells.append((rm, inner, outer, len(points)))
            return points, norms

        monkeypatch.setattr(RiemannMatrix, "_ball", counted)
        code, _ = run_json(capsys, ["trisecant", "--curve", curve_file])
        assert code == 0
        (tau,) = {rm for rm, *_ in shells if rm._half is not None}
        assert {rm for rm, *_ in shells} == {tau, tau._half}
        for rm in (tau, tau._half):
            own = [shell[1:] for shell in shells if shell[0] is rm]
            assert [inner for inner, _, _ in own] \
                == [-1.0] + [outer for _, outer, _ in own[:-1]]
            assert own[-1][1] == rm._radius
            assert sum(count for _, _, count in own) == len(rm._points)
            assert rm._rho == rm._norms[1]

    def test_nan_point_is_exit_2(self, capsys, monkeypatch, curve2_file):
        """A point whose y is NaN reaches the lifts as it would from a
        caller; the refusal is an exit 2 with a strict-JSON error."""
        draw = cv.random_curve_point
        drawn = []

        def nan_first(curve, rng):
            point = draw(curve, rng)
            drawn.append(point)
            return cv.CurvePoint(x=point.x, y=complex(np.nan)) \
                if len(drawn) == 1 else point

        monkeypatch.setattr(se, "random_curve_point", nan_first)
        code, report = run_json(capsys, ["fay", "--curve", curve2_file])
        assert code == 2
        assert report["code"] == "INVALID_INPUT"
        assert report["details"]["defect"] == "NaN"

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

    def test_subdivisors_name_their_points(self, capsys):
        code, report = run_json(capsys, ["fiber", "--k0", "2P0,1P1,1P2",
                                         "--genus", "3"])
        assert code == 0
        assert report["results"]["entries"] == [
            {"subdivisor": [["P1", 1], ["P2", 1]], "multiplicity": 1},
            {"subdivisor": [["P0", 1], ["P2", 1]], "multiplicity": 2},
            {"subdivisor": [["P0", 1], ["P1", 1]], "multiplicity": 2},
            {"subdivisor": [["P0", 2]], "multiplicity": 1}]

    def test_bad_k0_is_exit_2(self, capsys):
        code, report = run_json(capsys, ["fiber", "--k0", "nonsense!",
                                         "--genus", "3"])
        assert code == 2

    @pytest.mark.parametrize(
        "k0", ["\u00b3", "2P0,\u00b2", "2P0,2P0", "2P1,2"],
        ids=["superscript", "superscript-term", "repeated-label",
             "repeated-auto-label"])
    def test_refused_k0_is_exit_2(self, capsys, k0):
        """A superscript digit is no multiplicity, and one label names one
        point; fiber takes no --curve, so argv is exactly this."""
        assert run(["fiber", "--k0", k0, "--genus", "3"]) == 2
        report = json.loads(capsys.readouterr().out,
                            parse_constant=_reject_non_finite)
        assert report["code"] == "INVALID_INPUT"

    @pytest.mark.parametrize("k0, genus", [
        ("400,400,400,400", "801"), ("99999999998", "50000000000"),
        (",".join(["1"] * 20), "11")],
        ids=["four-points-g801", "one-point-g5e10", "twenty-points-g11"])
    def test_genus_above_bound_is_refused_at_once(self, capsys, k0, genus):
        """A K0 of canonical degree whose genus exceeds MAX_FIBER_GENUS is
        refused in under a second, however large the box prod [0, n_i]."""
        start = time.perf_counter()
        assert run(["fiber", "--k0", k0, "--genus", genus]) == 2
        assert time.perf_counter() - start < 1.0
        report = json.loads(capsys.readouterr().out,
                            parse_constant=_reject_non_finite)
        assert report["code"] == "INVALID_INPUT"


Z0 = json.dumps([[0.0, 0.0]] * 3)
RANK_TOL = {"rank_tol": DEFAULT_RANK_TOL}


class TestReportContract:

    @pytest.mark.parametrize("argv, genus, inputs, tolerances", [
        (["periods"], 3, {"tol": 1e-11}, {"period_tol": 1e-11}),
        (["periods", "--tol", "1e-12"], 3, {"tol": 1e-12},
         {"period_tol": 1e-12}),
        (["theta", "--z", Z0, "--char", "111;111"], 3,
         {"z": Z0, "char": "111;111"}, {"theta_tol": DEFAULT_THETA_TOL}),
        (["fay", "--seed", "3"], 3, {"seed": 3}, RANK_TOL),
        (["trisecant"], 3, {"seed": DEFAULT_SEED}, RANK_TOL),
        (["multisecant", "--ell", "3", "--seed", "2"], 3,
         {"seed": 2, "ell": 3}, RANK_TOL),
        (["fiber", "--k0", "4P0", "--genus", "3"], None,
         {"k0": "4P0", "genus": 3}, {}),
        (["gamma00-dim"], 3, {}, RANK_TOL),
        (["gamma00-trisecant", "--seed", "3"], 4, {"seed": 3}, RANK_TOL),
        (["span", "--seed", "5"], 4, {"seed": 5, "ell": 3}, RANK_TOL),
        (["selftest", "--only", "elliptic-periods"], None,
         {"seed": DEFAULT_SEED, "only": "elliptic-periods"}, {}),
    ], ids=["periods", "periods-tol", "theta", "fay", "trisecant",
            "multisecant", "fiber", "gamma00-dim", "gamma00-trisecant",
            "span", "selftest"])
    def test_inputs_digest_and_tolerances(self, capsys, curve_file,
                                          curve4_file, argv, genus, inputs,
                                          tolerances):
        """inputs_digest is the SHA-256 of the canonical JSON of the curve
        file's contents and the command's digested options; the report's
        tolerances name the options that bound its figures."""
        if genus is not None:
            path = {3: curve_file, 4: curve4_file}[genus]
            argv = argv + ["--curve", path]
            inputs = {**inputs, "curve": json.loads(Path(path).read_text())}
        code, report = run_json(capsys, argv)
        assert code == 0
        canonical = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
        assert report["inputs_digest"] \
            == hashlib.sha256(canonical.encode()).hexdigest()
        assert report["tolerances"] == tolerances


class TestErrorPaths:

    def test_invalid_curve_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"f_coeffs": [1.0, 0.0, 0.0, 1.0]}))
        code, report = run_json(capsys, ["periods", "--curve", str(bad)])
        assert code == 2
        assert report["code"] == "INVALID_INPUT"

    @pytest.mark.parametrize("roots, code, error", [
        (1e4 + np.arange(7), "ILL_CONDITIONED_CURVE", "not resolved"),
        (np.r_[np.arange(5), 1j, -1j], "INVALID_INPUT", "must be real"),
    ], ids=["shifted-real-roots", "complex-roots"])
    def test_unresolved_real_roots_are_ill_conditioned(
            self, capsys, tmp_path, roots, code, error):
        """np.roots leaves imaginary parts up to 121 on the real roots
        1e4..1e4+6 of the expanded f, within a few times their perturbation
        scale: an ill-conditioned curve.  The roots +-i of the other curve
        are 4e14 times theirs: complex branch points."""
        path = tmp_path / "curve.json"
        path.write_text(json.dumps(
            {"f_coeffs": np.poly(roots).real[::-1].tolist()}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            exit_code, report = run_json(capsys, ["periods", "--curve",
                                                  str(path)])
        assert (exit_code, report["code"]) == (2, code)
        assert error in report["error"]
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]

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
        (["theta", "--z", "[[0,0],[0,0],[0,0]]", "--char", "ab;00"], 2,
         None),
        (["theta", "--z", "[[0,0],[0,0],[0,0]]", "--char", ""], 2, None),
    ], ids=["z-not-json", "negative-period-tol", "non-finite-theta",
            "nan-theta-tol", "unreducible-theta-argument", "negative-seed",
            "malformed-seed", "deeply-nested-curve", "boolean-coefficient",
            "boolean-z", "char-not-bits", "char-empty"])
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


def test_cli_import_loads_no_scipy():
    # the package runs on numpy alone: a fresh interpreter that imports the
    # CLI, as every command does, has no scipy module loaded
    src = str(Path(trisect.__file__).resolve().parents[1])
    code = ("import sys, trisect.cli; print(sorted(m for m in sys.modules "
            "if m.partition('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    assert proc.stdout.strip() == "[]"


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
#: K0 lists of short text and of terms, superscript multiplicities included
K0_TEXT = st.lists(
    st.one_of(st.sampled_from(["\u00b3", "\u00b2", "4P0", "2P0", "1P1", "2"]),
              st.text(max_size=4)),
    min_size=1, max_size=3).map(",".join)
#: the options each command takes; others are drawn now and then too
OPTIONS = {"periods": ["--tol"], "theta": ["--z", "--tol", "--char"],
           "fay": ["--seed", "--rank-tol"],
           "trisecant": ["--seed", "--rank-tol"],
           "multisecant": ["--seed", "--ell", "--rank-tol"],
           "fiber": ["--k0", "--genus"], "gamma00-dim": ["--rank-tol"],
           "gamma00-trisecant": ["--seed", "--rank-tol"],
           "span": ["--seed", "--ell", "--rank-tol"]}
REQUIRED = {"--z", "--k0", "--genus"}
VALUES = {"--z": Z_TEXT, "--tol": NUMBER_TEXT, "--seed": NUMBER_TEXT,
          "--ell": NUMBER_TEXT, "--char": st.text(max_size=8),
          "--rank-tol": NUMBER_TEXT, "--k0": K0_TEXT,
          "--genus": st.one_of(st.integers(1, 5).map(str), NUMBER_TEXT)}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(OPTIONS)))
    names = [name for name in VALUES if name in OPTIONS[command]
             and (name in REQUIRED or draw(st.booleans()))]
    if draw(st.integers(0, 9)) == 0:
        names.append(draw(st.sampled_from(sorted(VALUES))))
    return [command] + [item for name in names
                        for item in (name, draw(VALUES[name]))]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(argv=argvs())
@example(argv=["fiber", "--k0", "2P0,\u00b3", "--genus", "3"])
@example(argv=["fiber", "--k0", "400,400,400,400", "--genus", "801"])
@example(argv=["fiber", "--k0", "99999999998", "--genus", "50000000000"])
def test_exit_contract_fuzz(curve2_file, argv):
    out = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("always")
        code = run(argv if argv[0] == "fiber"
                   else argv + ["--curve", curve2_file])
    assert code in (0, 1, 2, 3)
    report = json.loads(out.getvalue(), parse_constant=_reject_non_finite)
    if code in (0, 1):
        assert report["pass"] is (code == 0)
    else:
        assert report["error"]
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
