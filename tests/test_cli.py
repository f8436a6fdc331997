import json
import math
import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import FIXTURES, fixture_path
from missmass.cli import main, render_json

ALL_FIXTURES = sorted(f.name for f in FIXTURES.glob("*.json"))


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEstimate:
    def test_good_turing_fixture(self, capsys):
        code, out, _ = run_cli(capsys, "estimate", "--in",
                               fixture_path("gt_example.json"), "--method", "gt")
        assert code == 0
        payload = json.loads(out)
        assert payload["W_over_Z"] == pytest.approx(0.4)
        assert payload["Z"] == pytest.approx(50.0 / 3.0)

    def test_singleton_fixture_serializes_inf(self, capsys):
        code, out, _ = run_cli(capsys, "estimate", "--in",
                               fixture_path("all_singletons.json"),
                               "--method", "ipw-poisson")
        assert code == 0
        payload = json.loads(out)
        assert payload["Z"] == "inf" and payload["W"] == "inf"
        assert payload["diagnostics"]["reason"]

    @pytest.mark.parametrize("method", ["ipw-fixed", "ipw-poisson", "rb-exact",
                                        "rb-poisson", "gt", "gt-rb", "gtoulmin"])
    def test_every_method_runs(self, capsys, method):
        code, out, _ = run_cli(capsys, "estimate", "--in",
                               fixture_path("regular_small.json"),
                               "--method", method)
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == method

    @pytest.mark.parametrize("method", ["ipw-poisson", "rb-poisson", "hm"])
    def test_solver_work_reported(self, capsys, tmp_path, method):
        # bracket doubling, root find and residual check; the bisecting
        # root finder this replaced spent about 35 evaluations per root
        path = fixture_path("regular_large.json")
        anchor = []
        if method == "hm":
            # the harmonic anchor h = x over the domain, so H = 1
            h = tmp_path / "h.json"
            h.write_text(json.dumps({"h": json.loads(pathlib.Path(path).read_text())["x"]}))
            anchor = ["--h-file", str(h), "--H", "1"]
        code, out, _ = run_cli(capsys, "estimate", "--in", path, "--method", method, *anchor)
        assert code == 0
        diag = json.loads(out)["diagnostics"]
        assert 0 < diag["evals"] <= 20
        assert diag["iterations"] >= 1 and "residual" in diag and "reason" not in diag

    def test_rb_exact_large_sample(self, capsys, tmp_path):
        rng = np.random.default_rng(3)
        d, m = 400, 150
        p = rng.lognormal(0.0, 1.0, m)
        counts = 1 + rng.multinomial(2000 - m, p / p.sum())
        data = {"domain_size": d, "x": [1.0 / d] * d,
                "entries": [{"i": i, "p": float(pi), "c": int(c)}
                            for i, (pi, c) in enumerate(zip(p, counts))]}
        path = tmp_path / "large.json"
        path.write_text(json.dumps(data))
        code, out, _ = run_cli(capsys, "estimate", "--in", str(path),
                               "--method", "rb-exact")
        assert code == 0
        payload = json.loads(out)
        assert math.isfinite(payload["Z"]) and payload["W"] > 0
        assert payload["Z"] == pytest.approx(p.sum() + payload["W"], rel=1e-12)

    def test_rb_poisson_fixed_n_single_point(self, capsys):
        # one sampled point has weight v = N exactly, so the equation is
        # met exactly at Z = V and the regular branch returns it
        code, out, _ = run_cli(capsys, "estimate", "--in",
                               fixture_path("single_point.json"),
                               "--method", "rb-poisson", "--pi", "fixed-n")
        assert code == 0
        payload = json.loads(out)
        assert payload["Z"] == 2 and payload["W"] == 0
        assert "reason" not in payload["diagnostics"]

    def test_harmonic_mean_needs_anchor(self, capsys):
        code, _, err = run_cli(capsys, "estimate", "--in",
                               fixture_path("regular_small.json"), "--method", "hm")
        assert code == 1 and "h-file" in err

    def test_harmonic_mean_with_anchor(self, capsys, tmp_path):
        h = tmp_path / "h.json"
        h.write_text(json.dumps({"h": [0.2] * 6}))
        code, out, _ = run_cli(capsys, "estimate", "--in",
                               fixture_path("regular_small.json"), "--method", "hm",
                               "--h-file", str(h), "--H", "1.2")
        assert code == 0
        assert json.loads(out)["method"] == "hm"


class TestInfer:
    def test_mixed_singular_fixture(self, capsys):
        code, out, _ = run_cli(capsys, "infer", "--in",
                               fixture_path("delta_s_zero.json"),
                               "--method", "mixed")
        assert code == 0
        payload = json.loads(out)
        assert payload["singular_case"] == "DeltaS_zero"
        assert payload["alpha"] == "inf"
        qs = payload["quantiles"]
        assert qs["5"] == qs["95"] == pytest.approx(1.2)

    def test_full_coverage_fixture(self, capsys):
        code, out, _ = run_cli(capsys, "infer", "--in",
                               fixture_path("full_coverage.json"),
                               "--method", "mixed")
        payload = json.loads(out)
        assert payload["singular_case"] == "Y_zero"
        assert payload["mean_W"] == 0

    def test_csv_output(self, capsys, tmp_path):
        csv = tmp_path / "post.csv"
        code, out, _ = run_cli(capsys, "infer", "--in",
                               fixture_path("regular_small.json"),
                               "--method", "mixed", "--out-csv", str(csv))
        assert code == 0
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "W,density,cumulative"
        rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        assert np.all(np.diff(rows[:, 0]) > 0)
        assert np.all(np.diff(rows[:, 2]) >= 0)

    def test_moment_match_strategy(self, capsys):
        code, out, _ = run_cli(capsys, "infer", "--in",
                               fixture_path("regular_large.json"),
                               "--method", "moment-match", "--strategy", "C")
        assert code == 0
        payload = json.loads(out)
        assert payload["strategy"] == "C"
        assert payload["status"] == "ok"

    @pytest.mark.parametrize("fixture, method, status", [
        ("regular_large.json", "moment-match", "ok"),
        ("delta_s_zero.json", "moment-match", "no-root"),
        ("regular_small.json", "mle", "ok")])
    def test_moment_output_keeps_diagnostics(self, capsys, fixture, method, status):
        code, out, _ = run_cli(capsys, "infer", "--in", fixture_path(fixture),
                               "--method", method, "--strategy", "C")
        assert code == 0
        payload = json.loads(out)
        diag = payload["diagnostics"]
        assert payload["status"] == diag["status"] == status
        if method == "mle":
            assert math.isfinite(diag["log_l11"]) and diag["n_local_maxima"] >= 1
            return
        assert diag["lambda"] > 0 and diag["evals"] > 0
        if status == "ok":
            assert diag["alpha_roots"] == [pytest.approx(payload["params"]["alpha"])]
        else:
            assert diag["alpha_roots"] == [] and "sign" in diag["reason"]

    def test_profile_runs(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "infer", "--in",
                               fixture_path("regular_small.json"),
                               "--method", "profile", "--grid-points", "101")
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "profile"
        assert payload["quantiles"]["50"] > 0

    def test_bayes_runs(self, capsys):
        code, out, _ = run_cli(capsys, "infer", "--in",
                               fixture_path("regular_small.json"),
                               "--method", "bayes", "--grid-points", "51")
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "bayes"
        # --grid-points sizes the profile grid only; the Bayes law has no
        # grid, and its mass check lands far inside this bound
        assert payload["diagnostics"]["mass_check"] == pytest.approx(1.0, abs=0.05)

    def test_bayes_csv_output(self, capsys, tmp_path):
        csv = tmp_path / "bayes.csv"
        code, _, _ = run_cli(capsys, "infer", "--in",
                             fixture_path("gt_example.json"),
                             "--method", "bayes", "--out-csv", str(csv))
        assert code == 0
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "W,density,cumulative"
        rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        assert len(rows) > 100
        assert np.all(np.diff(rows[:, 0]) > 0)
        assert np.all(np.diff(rows[:, 2]) >= 0)
        assert np.all(rows[:, 1] > 0)


class TestVerifyCommand:
    def test_failing_check_names_its_exception(self, capsys, monkeypatch):
        from missmass import verify

        def boom(*args):
            raise RuntimeError("boom")

        for name in dir(verify):
            if name.startswith("check_"):
                monkeypatch.setattr(verify, name, lambda *args: True)
        monkeypatch.setattr(verify, "check_singular_cases", boom)
        results = verify.run_verification()
        assert ("singular cases", False, "RuntimeError: boom") in results
        assert all(passed for name, passed, _ in results if name != "singular cases")
        code, out, _ = run_cli(capsys, "verify")
        assert code == 1
        line = next(ln for ln in out.splitlines() if ln.startswith("singular cases"))
        assert "FAIL" in line and "RuntimeError: boom" in line
        assert out.rstrip().endswith("FAIL")


class TestSimulateCommand:
    def test_deterministic_output(self, capsys):
        argv = ("simulate", "--model", "gamma-poisson", "--alpha", "2.0",
                "--b", "1.0", "--lambda", "5.0", "--domain-size", "12",
                "--seed", "7")
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2
        payload = json.loads(out1)
        assert len(payload["x"]) == 12 and len(payload["p"]) == 12

    def test_explicit_from_dataset(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--model", "explicit",
                               "--in", fixture_path("dataset_model_draw.json"),
                               "--n", "30", "--seed", "3")
        assert code == 0
        assert sum(json.loads(out)["c"]) == 30

    def test_toy_physics(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--model", "toy-physics",
                               "--n-states", "64", "--temps", "2.0,0.5",
                               "--seed", "5", "--n", "50")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["p"]) == 64 and sum(payload["c"]) == 50


class TestErrorHandling:
    def test_malformed_json_exit_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(capsys, "estimate", "--in", str(bad), "--method", "gt")
        assert code == 1
        assert "line" in err and "column" in err

    def test_unknown_flag_exit_two(self, capsys):
        code, _, _ = run_cli(capsys, "estimate", "--in", "x.json",
                             "--method", "gt", "--frobnicate")
        assert code == 2

    def test_unknown_method_exit_two(self, capsys):
        code, _, _ = run_cli(capsys, "estimate", "--in", "x.json",
                             "--method", "nope")
        assert code == 2

    def test_missing_file_exit_one(self, capsys):
        code, _, err = run_cli(capsys, "estimate", "--in", "/nonexistent.json",
                               "--method", "gt")
        assert code == 1


class TestRoundTrip:
    def test_pipeline_on_every_fixture(self, capsys, tmp_path):
        # simulate -> estimate -> infer end to end under a minute
        start = time.perf_counter()
        ds_path = tmp_path / "sim.json"
        code, out, _ = run_cli(capsys, "simulate", "--domain-size", "20",
                               "--seed", "1", "--out", str(ds_path))
        assert code == 0
        for name in ALL_FIXTURES:
            code, out, _ = run_cli(capsys, "estimate", "--in",
                                   fixture_path(name), "--method", "gt")
            assert code == 0
            code, out, _ = run_cli(capsys, "infer", "--in", fixture_path(name),
                                   "--method", "mixed")
            assert code == 0
        assert time.perf_counter() - start < 60.0


class TestRenderJson:
    def test_seventeen_digit_roundtrip(self):
        vals = [math.pi, 1.0 / 3.0, 1e-300, 6.02e23]
        text = render_json({"v": vals})
        back = json.loads(text)["v"]
        assert back == vals

    def test_infinities_as_strings(self):
        assert json.loads(render_json({"z": math.inf}))["z"] == "inf"
        assert json.loads(render_json({"z": -math.inf}))["z"] == "-inf"
        assert json.loads(render_json({"z": math.nan}))["z"] == "nan"

    def test_nested_structures(self):
        obj = {"a": [1, 2.5], "b": {"c": True, "d": None}}
        assert json.loads(render_json(obj)) == obj


def test_import_leaves_heavy_scipy_modules_unloaded():
    # scipy.optimize, .integrate and .stats each take a large share of the
    # CLI's start-up time; the package imports them lazily where needed
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    probe = ("import sys, missmass.cli; print(sorted(m for m in ("
             "'scipy.optimize', 'scipy.integrate', 'scipy.stats') "
             "if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
