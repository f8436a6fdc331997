import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from conftest import FIXTURES, fixture_path, random_observation
from missmass.cli import ESTIMATES, METHOD_OPTIONS, build_parser, main, render_json
from missmass.data import Observation, load_observation, summarize
from missmass.estimators import harmonic_mean, rb_exact, rb_poisson_weights
from missmass.inference import infer_mixed, infer_profile

ALL_FIXTURES = sorted(f.name for f in FIXTURES.glob("*.json"))


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEstimate:
    @pytest.mark.parametrize("method", ["ipw-fixed", "ipw-poisson", "rb-exact",
                                        "rb-poisson", "gt", "gt-rb", "gtoulmin", "hm"])
    def test_empty_sample_fails_with_a_reason(self, method, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"domain_size": 2, "x": [0.5, 0.5], "entries": []}))
        h_file = tmp_path / "h.json"
        h_file.write_text("[0.5, 0.5]")
        anchor = ["--h-file", str(h_file), "--H", "1"] if method == "hm" else []
        code, out, err = run_cli(capsys, "estimate", "--in", str(path), "--method", method,
                                 *anchor)
        assert (code, out, err) == (1, "", "error: no observations\n")

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
        # Newton steps in the rate and the residual check; the bisecting
        # root finder of an earlier design spent about 35 evaluations per root.
        # rb-poisson starts at its root, the rate its saddle-point weights
        # were tilted at, and may take no step
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
        assert diag["iterations"] >= (method != "rb-poisson")
        assert "residual" in diag and "reason" not in diag

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

    @pytest.mark.parametrize("h, big_h, message", [
        ([0.2] * 5, "1", "--h-file needs 6 numbers"),
        (None, "1", "--h-file needs 6 numbers"),
        ([0.2] * 6, "nan", "the anchor needs h and a finite H > 0, got H = nan"),
        ([0.2] * 6, "inf", "the anchor needs h and a finite H > 0, got H = inf"),
        ([math.nan] * 6, "1", "h must be finite and nonnegative"),
        ([math.inf] * 6, "1", "h must be finite and nonnegative"),
        ({"h": {"a": 1}}, "1", "--h-file needs 6 numbers"),
        ({"h": ["a"] * 6}, "1", "--h-file needs 6 numbers"),
    ], ids=["h-short", "h-key-missing", "H-nan", "H-inf", "h-nan", "h-inf", "h-object",
            "h-strings"])
    def test_harmonic_mean_rejects_a_bad_anchor(self, h, big_h, message, capsys, tmp_path):
        # regular_small has 6 domain points; h = None passes the fixture
        # itself, a JSON object without "h", as the h-file
        path = fixture_path("regular_small.json")
        h_file = tmp_path / "h.json"
        h_file.write_text(json.dumps(h) if h is not None else pathlib.Path(path).read_text())
        code, out, err = run_cli(capsys, "estimate", "--in", path, "--method", "hm",
                                 "--h-file", str(h_file), "--H", big_h)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {message}") and err.count("\n") == 1


    @pytest.mark.parametrize("flag, value", [
        ("--pi", "fixed-n"), ("--variant", "M_over_Z"), ("--h-file", None),
        ("--H", "1.2"), ("--hm-mode", "classic")])
    def test_an_option_the_method_ignores_is_refused(self, flag, value, capsys, tmp_path):
        h_file = tmp_path / "h.json"
        h_file.write_text(json.dumps([0.2] * 6))
        anchor = {"--h-file": str(h_file), "--H": "1.2"}
        value = value or anchor[flag]
        readers = METHOD_OPTIONS["estimate"][flag][2]
        for method in ESTIMATES:
            argv = ["estimate", "--in", fixture_path("regular_small.json"),
                    "--method", method, flag, value]
            if method in readers:
                if method == "hm":
                    argv += [item for pair in anchor.items() if pair[0] != flag
                             for item in pair]
                code, out, err = run_cli(capsys, *argv)
                assert (code, err) == (0, ""), (method, err)
                continue
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, "")
            assert err == (f"error: {flag} is read only by --method {', '.join(readers)}, "
                           f"not by {method}\n")


    @pytest.mark.parametrize("fixture", ["gt_example", "all_singletons"])
    @pytest.mark.parametrize("pi, weights", [("fixed-n", rb_exact),
                                             (None, rb_poisson_weights)])
    def test_rb_linear_harmonic_mean(self, fixture, pi, weights, capsys, tmp_path):
        # h = x, H = 1; the weights follow --pi, and on an all-singleton
        # sample they are the counts, so the form is the classic one
        path = fixture_path(f"{fixture}.json")
        obs = load_observation(path)
        h_file = tmp_path / "h.json"
        h_file.write_text(json.dumps(obs.x.tolist()))
        argv = ["estimate", "--in", path, "--method", "hm", "--h-file", str(h_file),
                "--H", "1", "--hm-mode", "rb_linear"] + (["--pi", pi] if pi else [])
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        h = {int(i): float(obs.x[i]) for i in obs.indices}
        want = harmonic_mean(obs, h, 1.0, "rb_linear", weights(obs))
        assert json.loads(out)["Z"] == float(format(want.value, ".17g"))
        if fixture == "all_singletons":
            assert want.value == harmonic_mean(obs, h, 1.0, "classic").value

    @pytest.mark.parametrize("mode", ["classic", "rb_linear", "ipw_nonlinear"])
    def test_z_below_v_says_so(self, mode, capsys, tmp_path):
        # h = x, H = 1 on full coverage (V = 4.3): the ratio forms put Z
        # between 0 and V and mark it; the boundary Z = 0 of ipw_nonlinear
        # keeps its reason alone
        path = fixture_path("full_coverage.json")
        h_file = tmp_path / "h.json"
        h_file.write_text(json.dumps(load_observation(path).x.tolist()))
        code, out, _ = run_cli(capsys, "estimate", "--in", path, "--method", "hm",
                               "--h-file", str(h_file), "--H", "1", "--hm-mode", mode)
        payload = json.loads(out)
        diag = payload["diagnostics"]
        assert code == 0
        if mode == "ipw_nonlinear":
            assert payload["Z"] == 0 and "reason" in diag and "below_v" not in diag
        else:
            assert 0 < payload["Z"] < 4.3 and payload["W"] < 0
            assert diag["below_v"] is True and "reason" not in diag


@pytest.mark.parametrize("method", list(ESTIMATES))
def test_every_estimate_is_equivariant_and_states_its_singular_case(method, rng, tmp_path):
    """Each entry of the estimate table (hm with h = x, H = 1): p -> k p
    scales Z and W by k and keeps W/Z; on an all-singleton sample every
    method but the anchored harmonic mean gives Z = W = inf and W/Z = 1
    with a reason."""
    def estimate(obs):
        h_file = tmp_path / "h.json"
        h_file.write_text(json.dumps(obs.x.tolist()))
        args = build_parser().parse_args(["estimate", "--in", "-", "--method", method,
                                          "--h-file", str(h_file), "--H", "1"])
        return ESTIMATES[method](obs, args)

    for _ in range(10):
        obs = random_observation(rng, extra_counts=int(rng.integers(1, 8)))
        k = 10.0 ** rng.uniform(-3.0, 3.0)
        scaled = Observation(domain_size=obs.domain_size, x=obs.x, indices=obs.indices,
                             p_obs=k * obs.p_obs, counts=obs.counts)
        base, res = estimate(obs), estimate(scaled)
        assert res.is_finite and "reason" not in res.diagnostics
        assert res.value == pytest.approx(k * base.value, rel=1e-9)
        assert res.w == pytest.approx(k * base.w, rel=1e-9)
        assert res.w_over_z == pytest.approx(base.w_over_z, rel=1e-9)
    res = estimate(random_observation(rng, extra_counts=0))
    if method == "hm":
        assert res.is_finite
    else:
        assert (res.value, res.w, res.w_over_z) == (math.inf, math.inf, 1.0)
        assert res.diagnostics["reason"] == "all sampled points are singletons"


@hs.composite
def spread_rescalings(draw):
    """(observation, k): M = 1..12 points with k = 10^U(-100, 100) and
    masses p spanning 1e-300..1e300, drawn so that k p stays in that range."""
    m = draw(hs.integers(1, 12))
    d = m + draw(hs.integers(0, 5))
    log10_k = draw(hs.floats(-100.0, 100.0))
    lo, hi = -300.0 + max(0.0, -log10_k), 300.0 - max(0.0, log10_k)
    u = np.array(draw(hs.lists(hs.floats(0.0, 1.0), min_size=m, max_size=m)))
    counts = draw(hs.lists(hs.integers(1, 4), min_size=m, max_size=m))
    obs = Observation(domain_size=d, x=np.full(d, 1.0 / d), indices=np.arange(m),
                      p_obs=10.0 ** (lo + u * (hi - lo)), counts=counts)
    return obs, 10.0 ** log10_k


@pytest.mark.parametrize("method", list(ESTIMATES))
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(draw=spread_rescalings())
def test_every_estimate_is_equivariant_across_the_float_range(method, draw):
    """p -> k p scales Z by k and keeps every verdict, for each entry of the
    estimate table (hm with h = x, H = 1).  The roots hold Z to 1e-10
    relative, so W = Z - V and W/Z are compared on the scale of Z."""
    obs, k = draw
    scaled = Observation(domain_size=obs.domain_size, x=obs.x, indices=obs.indices,
                         p_obs=k * obs.p_obs, counts=obs.counts)
    with tempfile.TemporaryDirectory() as tmp:
        h_file = pathlib.Path(tmp) / "h.json"
        h_file.write_text(json.dumps(obs.x.tolist()))
        args = build_parser().parse_args(["estimate", "--in", "-", "--method", method,
                                          "--h-file", str(h_file), "--H", "1"])
        base, res = ESTIMATES[method](obs, args), ESTIMATES[method](scaled, args)
    assert res.diagnostics.get("reason") == base.diagnostics.get("reason")
    if not base.is_finite or base.value == 0.0:
        assert res.value == base.value
        assert res.w == pytest.approx(k * base.w, rel=1e-12)
        assert res.w_over_z == pytest.approx(base.w_over_z, nan_ok=True)
        return
    assert res.value == pytest.approx(k * base.value, rel=1e-9)
    assert res.w == pytest.approx(k * base.w, rel=0.0, abs=1e-9 * res.value)
    assert res.w_over_z == pytest.approx(base.w_over_z, rel=0.0, abs=1e-9)


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

    @pytest.mark.parametrize("base", ["L5", "L9"])
    def test_mixed_at_alpha_infinity(self, base, capsys, tmp_path):
        # p = 2 x exp(0, +1e-9, -1e-9): a spread above the proportionality
        # tolerance whose alpha-hat is infinite; the law is the limit point
        # mass W = Y V / X = 0.8, with no NaN anywhere
        x = [0.2, 0.3, 0.1, 0.4]
        p = [2.0 * xi * math.exp(e) for xi, e in zip(x, (0.0, 1e-9, -1e-9))]
        path = tmp_path / "near.json"
        path.write_text(json.dumps({"domain_size": 4, "x": x, "entries": [
            {"i": i, "p": p[i], "c": c} for i, c in enumerate((2, 1, 3))]}))
        code, out, _ = run_cli(capsys, "infer", "--in", str(path),
                               "--method", "mixed", "--base", base)
        assert code == 0 and "nan" not in out
        payload = json.loads(out)
        assert payload["singular_case"] == "alpha_infinite"
        assert payload["alpha"] == "inf"
        assert payload["diagnostics"]["reason"] == "maximum at alpha -> infinity"
        assert payload["mean_W"] == pytest.approx(0.8, rel=1e-8)
        assert payload["mean_W_over_Z"] == pytest.approx(0.4, rel=1e-8)
        assert set(payload["quantiles"].values()) == {payload["mean_W"]}

    def test_full_coverage_fixture(self, capsys):
        code, out, _ = run_cli(capsys, "infer", "--in",
                               fixture_path("full_coverage.json"),
                               "--method", "mixed")
        payload = json.loads(out)
        assert payload["singular_case"] == "Y_zero"
        assert payload["mean_W"] == 0

    def test_csv_output(self, capsys, tmp_path):
        csv = tmp_path / "post.csv"
        path = fixture_path("regular_small.json")
        code, out, _ = run_cli(capsys, "infer", "--in", path,
                               "--method", "mixed", "--out-csv", str(csv))
        assert code == 0
        obs = load_observation(path)
        check_table_rows(csv, infer_mixed(obs, summarize(obs)).w_dist)

    @pytest.mark.parametrize("method", ["bayes", "profile", "mixed"])
    @pytest.mark.parametrize("fixture", ["full_coverage.json", "delta_s_zero.json"])
    def test_csv_of_a_singular_fixture_is_its_point_mass(self, method, fixture, capsys,
                                                         tmp_path):
        csv = tmp_path / "post.csv"
        path = fixture_path(fixture)
        code, _, err = run_cli(capsys, "infer", "--in", path, "--method", method,
                               "--out-csv", str(csv))
        assert (code, err) == (0, "")
        obs = load_observation(path)
        w = infer_mixed(obs, summarize(obs)).w_dist.value
        assert csv.read_text() == f"W,density,cumulative\n{w:.17g},inf,1\n"

    @pytest.mark.parametrize("flag, value", [
        ("--base", "L9"), ("--strategy", "A"), ("--out-csv", "post.csv")])
    def test_an_option_the_method_ignores_is_refused(self, flag, value, capsys, tmp_path):
        readers = METHOD_OPTIONS["infer"][flag][2]
        for method in ("bayes", "profile", "mixed", "mle", "moment-match"):
            target = tmp_path / f"{method}.csv"
            argv = ["infer", "--in", fixture_path("regular_small.json"), "--method", method,
                    flag, str(target) if flag == "--out-csv" else value]
            code, out, err = run_cli(capsys, *argv)
            if method in readers:
                assert (code, err) == (0, ""), (method, err)
                continue
            assert (code, out) == (2, "")
            assert err == (f"error: {flag} is read only by --method {', '.join(readers)}, "
                           f"not by {method}\n")
            assert not target.exists()

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
        strategy = ["--strategy", "C"] if method == "moment-match" else []
        code, out, _ = run_cli(capsys, "infer", "--in", fixture_path(fixture),
                               "--method", method, *strategy)
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
                               "--method", "profile")
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "profile"
        assert payload["quantiles"]["50"] > 0

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


    def test_profile_csv_output(self, capsys, tmp_path):
        csv = tmp_path / "profile.csv"
        path = fixture_path("gt_example.json")
        code, _, _ = run_cli(capsys, "infer", "--in", path, "--method", "profile",
                             "--out-csv", str(csv))
        assert code == 0
        obs = load_observation(path)
        check_table_rows(csv, infer_profile(obs, summarize(obs)).w_dist)


def check_table_rows(csv, law):
    """Rows of the law's CDF table between its 1e-4 and 1 - 1e-4 quantiles:
    rising, in CDF steps of at most 1/200, each cumulative value the law's
    CDF at the row's W."""
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "W,density,cumulative"
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert len(rows) >= 200
    assert np.all(np.diff(rows[:, 0]) > 0)
    assert np.all(np.diff(rows[:, 2]) > 0)
    assert np.max(np.diff(rows[:, 2])) <= 1.0 / 200.0
    assert rows[0, 2] == pytest.approx(1e-4, abs=1e-12)
    assert rows[-1, 2] == pytest.approx(1.0 - 1e-4, abs=1e-12)
    assert np.all(rows[:, 1] > 0)
    np.testing.assert_allclose(law.cdf(rows[:, 0]), rows[:, 2], rtol=0.0, atol=1e-15)


class TestVerifyCommand:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_seeded_rows_follow_the_seed(self, monkeypatch, seed):
        # the four seeded rows run at --seed plus the seeds they were
        # written with, so --seed 0 keeps their draws
        from missmass import verify

        seen = {}

        def recorder(name, result):
            def record(*args):
                seen[name] = args
                return result
            return record

        seeded = ("check_generative_equivalence", "check_expectations")
        for name in dir(verify):
            if name.startswith("check_") and name not in seeded:
                monkeypatch.setattr(verify, name, lambda *args: True)
        monkeypatch.setattr(verify, "generative_order_p_value", recorder("generative", 1.0))
        monkeypatch.setattr(verify, "expectation_misses", recorder("expectations", []))
        monkeypatch.setattr(verify, "check_coverage_oracle", recorder("coverage", True))
        monkeypatch.setattr(verify, "check_toy_physics", recorder("toy", True))
        results = verify.run_verification(seed=seed)
        assert all(passed for _, passed, _ in results)
        assert seen["generative"][0] == 137 + seed
        assert seen["expectations"][0] == 23 + seed
        # the coverage draws are seeded 1 + seed, 2 + seed, ...
        assert seen["coverage"][0] == 1 + seed
        assert seen["toy"][0] == 1000 + seed

    def test_repeat_call_prints_identical_output(self, capsys):
        # no timing and no state carried over from the first call may reach
        # the table
        code1, out1, _ = run_cli(capsys, "verify")
        code2, out2, _ = run_cli(capsys, "verify")
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.rstrip().endswith("PASS")

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


def test_import_leaves_the_oracles_unloaded():
    # the oracles and their quadrature live in missmass.verify, which only
    # the verify subcommand imports
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    probe = ("import sys, missmass; a = 'missmass.verify' in sys.modules; "
             "import missmass.cli; print(a, 'missmass.verify' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False False"
