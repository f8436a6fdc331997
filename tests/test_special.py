import ast
import math
import pathlib

import mpmath as mp
import numpy as np
import pytest

from scipy.special import betaln, gammaln, psi, zeta

mp.mp.dps = 40


def _ulp_tol(true_val, floor=1e-10):
    # near the pole |psi| ~ 1/z and a 1e-10 absolute target drops below
    # float64 ULP granularity; allow a couple of ULPs there
    return max(floor, 4.0 * np.spacing(abs(true_val)))


class TestLogGamma:
    def test_exact_values(self):
        assert gammaln(1.0) == 0.0
        assert gammaln(2.0) == pytest.approx(0.0, abs=1e-15)
        assert gammaln(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-14)

    def test_factorial_oracle(self):
        # Gamma(10) = 9!
        fact = 1
        for k in range(2, 10):
            fact *= k
        assert fact == 362880
        assert gammaln(10.0) == pytest.approx(math.log(fact), rel=1e-14)

    def test_against_mpmath_grid(self, rng):
        zs = 10.0 ** rng.uniform(-6, 8, 300)
        for z in zs:
            true = float(mp.loggamma(mp.mpf(z)))
            got = gammaln(z)
            assert got == pytest.approx(true, rel=1e-12, abs=1e-12)

    def test_log_factorials_against_mpmath(self):
        # estimators.py takes its scalar log N! and log k! from math.lgamma
        for n in (0, 1, 2, 3, 9, 10, 57, 400, 10_000, 123_456):
            true = float(mp.loggamma(n + 1))
            assert math.lgamma(n + 1) == pytest.approx(true, rel=1e-15, abs=1e-15)

    def test_vectorized(self):
        out = gammaln(np.array([0.5, 1.0, 3.5]))
        assert out.shape == (3,)
        assert out[1] == 0.0


class TestPsiFunctions:
    def test_classical_values(self):
        assert psi(1.0) == pytest.approx(-np.euler_gamma, abs=1e-14)
        # psi'(1) - psi'(3) = 1 + 1/4 by the recurrence
        assert zeta(2.0, 1.0) - zeta(2.0, 3.0) == pytest.approx(1.25, abs=1e-13)

    def test_against_mpmath_grid(self, rng):
        zs = 10.0 ** rng.uniform(-6, 8, 300)
        for z in zs:
            td = float(mp.digamma(mp.mpf(z)))
            tt = float(mp.polygamma(1, mp.mpf(z)))
            assert abs(psi(z) - td) <= _ulp_tol(td)
            assert abs(zeta(2.0, z) - tt) <= _ulp_tol(tt)

    def test_recurrences(self, rng):
        zs = 10.0 ** rng.uniform(-3, 3, 50)
        for z in zs:
            assert psi(z + 1.0) - psi(z) == pytest.approx(1.0 / z, rel=1e-9, abs=1e-9)
            n = int(rng.integers(1, 21))
            lhs = zeta(2.0, z + n) - zeta(2.0, z)
            rhs = -np.sum(1.0 / (z + np.arange(n)) ** 2)
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)

    def test_laplace_transform_positivity(self):
        # z psi'(z) - 1 and 1/z + 1 - z psi'(z) are Laplace transforms of
        # positive functions, hence nonnegative; so z^2 psi'(z) - z is in
        # [0, 1] and z psi'(z) descends to 1
        zs = np.exp(np.linspace(-6, 6, 200))
        zp = zs * zeta(2.0, zs)
        assert np.all(zp - 1.0 >= -1e-13)
        assert np.all(1.0 / zs + 1.0 - zp >= -1e-13)
        combo = zs * zp - zs
        assert np.all(combo >= -1e-12) and np.all(combo <= 1.0 + 1e-12)
        # subadditivity premise: f(z)/z descending for f(z) = z^2 psi'(z)
        assert np.all(np.diff(zp) < 1e-14)

    def test_finite_difference(self):
        # away from the pole, where the h^2 truncation term is negligible
        h = 1e-4
        for z in (0.7, 3.0, 42.0, 900.0):
            fd = (psi(z + h) - psi(z - h)) / (2 * h)
            assert fd == pytest.approx(zeta(2.0, z), rel=1e-6, abs=1e-6)


def test_log_beta_identity():
    assert betaln(2.0, 3.0) == pytest.approx(math.log(1.0 / 12.0), rel=1e-13)
    assert betaln(0.5, 0.5) == pytest.approx(math.log(math.pi), rel=1e-13)


PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "missmass"


def test_no_module_imports_the_special_layer():
    # the package calls scipy.special and math.lgamma where it uses them;
    # special.py stays a docstring, defining no name
    importers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [f"{node.module or ''}.{a.name}"
                                               for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            if any(name.split(".")[-1] == "special" and not name.startswith("scipy")
                   for name in names):
                importers.append(path.name)
    assert importers == []
    body = ast.parse((PACKAGE / "special.py").read_text()).body
    assert len(body) == 1 and isinstance(body[0], ast.Expr)
    assert isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str)
