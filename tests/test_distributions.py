import math

import mpmath
import numpy as np
import pytest
from scipy import integrate, special, stats

from missmass.distributions import (GammaDist, LawView, LogScaleDist, PointMass,
                                    _BetaAtoms, cdf_table)


def test_point_mass():
    pm = PointMass(2.5)
    assert pm.mean == 2.5
    assert pm.quantile(0.05) == pm.quantile(0.95) == 2.5
    assert pm.quantile(np.array([0.05, 0.5, 0.95])).tolist() == [2.5, 2.5, 2.5]
    with pytest.raises(ValueError):
        pm.quantile(0.0)
    with pytest.raises(ValueError):
        pm.quantile(np.array([0.5, 1.0]))


def test_gamma_against_scipy():
    g = GammaDist(shape=2.3, rate=1.7)
    assert g.mean == pytest.approx(2.3 / 1.7)
    for q in (0.05, 0.5, 0.95):
        assert g.quantile(q) == pytest.approx(
            stats.gamma.ppf(q, 2.3, scale=1 / 1.7), rel=1e-10)
    levels = np.array([0.05, 0.5, 0.95])
    assert g.quantile(levels).tolist() == [g.quantile(q) for q in levels]
    w = np.array([0.3, 1.0, 4.0])
    assert np.allclose(np.exp(g.log_pdf(w)),
                       stats.gamma.pdf(w, 2.3, scale=1 / 1.7), rtol=1e-12)


def test_beta_against_scipy():
    b = LawView(_BetaAtoms(0.8, 11.0), 1.0, "W/Z")
    assert b.mean == pytest.approx(0.8 / 11.8)
    for q in (0.05, 0.5, 0.95):
        assert b.quantile(q) == pytest.approx(stats.beta.ppf(q, 0.8, 11.0), rel=1e-10)


def test_beta_prime_is_transformed_beta():
    bp = LawView(_BetaAtoms(1.4, 9.0), 2.0)
    for q in (0.1, 0.5, 0.9):
        s = stats.beta.ppf(q, 1.4, 9.0)
        assert bp.quantile(q) == pytest.approx(2.0 * s / (1 - s), rel=1e-10)
    assert bp.mean == pytest.approx(2.0 * 1.4 / 8.0)
    assert LawView(_BetaAtoms(1.0, 0.9), 1.0).mean == math.inf
    # W = 0 is u = -inf, where the density of u is 0
    assert bp.cdf(0.0) == 0.0 and bp.cdf(math.inf) == 1.0


def test_beta_prime_pdf_normalizes():
    bp = LawView(_BetaAtoms(0.9, 7.0), 3.0)
    w = np.exp(np.linspace(-16, 6, 4001))
    total = np.trapezoid(np.exp(bp.log_pdf(w)), w)
    assert total == pytest.approx(1.0, abs=1e-4)


class TestLogScaleDist:
    """u = c + w t / sqrt(r), t Student's t with r degrees of freedom: the
    density of u is (1 + ((u - c) / w)^2)^-((r + 1) / 2), which is
    w cosh(v)^-r in v = asinh((u - c) / w), with the power-law lower tail
    (c - u)^-(r + 1) that the law carries past its first panel."""

    c, w, r, scale = -1.5, 0.7, 3.0, 2.0

    def law(self, v_lo=-16.0, v_hi=16.0, panels=10):
        edges = np.concatenate([np.linspace(v_lo, 0.0, panels + 1),
                                np.linspace(0.0, v_hi, panels + 1)[1:]])
        u = LogScaleDist.nodes(self.c, self.w, edges, 16)
        log_density = -0.5 * (self.r + 1) * np.log1p(((u - self.c) / self.w) ** 2)
        return LawView(LogScaleDist(self.c, self.w, edges, log_density, tail_rate=self.r),
                       self.scale)

    def u_exact(self, q):
        return self.c + self.w * stats.t.ppf(q, self.r) / math.sqrt(self.r)

    def test_quantiles_and_cdf_are_the_t_law(self):
        law = self.law()
        q = np.array([1e-6, 0.01, 0.05, 0.5, 0.95, 0.99, 1 - 1e-6])
        np.testing.assert_allclose(law.u_quantile(q), self.u_exact(q), rtol=1e-9)
        np.testing.assert_allclose(law.quantile(q), self.scale * np.exp(self.u_exact(q)),
                                   rtol=1e-8)
        np.testing.assert_allclose(law.cdf(law.quantile(q)), q, rtol=1e-12, atol=1e-15)
        assert law.quantile(0.5) == pytest.approx(self.scale * math.exp(self.c), rel=1e-12)

    def test_analytic_lower_tail(self):
        # panels from v = -6 leave a tail of ~1e-8, carried as e^(r v) in v,
        # which is the t tail up to a relative e^(2 v) ~ 1e-5
        law = self.law(v_lo=-6.0)
        assert law.tail_mass == pytest.approx(
            stats.t.cdf(-math.sinh(6.0) * math.sqrt(self.r), self.r), rel=1e-4)
        q = np.array([1e-12, 1e-10, 0.5 * law.tail_mass])
        np.testing.assert_allclose(law.u_quantile(q), self.u_exact(q), rtol=1e-4)
        assert law.cdf(law.quantile(q[-1])) == pytest.approx(q[-1], rel=1e-12)
        # the deeper ones lie below the float range of W
        assert np.all(law.quantile(q[:2]) == 0.0)
        assert law.u_quantile(1.0001 * law.tail_mass) > law.u_quantile(law.tail_mass)

    def test_views_of_one_law(self):
        law = self.law()
        ratio = LawView(law.law, self.scale, "W/Z")
        q = np.array([0.05, 0.5, 0.95])
        w_q = law.quantile(q)
        np.testing.assert_allclose(ratio.quantile(q), w_q / (self.scale + w_q), rtol=1e-13)
        np.testing.assert_allclose(ratio.cdf(ratio.quantile(q)), q, rtol=1e-12)

        def expect(g):
            # E g(u) under the t law, by quadrature in t
            f = lambda t: g(self.c + self.w * t / math.sqrt(self.r)) * stats.t.pdf(t, self.r)
            return integrate.quad(f, -np.inf, np.inf, epsabs=0, epsrel=1e-12, limit=200)[0]

        assert ratio.mean == pytest.approx(expect(special.expit), rel=1e-9)
        # E e^u is infinite under the t law, finite with no mass above v = 2
        t_hi = math.sinh(2.0) * math.sqrt(self.r)
        truncated = self.law(v_hi=2.0)
        mean = integrate.quad(
            lambda t: math.exp(self.c + self.w * t / math.sqrt(self.r)) * stats.t.pdf(t, self.r),
            -np.inf, t_hi, epsabs=0, epsrel=1e-12, limit=200)[0] / stats.t.cdf(t_hi, self.r)
        assert truncated.mean == pytest.approx(self.scale * mean, rel=1e-9)

    def test_density_is_the_cdf_slope(self):
        law = self.law()
        for view in (LawView(law.law, self.scale, which) for which in ("W", "Z", "W/Z")):
            lo, hi = view.quantile(0.05), view.quantile(0.95)
            mass = integrate.quad(lambda x: math.exp(view.log_pdf(x)), lo, hi,
                                  epsabs=0, epsrel=1e-12, limit=200)[0]
            assert mass == pytest.approx(0.9, rel=1e-10)


class TestCdfTable:
    def test_mixture_table_rows_are_exact(self):
        law = _BetaAtoms(np.array([0.4, 3.0, 40.0]), np.array([6.0, 9.0, 30.0]),
                         np.array([0.2, 0.5, 0.3]))
        u, cdf, density = law.table()
        assert (cdf[0], cdf[-1]) == (0.0, 1.0)
        assert np.all(np.diff(u) > 0) and np.max(np.diff(cdf)) <= 1.0 / 8.0
        s = special.expit(u)
        np.testing.assert_allclose(
            cdf, special.betainc(law.a, law.b, s[:, None]) @ law.weights, rtol=0, atol=1e-15)
        # dF/du = the Beta density of s times ds/du = s (1 - s), inside the
        # end rows, where s is exactly 0 and 1 (scipy's pdf loses relative
        # precision far out, where 1 - s is rounded)
        s = s[1:-1, None]
        pdf = stats.beta.pdf(s, law.a, law.b) * s * (1 - s) @ law.weights
        np.testing.assert_allclose(density[1:-1], pdf, rtol=0, atol=1e-13 * np.max(pdf))

    @pytest.mark.parametrize("law", [LawView(_BetaAtoms(2.5, 7.0), 3.0),
                                     TestLogScaleDist().law()], ids=["atom", "panels"])
    def test_rows_between_levels(self, law):
        u, cdf, _ = cdf_table(law.law, 1.0 / 200.0, (1e-4, 1.0 - 1e-4))
        assert cdf[0] == pytest.approx(1e-4, abs=1e-12)
        assert cdf[-1] == pytest.approx(1.0 - 1e-4, abs=1e-12)
        assert np.max(np.diff(cdf)) <= 1.0 / 200.0
        np.testing.assert_allclose(law.cdf(law.scale * np.exp(u)), cdf, rtol=0, atol=1e-14)


@pytest.mark.parametrize("a, b", [(2e4, 3e4), (1.9e4, 150.0), (2.2e4, 22_040.0), (5e3, 8e3)])
def test_beta_log_pdf_against_mpmath(a, b):
    # the W and W/Z densities at large a, where the plain
    # a log s + b log(1 - s) sum loses ~1e-10 to cancellation
    scale = 2.5
    w_view, s_view = LawView(_BetaAtoms(a, b), scale), LawView(_BetaAtoms(a, b), scale, "W/Z")
    with mpmath.workdps(50):
        log_b = mpmath.log(mpmath.beta(a, b))
        for q in (0.05, 0.5, 0.95):
            w = w_view.quantile(q)
            t = mpmath.mpf(w) / scale
            exact = (a - 1) * mpmath.log(t) - (a + b) * mpmath.log1p(t) - log_b - mpmath.log(scale)
            assert abs(w_view.log_pdf(w) - float(exact)) < 5e-13
            s = mpmath.mpf(s_view.quantile(q))
            exact = (a - 1) * mpmath.log(s) + (b - 1) * mpmath.log1p(-s) - log_b
            assert abs(s_view.log_pdf(float(s)) - float(exact)) < 5e-13
