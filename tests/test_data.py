import json
import math

import numpy as np
import pytest

from conftest import fixture_path, proportional_observation, random_observation
from missmass.data import Dataset, Observation, load_observation, summarize
from missmass.verify import kl_delta


class TestDatasetValidation:
    def test_basic_roundtrip(self):
        ds = Dataset(x=[0.5, 0.5], p=[1.0, 2.0], c=[0, 3])
        assert ds.z == 3.0
        again = Dataset.from_json(ds.to_json())
        assert np.allclose(again.p, ds.p)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(x=[1.0], p=[1.0, 2.0], c=[1, 1])

    def test_x_sum(self):
        with pytest.raises(ValueError):
            Dataset(x=[0.5, 0.6], p=[1.0, 1.0], c=[1, 1])

    def test_zero_chain(self):
        with pytest.raises(ValueError):
            Dataset(x=[0.0, 1.0], p=[0.5, 1.0], c=[1, 1])
        with pytest.raises(ValueError):
            Dataset(x=[0.5, 0.5], p=[0.0, 1.0], c=[1, 1])

    def test_observe(self):
        ds = Dataset(x=[0.25, 0.25, 0.5], p=[1.0, 2.0, 3.0], c=[0, 2, 1])
        obs = ds.observe()
        assert list(obs.indices) == [1, 2]
        assert obs.v == 5.0


class TestObservationValidation:
    def test_duplicate_indices(self):
        with pytest.raises(ValueError):
            Observation(domain_size=3, x=np.full(3, 1 / 3),
                        indices=np.array([0, 0]), p_obs=np.array([1.0, 1.0]),
                        counts=np.array([1, 1]))

    def test_count_below_one(self):
        with pytest.raises(ValueError):
            Observation(domain_size=3, x=np.full(3, 1 / 3),
                        indices=np.array([0]), p_obs=np.array([1.0]),
                        counts=np.array([0]))

    def test_nonpositive_mass(self):
        with pytest.raises(ValueError):
            Observation(domain_size=3, x=np.full(3, 1 / 3),
                        indices=np.array([0]), p_obs=np.array([0.0]),
                        counts=np.array([1]))

    def test_index_range(self):
        with pytest.raises(ValueError):
            Observation(domain_size=2, x=np.array([0.5, 0.5]),
                        indices=np.array([2]), p_obs=np.array([1.0]),
                        counts=np.array([1]))

    def test_entries_roundtrip(self):
        obs = Observation.from_entries(4, [0.25] * 4, [(1, 2.0, 3), (3, 0.5, 1)])
        assert obs.entries == [(1, 2.0, 3), (3, 0.5, 1)]
        again = Observation.from_json(obs.to_json())
        assert again.entries == obs.entries

    def test_load_fixture(self):
        obs = load_observation(fixture_path("single_point.json"))
        assert obs.m == 1 and obs.n == 3
        # a dataset file loads as its observation
        obs2 = load_observation(fixture_path("dataset_model_draw.json"))
        assert obs2.m >= 1


def test_a_dataset_file_without_entries_is_observed(tmp_path):
    # load_observation reads a file with only x, p and c as the dataset it
    # is, keeping the points with c >= 1
    ds = Dataset(x=[0.5, 0.3, 0.2], p=[1.0, 0.4, 2.0], c=[2, 0, 1])
    path = tmp_path / "dataset.json"
    path.write_text(json.dumps({"x": ds.x.tolist(), "p": ds.p.tolist(), "c": ds.c.tolist()}))
    obs = load_observation(str(path))
    assert obs.domain_size == 3 and obs.x.tolist() == [0.5, 0.3, 0.2]
    assert obs.entries == ds.observe().entries == [(0, 1.0, 2), (2, 2.0, 1)]


class TestSummarize:
    def test_single_entry(self):
        obs = Observation(domain_size=2, x=np.array([0.5, 0.5]),
                          indices=np.array([0]), p_obs=np.array([2.0]),
                          counts=np.array([3]))
        st = summarize(obs)
        assert st.M == 1 and st.N == 3 and st.V == 2.0
        assert st.X == 0.5 and st.Y == 0.5
        assert st.phi == {3: 1}

    def test_proportional_has_zero_delta(self, rng):
        for _ in range(10):
            st = summarize(proportional_observation(rng, scale=float(rng.uniform(0.1, 9))))
            assert st.delta_S == 0.0
            assert st.is_proportional

    def test_whole_domain_uniform(self):
        obs = Observation(domain_size=3, x=np.full(3, 1 / 3),
                          indices=np.arange(3), p_obs=np.array([1.0, 2.0, 3.0]),
                          counts=np.array([1, 1, 2]))
        st = summarize(obs)
        assert st.U == pytest.approx((math.log(1) + math.log(2) + math.log(3)) / 3, rel=1e-14)
        assert st.V == 6.0 and st.X == pytest.approx(1.0) and st.Y == 0.0

    def test_empty_observation_errors(self):
        obs = Observation(domain_size=2, x=np.array([0.5, 0.5]),
                          indices=np.array([], dtype=int),
                          p_obs=np.array([]), counts=np.array([], dtype=int))
        with pytest.raises(ValueError, match="no observations"):
            summarize(obs)

    def test_permutation_invariance(self, rng):
        obs = random_observation(rng, d=12, m=5)
        perm = rng.permutation(5)
        shuffled = Observation(domain_size=12, x=obs.x,
                               indices=obs.indices[perm],
                               p_obs=obs.p_obs[perm], counts=obs.counts[perm])
        a, b = summarize(obs), summarize(shuffled)
        for field in ("M", "N", "V", "U", "T", "X", "Y", "delta_S"):
            assert getattr(a, field) == pytest.approx(getattr(b, field), rel=1e-14)
        assert a.phi == b.phi

    def test_scaling_property(self, rng):
        for _ in range(10):
            obs = random_observation(rng)
            s = float(rng.uniform(0.2, 8.0))
            scaled = Observation(domain_size=obs.domain_size, x=obs.x,
                                 indices=obs.indices, p_obs=s * obs.p_obs,
                                 counts=obs.counts)
            a, b = summarize(obs), summarize(scaled)
            assert b.U == pytest.approx(a.U + a.X * math.log(s), rel=1e-12, abs=1e-12)
            assert b.V == pytest.approx(s * a.V, rel=1e-14)
            assert b.delta_S == pytest.approx(a.delta_S, rel=1e-9, abs=1e-11)

    def test_phi_identities(self, rng):
        for _ in range(20):
            st = summarize(random_observation(rng))
            assert st.M == sum(st.phi.values())
            assert st.N == sum(k * n for k, n in st.phi.items())
            assert st.M <= st.N
            assert 0.0 <= st.X <= 1.0
            assert st.X + st.Y == pytest.approx(1.0, abs=1e-14)


class TestKlDelta:
    def test_proportional_at_matching_w_gives_zero(self, rng):
        st = summarize(proportional_observation(rng, scale=2.0))
        w = st.Y * st.V / st.X
        assert kl_delta(st, w) == pytest.approx(0.0, abs=1e-10)

    def test_grows_without_bound(self, rng):
        st = summarize(random_observation(rng))
        assert kl_delta(st, 1e12) > kl_delta(st, 1e6) > 0

    def test_hand_value(self):
        # x uniform on 2 points, one sampled with p = 1: proportional case,
        # so at W = Y V / X = 1 the divergence vanishes
        obs = Observation(domain_size=2, x=np.array([0.5, 0.5]),
                          indices=np.array([0]), p_obs=np.array([1.0]),
                          counts=np.array([1]))
        st = summarize(obs)
        expected = (st.T + st.Y * math.log(st.Y) - st.U
                    - st.Y * math.log(1.0) + math.log(st.V + 1.0))
        assert kl_delta(st, 1.0) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(0.0, abs=1e-14)

    def test_dominates_delta_s(self, rng):
        for _ in range(15):
            st = summarize(random_observation(rng))
            ws = np.exp(rng.uniform(-6, 6, 25))
            assert np.all(kl_delta(st, ws) >= st.delta_S - 1e-10)

    def test_w_zero_is_infinite(self, rng):
        st = summarize(random_observation(rng))
        assert math.isinf(kl_delta(st, 0.0))

    def test_y_zero_requires_w_zero(self):
        obs = Observation(domain_size=2, x=np.array([0.4, 0.6]),
                          indices=np.array([0, 1]),
                          p_obs=np.array([1.0, 3.0]), counts=np.array([2, 1]))
        st = summarize(obs)
        assert st.Y == 0.0
        assert math.isfinite(kl_delta(st, 0.0))
        with pytest.raises(ValueError):
            kl_delta(st, 0.5)

    def test_negative_w_rejected(self, rng):
        st = summarize(random_observation(rng))
        with pytest.raises(ValueError):
            kl_delta(st, -1.0)
