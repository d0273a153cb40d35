"""Tests for the synthetic dataset generators (repro.traces.synthetic)."""

import hashlib

import numpy as np
import pytest

from repro.traces.synthetic import fcc_broadband_like, hsdpa_3g_like, make_dataset


class TestGenerators:
    def test_broadband_trace_shape(self):
        t = fcc_broadband_like(np.random.default_rng(0), duration=100.0, step_seconds=1.0)
        assert len(t) == 100
        assert t.duration == pytest.approx(100.0)
        assert np.all(t.bandwidths_mbps > 0)

    def test_3g_trace_has_outage_capability(self):
        # Over many traces, the 3G generator should visit deep fades.
        rng = np.random.default_rng(1)
        mins = [hsdpa_3g_like(rng).bandwidths_mbps.min() for _ in range(20)]
        assert min(mins) < 0.2

    def test_broadband_avoids_deep_outages(self):
        rng = np.random.default_rng(2)
        mins = [fcc_broadband_like(rng).bandwidths_mbps.min() for _ in range(20)]
        assert min(mins) >= 0.2

    def test_distribution_shift_broadband_vs_3g(self):
        """The property Figure 4 relies on: broadband >> 3G in mean rate."""
        broadband = make_dataset("broadband", 30, seed=0)
        mobile = make_dataset("3g", 30, seed=0)
        mean_bb = np.mean([t.mean_bandwidth() for t in broadband])
        mean_3g = np.mean([t.mean_bandwidth() for t in mobile])
        assert mean_bb > 1.5 * mean_3g

    def test_3g_more_variable_than_broadband(self):
        broadband = make_dataset("broadband", 30, seed=1)
        mobile = make_dataset("3g", 30, seed=1)
        cv = lambda t: np.std(t.bandwidths_mbps) / np.mean(t.bandwidths_mbps)
        assert np.mean([cv(t) for t in mobile]) > np.mean([cv(t) for t in broadband])


class TestMakeDataset:
    def test_count_and_names(self):
        traces = make_dataset("3g", 5, seed=3)
        assert len(traces) == 5
        assert len({t.name for t in traces}) == 5

    def test_seeding_is_deterministic(self):
        a = make_dataset("broadband", 3, seed=42)
        b = make_dataset("broadband", 3, seed=42)
        for ta, tb in zip(a, b):
            np.testing.assert_array_equal(ta.bandwidths_mbps, tb.bandwidths_mbps)

    def test_different_seeds_differ(self):
        a = make_dataset("broadband", 1, seed=1)[0]
        b = make_dataset("broadband", 1, seed=2)[0]
        assert not np.array_equal(a.bandwidths_mbps, b.bandwidths_mbps)

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            make_dataset("5g", 1)

    @pytest.mark.parametrize(
        "kind, seed, digest",
        [
            ("3g", 0, "74f679064712cc6534b4bc9659e84337b29b7db8c7e82f9f8e7f0e249b795396"),
            ("3g", 7, "5fadb2ebd3ace55929ac4b66e0750d0e127e3cf1afdf548b9ed0b49f16ace011"),
            ("3g", 2019, "e6b2ba43e654216c44f0b1b9cafab53e22f2db628d867b584e5d67a5855ff820"),
            ("broadband", 0, "3ce9604e8b50e32f7ddca9f5f3ba81aed6549b790324d0a5b4c96ba1c5e66483"),
            ("broadband", 7, "dfcdff2b7bc99025f4235c0a114f1957f788d3846ddf3b0a4a76bd0a5419a51a"),
            ("broadband", 2019, "a5cc5ba0cf43999328bd51f18a980a18731a9e2d04d11e58279d05f73b10d790"),
        ],
    )
    def test_corpus_bytes_are_pinned(self, kind, seed, digest):
        """SHA-256 of the bandwidth bytes of four traces: the Fig. 4 corpora
        (and every seeded run trained on them) stay bit for bit."""
        h = hashlib.sha256()
        for trace in make_dataset(kind, 4, seed):
            h.update(trace.bandwidths_mbps.tobytes())
        assert h.hexdigest() == digest
