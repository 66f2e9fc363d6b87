"""Tests for serving request/response containers and stats (repro.serve.session)."""

import pytest

from repro.perfmodel.runtime import RuntimeModel, combine_estimates
from repro.perfmodel.devices import A100_SXM4_80GB
from repro.serve.cache import CacheStats
from repro.serve.session import AttentionRequest, ServerStats
from repro.utils.rng import random_qkv


class TestAttentionRequest:
    def test_length_property(self):
        q, k, v = random_qkv(48, 8, seed=0)
        request = AttentionRequest(q=q, k=k, v=v)
        assert request.length == 48
        assert request.request_id is None

    def test_shape_validation(self):
        q, k, v = random_qkv(48, 8, seed=0)
        with pytest.raises(ValueError):
            AttentionRequest(q=q[:24], k=k, v=v)
        with pytest.raises(ValueError):
            AttentionRequest(q=q, k=k, v=v[:24])
        with pytest.raises(ValueError):
            AttentionRequest(q=q[0], k=k[0], v=v[0])

    def test_batched_requests_accepted(self):
        # leading batch/head axes are first-class: a whole (B, H, L, d) layer
        # travels as one request
        q, k, v = random_qkv(48, 8, batch=2, heads=4, seed=0)
        request = AttentionRequest(q=q, k=k, v=v)
        assert request.length == 48
        assert request.batch_shape == (2, 4)


class TestServerStats:
    def test_zero_state_is_safe(self):
        stats = ServerStats()
        assert stats.throughput_rps == 0.0
        assert stats.mean_latency_s == 0.0

    def test_derived_rates(self):
        stats = ServerStats(
            requests=10, wall_seconds=2.0, kernel_seconds=1.0, cache=CacheStats(hits=9, misses=1)
        )
        assert stats.throughput_rps == pytest.approx(5.0)
        assert stats.mean_latency_s == pytest.approx(0.1)
        assert stats.cache.hit_rate == pytest.approx(0.9)


class TestCombineEstimates:
    """Sequential-plan cost prediction underpinning the plan compiler."""

    def test_combination_sums_components(self):
        model = RuntimeModel(A100_SXM4_80GB)
        parts = [
            model.estimate("local", 4096, 64, sparsity_factor=0.01),
            model.estimate("global", 4096, 64, sparsity_factor=0.001),
        ]
        total = combine_estimates(parts)
        assert total.seconds == pytest.approx(sum(p.seconds for p in parts))
        assert total.flops == pytest.approx(sum(p.flops for p in parts))
        assert total.algorithm == "composed"
        assert total.imbalance_factor == max(p.imbalance_factor for p in parts)

    def test_single_estimate_passes_through(self):
        model = RuntimeModel(A100_SXM4_80GB)
        estimate = model.estimate("csr", 2048, 64, sparsity_factor=0.05)
        assert combine_estimates([estimate], algorithm="csr") is estimate

    def test_single_estimate_is_relabeled_for_consistency(self):
        # a one-component composed plan must still report a "composed" estimate
        model = RuntimeModel(A100_SXM4_80GB)
        estimate = model.estimate("local", 2048, 64, sparsity_factor=0.05)
        combined = combine_estimates([estimate])
        assert combined.algorithm == "composed"
        assert combined.seconds == estimate.seconds

    def test_mixed_devices_rejected(self):
        from repro.perfmodel.devices import L40_48GB

        a = RuntimeModel(A100_SXM4_80GB).estimate("local", 2048, 64, sparsity_factor=0.01)
        b = RuntimeModel(L40_48GB).estimate("local", 2048, 64, sparsity_factor=0.01)
        with pytest.raises(ValueError):
            combine_estimates([a, b])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            combine_estimates([])
