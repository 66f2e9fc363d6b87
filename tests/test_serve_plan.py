"""Tests for the execution-plan compiler (repro.serve.plan)."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.dense import sdp_attention
from repro.core.engine import GraphAttentionEngine
from repro.core.explicit_kernels import materialize_explicit
from repro.masks.composite import UnionMask
from repro.masks.dilated2d import Dilated2DMask
from repro.masks.explicit import ExplicitMask
from repro.masks.global_ import GlobalMask, GlobalNonLocalMask
from repro.masks.presets import bigbird_mask, longformer_dilated_mask, longformer_mask
from repro.masks.random_ import RandomMask
from repro.masks.windowed import Dilated1DMask, LocalMask
from repro.perfmodel.devices import A100_SXM4_80GB, L40_48GB
from repro.serve.plan import compile_plan, mask_key, plan_cache_key
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.utils.rng import random_qkv
from repro.utils.validation import assert_allclose_paper


def _edges(csr):
    """A CSR mask's edges as ``(row, col)`` pairs."""
    return set(zip(csr.expanded_rows().tolist(), csr.indices.tolist()))


def _step_edges(plan, length):
    """Each step's edge set."""
    return [_edges(step.csr if step.kernel == "csr" else step.spec.to_csr(length)) for step in plan.steps]


class TestCompilation:
    def test_none_mask_compiles_to_flash(self):
        plan = compile_plan(None, 64)
        assert plan.algorithm == "flash"
        assert plan.kernels == ("flash",)
        assert plan.nnz == 64 * 64

    def test_specialised_mask_compiles_to_its_kernel(self):
        plan = compile_plan(LocalMask(window=4), 64)
        assert plan.algorithm == "local"
        assert plan.kernels == ("local",)
        assert plan.nnz == LocalMask(window=4).nnz(64)

    def test_arbitrary_mask_compiles_to_csr(self):
        plan = compile_plan(RandomMask(sparsity=0.1, seed=0), 64)
        assert plan.algorithm == "csr"
        assert plan.steps[0].csr is not None

    def test_union_of_specialised_masks_compiles_to_composed(self):
        # the local band keeps its kernel; the global part is the CSR remainder
        mask = longformer_mask(reach=4, global_tokens=(0, 30))
        plan = compile_plan(mask, 64)
        assert plan.algorithm == "composed"
        assert plan.kernels == ("local", "csr")
        assert plan.steps[1].nnz == GlobalNonLocalMask((0, 30), window=5).nnz(64)

    def test_global_mask_plans_to_its_implicit_kernel(self, small_qkv):
        # the global kernel's window=0 mode executes GlobalMask exactly
        # (self-edges on global rows included), so a bare GlobalMask no longer
        # needs the CSR fallback
        from repro.masks.global_ import GlobalMask

        q, k, v = small_qkv
        spec = GlobalMask([0, 5])
        plan = compile_plan(spec, q.shape[0])
        assert plan.algorithm == "global"
        assert plan.kernels == ("global",)
        np.testing.assert_allclose(
            plan.execute(q, k, v).output, sdp_attention(q, k, v, spec).output, atol=1e-8
        )
        composed = compile_plan(spec | LocalMask(window=3), q.shape[0])
        reference = sdp_attention(q, k, v, spec | LocalMask(window=3)).output
        np.testing.assert_allclose(composed.execute(q, k, v).output, reference, atol=1e-8)

    def test_union_with_global_mask_still_composes_on_auto(self, small_qkv):
        # a GlobalMask trimmed by an overlapping local component loses edges,
        # so its remainder runs through the exact CSR step; the union still
        # composes on auto dispatch
        from repro.masks.global_ import GlobalMask

        q, k, v = small_qkv
        mask = LocalMask(window=4) | GlobalMask([0, 30])
        plan = compile_plan(mask, q.shape[0])
        assert plan.algorithm == "composed"
        assert plan.kernels == ("local", "csr")
        np.testing.assert_allclose(
            plan.execute(q, k, v).output, sdp_attention(q, k, v, mask).output, atol=1e-8
        )

    def test_union_with_random_component_runs_local_plus_one_csr(self):
        mask = bigbird_mask(reach=4, global_tokens=(0,), random_sparsity=0.02, seed=1)
        plan = compile_plan(mask, 64)
        assert plan.algorithm == "composed"
        assert plan.kernels == ("local", "csr")
        # the global and random edges outside the band were materialised at
        # compile time, as one remainder
        local = LocalMask(window=5)
        assert plan.steps[-1].csr is not None
        assert _edges(plan.steps[-1].csr) == _edges(mask.to_csr(64)) - _edges(local.to_csr(64))

    def test_stencil_after_other_components_still_keeps_its_kernel(self, small_qkv):
        # the band comes last; the earlier components' edges inside it are
        # dropped from the remainder, and a second (overlapping) stencil
        # joins the remainder
        q, k, v = small_qkv
        length = q.shape[0]
        mask = UnionMask(
            [GlobalMask([3]), RandomMask(sparsity=0.1, seed=2), LocalMask(window=4), Dilated1DMask(9, 1)]
        )
        plan = compile_plan(mask, length)
        assert plan.kernels == ("local", "csr")
        first, second = _step_edges(plan, length)
        assert not first & second
        assert first | second == _edges(mask.to_csr(length))
        np.testing.assert_allclose(
            plan.execute(q, k, v).output, sdp_attention(q, k, v, mask).output, atol=1e-9
        )

    def test_composed_steps_are_edge_disjoint(self):
        mask = longformer_mask(reach=4, global_tokens=(0, 30))
        plan = compile_plan(mask, 64)
        assert plan.nnz == mask.to_csr(64).nnz  # disjoint steps sum to the union
        # global tokens at both ends; the dilated window leaves the global step
        # a trimmed CSR, and BigBird's random step is trimmed by both others
        for mask in (
            longformer_dilated_mask(reach=4, global_tokens=(0, 63)),
            bigbird_mask(reach=4, global_tokens=(0, 63), random_sparsity=0.1),
        ):
            plan = compile_plan(mask, 64)
            assert plan.algorithm == "composed" and plan.kernels[-1] == "csr"
            step_edges = []
            for step in plan.steps:
                csr = step.csr if step.kernel == "csr" else step.spec.to_csr(64)
                step_edges.append(set(zip(csr.expanded_rows().tolist(), csr.indices.tolist())))
            for a, b in itertools.combinations(step_edges, 2):
                assert not a & b
            union = mask.to_csr(64)
            assert set().union(*step_edges) == set(zip(union.expanded_rows().tolist(), union.indices.tolist()))

    def test_longformer_plans_compile_without_per_row_neighbors(self, monkeypatch):
        def one_row(self, i, length):
            raise AssertionError(f"compilation asked {self!r} for row {i}")

        def whole_union(self, length, **kwargs):
            raise AssertionError("compilation materialised the whole union")

        for spec in (LocalMask, Dilated1DMask, GlobalMask, GlobalNonLocalMask):
            monkeypatch.setattr(spec, "neighbors", one_row)
        monkeypatch.setattr(UnionMask, "to_csr", whole_union)
        # RandomMask draws its rows one at a time; nothing else does
        for mask in (
            longformer_mask(reach=64, global_tokens=(0, 4095)),
            longformer_dilated_mask(reach=64, global_tokens=(0, 4095)),
            bigbird_mask(reach=64, global_tokens=(0, 4095), random_sparsity=5e-4),
        ):
            plan = compile_plan(mask, 4096)
            assert plan.algorithm == "composed"
            assert plan.kernels[-1] == "csr" and plan.kernels.count("csr") == 1

    def test_dense_array_mask_compiles(self, small_qkv):
        q, k, v = small_qkv
        dense = LocalMask(window=3).to_dense(q.shape[0])
        plan = compile_plan(dense, q.shape[0])
        assert plan.algorithm == "csr"
        reference = sdp_attention(q, k, v, dense).output
        np.testing.assert_allclose(plan.execute(q, k, v).output, reference, atol=1e-8)


class TestExecution:
    def test_plan_execution_matches_engine_run(self, medium_qkv):
        q, k, v = medium_qkv
        mask = longformer_mask(reach=10, global_tokens=(0, 200))
        engine = GraphAttentionEngine()
        plan = engine.plan(mask, q.shape[0])
        expected = engine.run(q, k, v, mask)
        result = plan.execute(q, k, v)
        assert result.algorithm == expected.algorithm == "composed"
        np.testing.assert_array_equal(result.output, expected.output)

    def test_plan_matches_dense_reference(self, medium_qkv):
        q, k, v = medium_qkv
        mask = longformer_mask(reach=10, global_tokens=(0, 200))
        plan = compile_plan(mask, q.shape[0])
        assert_allclose_paper(plan.execute(q, k, v).output, sdp_attention(q, k, v, mask).output)

    def test_plan_is_reusable_across_batches(self, small_qkv, rng):
        q, k, v = small_qkv
        plan = compile_plan(LocalMask(window=4), q.shape[0])
        first = plan.execute(q, k, v).output
        q2 = rng.random(q.shape)
        second = plan.execute(q2, k, v).output
        np.testing.assert_allclose(
            second, sdp_attention(q2, k, v, LocalMask(window=4)).output, atol=1e-8
        )
        assert not np.array_equal(first, second)

    def test_execute_rejects_wrong_length(self, small_qkv):
        q, k, v = small_qkv
        plan = compile_plan(LocalMask(window=4), q.shape[0] + 1)
        with pytest.raises(ValueError):
            plan.execute(q, k, v)

    def test_stacked_bigbird_plan_equals_per_slice_executions(self):
        length = 256
        mask = bigbird_mask(reach=20, global_tokens=(0, 100), random_sparsity=0.02, seed=4)
        plan = compile_plan(mask, length)
        assert plan.kernels == ("local", "csr")
        q, k, v = random_qkv(length, 16, dtype=np.float32, batch=2, heads=3, seed=5)
        stacked = plan.execute(q, k, v)
        assert stacked.output.dtype == np.float32
        for b in range(2):
            for h in range(3):
                single = plan.execute(q[b, h], k[b, h], v[b, h])
                np.testing.assert_array_equal(stacked.output[b, h], single.output)
                np.testing.assert_array_equal(stacked.row_max[b, h], single.row_max)
                np.testing.assert_array_equal(stacked.row_sum[b, h], single.row_sum)
        assert stacked.ops.dot_products == 6 * single.ops.dot_products

    def test_plan_is_immutable(self):
        plan = compile_plan(LocalMask(window=4), 64)
        with pytest.raises(Exception):
            plan.length = 128


class TestCacheKeys:
    def test_equal_specs_share_a_key(self):
        a = plan_cache_key(LocalMask(window=8), 128)
        b = plan_cache_key(LocalMask(window=8), 128)
        assert a == b

    @pytest.mark.parametrize(
        "left,right",
        [
            (LocalMask(window=8), LocalMask(window=9)),
            (LocalMask(window=8), Dilated1DMask(window=8, dilation=1)),
            (RandomMask(sparsity=0.1, seed=0), RandomMask(sparsity=0.1, seed=1)),
            (longformer_mask(reach=4), longformer_mask(reach=5)),
        ],
    )
    def test_different_specs_differ(self, left, right):
        assert plan_cache_key(left, 128) != plan_cache_key(right, 128)

    def test_key_depends_on_length_and_knobs(self):
        mask = LocalMask(window=8)
        base = plan_cache_key(mask, 128)
        assert plan_cache_key(mask, 256) != base
        assert plan_cache_key(mask, 128, executor="streamed") != base
        assert plan_cache_key(mask, 128, scale=0.5) != base
        assert plan_cache_key(mask, 128, device=A100_SXM4_80GB) != base
        assert plan_cache_key(mask, 128, head_dim=64) != base

    def test_key_separates_head_dims(self):
        # head_dim changes the predicted runtime baked into the plan, so two
        # head dims must never share a cache entry
        mask = LocalMask(window=8)
        a = compile_plan(mask, 64, device=A100_SXM4_80GB, head_dim=32)
        b = compile_plan(mask, 64, device=A100_SXM4_80GB, head_dim=128)
        assert a.key != b.key
        assert a.predicted.seconds != b.predicted.seconds

    def test_raw_and_coerced_masks_share_a_key(self):
        dense = LocalMask(window=3).to_dense(32)
        from repro.masks.base import as_mask_spec

        assert plan_cache_key(dense, 32) == plan_cache_key(as_mask_spec(dense), 32)
        assert compile_plan(dense, 32).key == plan_cache_key(dense, 32)

    def test_precomputed_and_skipped_keys(self):
        mask = LocalMask(window=8)
        assert compile_plan(mask, 64, key="custom").key == "custom"
        assert compile_plan(mask, 64, key=None).key is None
        # the engine's one-shot dispatch path compiles unkeyed plans
        engine = GraphAttentionEngine()
        assert engine.plan(mask, 64, compute_key=False).key is None
        assert engine.plan(mask, 64).key == plan_cache_key(mask, 64)

    def test_explicit_masks_key_on_content(self):
        a = ExplicitMask(LocalMask(window=3).to_csr(32))
        b = ExplicitMask(LocalMask(window=3).to_csr(32))
        c = ExplicitMask(LocalMask(window=4).to_csr(32))
        assert mask_key(a, 32) == mask_key(b, 32)
        assert mask_key(a, 32) != mask_key(c, 32)

    def test_union_key_lists_components(self):
        key = mask_key(longformer_mask(reach=4, global_tokens=(0,)), 64)
        assert key.startswith("union[")
        assert "LocalMask" in key and "GlobalNonLocalMask" in key


class TestPrediction:
    def test_no_device_no_prediction(self):
        plan = compile_plan(LocalMask(window=8), 256)
        assert plan.predicted is None and plan.predicted_seconds is None

    def test_device_attaches_prediction(self):
        plan = compile_plan(
            longformer_mask(reach=8, global_tokens=(0,)),
            256,
            device=A100_SXM4_80GB,
            head_dim=64,
        )
        assert plan.device == A100_SXM4_80GB.name
        assert plan.predicted.seconds > 0
        assert plan.predicted.algorithm == "composed"

    def test_global_step_skew_registers_in_prediction(self):
        # the global component's few dense rows must surface as load imbalance
        plan = compile_plan(
            longformer_mask(reach=50, global_tokens=(0, 1024)),
            2048,
            device=A100_SXM4_80GB,
        )
        assert plan.predicted.imbalance_factor > 1.0

    def test_prediction_tracks_device(self):
        mask = LocalMask(window=8)
        a100 = compile_plan(mask, 4096, device=A100_SXM4_80GB)
        l40 = compile_plan(mask, 4096, device=L40_48GB)
        assert a100.predicted.seconds != l40.predicted.seconds


class TestMaterializeExplicit:
    """The spec-coercion helper shared by the engine and the plan compiler."""

    def test_spec_to_both_formats(self):
        spec = LocalMask(window=3)
        assert isinstance(materialize_explicit(spec, 32, "csr"), CSRMatrix)
        assert isinstance(materialize_explicit(spec, 32, "coo"), COOMatrix)

    def test_containers_pass_through_or_convert(self):
        csr = LocalMask(window=3).to_csr(32)
        assert materialize_explicit(csr, 32, "csr") is csr
        assert isinstance(materialize_explicit(csr, 32, "coo"), COOMatrix)
        coo = csr.to_coo()
        assert materialize_explicit(coo, 32, "coo") is coo
        assert isinstance(materialize_explicit(coo, 32, "csr"), CSRMatrix)

    def test_dense_array_coerces(self):
        dense = LocalMask(window=3).to_dense(32)
        assert materialize_explicit(dense, 32, "csr").nnz == LocalMask(window=3).nnz(32)

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            materialize_explicit(LocalMask(window=3), 32, "bsr")


@st.composite
def union_masks(draw):
    """A length and a union of 1-4 stencil, global, random and explicit parts."""
    length = draw(st.integers(4, 40))
    tokens = st.lists(st.integers(0, length - 1), min_size=1, max_size=3)
    components = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(
            st.sampled_from(
                ["local", "dilated1d", "dilated2d", "global", "nonlocal", "random", "explicit"]
            )
        )
        if kind == "local":
            components.append(LocalMask(window=draw(st.integers(1, 8))))
        elif kind == "dilated1d":
            components.append(Dilated1DMask(draw(st.integers(1, 12)), draw(st.integers(0, 3))))
        elif kind == "dilated2d":
            components.append(Dilated2DMask(draw(st.integers(1, 16)), draw(st.integers(0, 2))))
        elif kind == "global":
            components.append(GlobalMask(draw(tokens)))
        elif kind == "nonlocal":
            components.append(GlobalNonLocalMask(draw(tokens), window=draw(st.integers(1, 6))))
        elif kind == "random":
            components.append(
                RandomMask(sparsity=draw(st.floats(0.02, 0.3)), seed=draw(st.integers(0, 999)))
            )
        else:
            picks = np.random.default_rng(draw(st.integers(0, 999))).random((length, length))
            components.append(ExplicitMask(CSRMatrix.from_dense(picks < draw(st.floats(0.0, 0.2)))))
    return length, UnionMask(components)


@given(union_masks(), st.integers(0, 2**31 - 1))
def test_union_plans_split_into_stencils_and_one_csr_remainder(case, seed):
    length, mask = case
    plan = compile_plan(mask, length)
    assert plan.kernels.count("csr") <= 1
    assert set(plan.kernels) <= {"local", "dilated1d", "dilated2d", "csr"}
    # a union that needs one kernel is labelled with it (stencil-free: one CSR call)
    assert plan.algorithm == ("composed" if len(plan.steps) > 1 else plan.kernels[0])
    step_edges = _step_edges(plan, length)
    for a, b in itertools.combinations(step_edges, 2):
        assert not a & b
    union = _edges(mask.to_csr(length))
    assert set().union(*step_edges) == union
    assert plan.nnz == len(union)
    q, k, v = random_qkv(length, 4, dtype=np.float64, seed=seed)
    np.testing.assert_allclose(
        plan.execute(q, k, v).output, sdp_attention(q, k, v, mask).output, atol=1e-9
    )
