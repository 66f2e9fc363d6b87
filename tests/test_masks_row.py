"""Property tests for per-row mask extraction (MaskSpec.row / repro.masks.rows).

The decode path's contract: for every mask, ``spec.row(i, L)`` — and the
compiled :class:`~repro.masks.rows.RowProgram` built from it — must equal row
``i`` of the materialised CSR mask, without materialising the full graph.
"""

import numpy as np
import pytest

from repro.masks.base import as_mask_spec
from repro.masks.composite import UnionMask
from repro.masks.dilated2d import Dilated2DMask
from repro.masks.explicit import ExplicitMask
from repro.masks.global_ import GlobalMask, GlobalNonLocalMask
from repro.masks.presets import bigbird_mask, longformer_dilated_mask, longformer_mask
from repro.masks.random_ import RandomMask
from repro.masks.rows import (
    CSRRowProgram,
    Dilated2DRowProgram,
    GlobalRowProgram,
    SpecRowProgram,
    StencilRowProgram,
    UnionRowProgram,
    causal_layout,
    compile_row_program,
)
from repro.masks.structured import BlockDiagonalMask, CausalMask, DenseMask, StridedMask
from repro.masks.windowed import Dilated1DMask, LocalMask
from repro.utils.dtypes import INDEX_DTYPE

LENGTHS = (17, 48)

PRESET_SPECS = [
    LocalMask(window=1),
    LocalMask(window=5),
    Dilated1DMask(window=9, dilation=2),
    Dilated2DMask(block_size=8, dilation=1),
    GlobalMask((0, 7)),
    GlobalNonLocalMask((0, 11), window=4),
    RandomMask(sparsity=0.2, seed=3),
    RandomMask(keys_per_row=3, seed=5, include_diagonal=True),
    CausalMask(),
    DenseMask(),
    BlockDiagonalMask(block_size=6),
    StridedMask(stride=3),
    longformer_mask(reach=4, global_tokens=(0, 9)),
    longformer_dilated_mask(reach=3, global_tokens=(0,), dilation=2),
    bigbird_mask(reach=3, global_tokens=(0,), random_sparsity=0.05),
    LocalMask(window=4) & CausalMask(),
    LocalMask(window=6) - GlobalMask((0,)),
]


def _ids(spec):
    return f"{type(spec).__name__}:{spec.describe()}"


@pytest.mark.parametrize("spec", PRESET_SPECS, ids=_ids)
@pytest.mark.parametrize("length", LENGTHS)
class TestRowEqualsCSR:
    def test_row_matches_materialised_row(self, spec, length):
        csr = spec.to_csr(length)
        for i in range(length):
            np.testing.assert_array_equal(spec.row(i, length), csr.row_neighbors(i))

    def test_causal_row_is_causal_clip(self, spec, length):
        csr = spec.to_csr(length)
        for i in range(length):
            expected = csr.row_neighbors(i)
            np.testing.assert_array_equal(
                spec.causal_row(i, length), expected[expected <= i]
            )


@pytest.mark.parametrize("spec", PRESET_SPECS, ids=_ids)
@pytest.mark.parametrize("length", LENGTHS)
class TestRowPrograms:
    def test_program_rows_match_spec_rows(self, spec, length):
        program = compile_row_program(spec, length)
        csr = spec.to_csr(length)
        for i in range(length):
            np.testing.assert_array_equal(program.row(i), csr.row_neighbors(i))

    def test_program_causal_rows_and_nnz(self, spec, length):
        program = compile_row_program(spec, length)
        total = 0
        for i in range(length):
            causal = program.causal_row(i)
            np.testing.assert_array_equal(causal, spec.causal_row(i, length))
            assert causal.size == 0 or causal.max() <= i
            total += causal.size
        # causal_nnz is exact for single patterns, an upper bound for unions
        # (overlapping component edges dedupe at extraction time)
        if isinstance(spec, UnionMask):
            assert program.causal_nnz() >= total
        else:
            assert program.causal_nnz() == total


class TestProgramSpecialisation:
    def test_specialised_program_selection(self):
        assert isinstance(compile_row_program(LocalMask(window=3), 16), StencilRowProgram)
        assert isinstance(
            compile_row_program(Dilated1DMask(window=7, dilation=1), 16), StencilRowProgram
        )
        assert isinstance(compile_row_program(GlobalMask((0,)), 16), GlobalRowProgram)
        assert isinstance(
            compile_row_program(GlobalNonLocalMask((0,), window=2), 16), GlobalRowProgram
        )
        assert isinstance(
            compile_row_program(Dilated2DMask(block_size=4), 16), Dilated2DRowProgram
        )
        assert isinstance(
            compile_row_program(longformer_mask(reach=2), 16), UnionRowProgram
        )
        assert isinstance(compile_row_program(CausalMask(), 16), SpecRowProgram)

    def test_explicit_mask_uses_csr_rows(self):
        dense = (np.arange(36).reshape(6, 6) % 4 == 0).astype(np.float32)
        spec = as_mask_spec(dense)
        program = compile_row_program(spec, 6)
        assert isinstance(program, CSRRowProgram)
        csr = spec.to_csr(6)
        for i in range(6):
            np.testing.assert_array_equal(program.row(i), csr.row_neighbors(i))

    def test_explicit_mask_rejects_wrong_horizon(self):
        spec = ExplicitMask.from_any(np.eye(8, dtype=np.float32))
        with pytest.raises(ValueError):
            compile_row_program(spec, 16)

    def test_row_index_bounds_enforced(self):
        program = compile_row_program(LocalMask(window=3), 8)
        with pytest.raises(ValueError):
            program.row(8)
        with pytest.raises(ValueError):
            program.causal_row(-1)

    def test_global_token_beyond_horizon_rejected(self):
        with pytest.raises(ValueError):
            compile_row_program(GlobalMask((40,)), 16)


def _assert_layout(layout, segments):
    """``layout`` is the segments' ``causal_row`` outputs end to end."""
    indptr, cols = layout
    rows = [program.causal_row(i) for program, start, count in segments for i in range(start, start + count)]
    expected = np.concatenate(rows) if rows else np.empty(0, dtype=INDEX_DTYPE)
    assert cols.dtype == expected.dtype == INDEX_DTYPE
    np.testing.assert_array_equal(cols, expected)
    assert indptr.dtype == np.int64
    np.testing.assert_array_equal(indptr, np.cumsum([0] + [r.size for r in rows]))


@pytest.mark.parametrize("length", LENGTHS)
class TestCausalRows:
    """``causal_rows`` and the batched :func:`causal_layout` are the
    concatenated ``causal_row`` outputs, bit for bit."""

    def _programs(self, length):
        explicit = as_mask_spec(RandomMask(sparsity=0.3, seed=7).to_csr(length))
        return [compile_row_program(spec, length) for spec in PRESET_SPECS + [explicit]]

    def test_every_program_class_is_covered(self, length):
        assert {type(p) for p in self._programs(length)} == {
            StencilRowProgram,
            GlobalRowProgram,
            Dilated2DRowProgram,
            CSRRowProgram,
            UnionRowProgram,
            SpecRowProgram,
        }

    def test_range_equals_concatenated_rows(self, length):
        rng = np.random.default_rng(length)
        ranges = [(0, length), (0, 0), (length, length), (0, 1), (length - 1, length)]
        ranges += [tuple(sorted(rng.integers(0, length + 1, size=2))) for _ in range(8)]
        programs = self._programs(length)
        for program in programs:
            for start, stop in ranges:
                _assert_layout(program.causal_rows(int(start), int(stop)), [(program, start, stop - start)])
        # the batched form: every program class (and a second horizon) mixed
        # in one call, runs of one-row segments as a decode pass lays out
        # beside prefill-sized chunks
        programs += [compile_row_program(spec, length + 7) for spec in PRESET_SPECS]
        for _ in range(24):
            segments = []
            for program in rng.choice(programs, size=rng.integers(1, 2 * len(programs))):
                start = int(rng.integers(0, program.horizon + 1))
                count = 1 if start < program.horizon and rng.random() < 0.5 else int(rng.integers(0, 9))
                segments.append((program, start, min(count, program.horizon - start)))
            _assert_layout(causal_layout(segments), segments)

    def test_range_bounds_enforced(self, length):
        program = compile_row_program(LocalMask(window=3), length)
        for start, stop in [(-1, 2), (3, 2), (0, length + 1)]:
            with pytest.raises(ValueError):
                program.causal_rows(start, stop)

