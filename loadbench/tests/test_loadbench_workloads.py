import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from loadbench import runner
from loadbench import workloads as wl

ROOT = Path(__file__).resolve().parents[2]


def _fingerprints(k, v, storage):
    from repro.serve import prefix_fingerprints

    return prefix_fingerprints(k, v, block_size=runner.BLOCK_SIZE, storage=storage)


@pytest.mark.parametrize("index", [0, 7, 100])
def test_generation_is_a_pure_function_of_the_seed(index):
    for spec_of, tensors_of in ((wl.chat_spec, wl.chat_tensors), (wl.rag_spec, wl.rag_tensors)):
        spec = spec_of(index)
        assert spec == spec_of(index)
        for a, b in zip(tensors_of(3, spec), tensors_of(3, spec)):
            assert np.array_equal(a, b)
        assert not np.array_equal(tensors_of(3, spec)[1][..., :8, :], tensors_of(4, spec)[1][..., :8, :])
    q, _, _ = wl.longctx_tensors(3, index)
    assert np.array_equal(q, wl.longctx_tensors(3, index)[0])
    assert not np.array_equal(q[:8], wl.longctx_tensors(4, index)[0][:8])
    assert q.shape == (wl.LONGCTX_LENGTH, wl.HEAD_DIM)


def test_every_block_sends_the_same_shapes():
    def chat_lengths(start):
        specs = [wl.chat_spec(i) for i in range(start, start + wl.CHAT_BLOCK)]
        return sorted(s.prompt_tokens for s in specs), sorted(s.gen_tokens for s in specs)

    assert chat_lengths(0) == chat_lengths(5 * wl.CHAT_BLOCK)
    def chat_order(start):
        return [(s.prompt_tokens, s.gen_tokens) for s in map(wl.chat_spec, range(start, start + wl.CHAT_BLOCK))]

    assert chat_order(0) != chat_order(wl.CHAT_BLOCK)
    for start in (0, 3):
        block = [wl.chat_spec(start * wl.CHAT_BLOCK + i) for i in range(wl.CHAT_BLOCK)]
        assert Counter(s.mask for s in block) == {name: 16 for name in wl.CHAT_MASKS}
        assert Counter(s.priority for s in block) == {p: 16 for p in wl.CHAT_PRIORITIES}
        rag = [wl.rag_spec(start * wl.RAG_BLOCK + i) for i in range(wl.RAG_BLOCK)]
        assert sorted(s.document for s in rag) == list(range(wl.RAG_DOCUMENTS))
        assert sorted(s.prompt_tokens for s in rag) == sorted(
            wl.RAG_DOC_TOKENS + q for q in wl.spread(*wl.RAG_QUESTION, wl.RAG_BLOCK)
        )
    assert all(wl.CHAT_PROMPT[0] <= p <= wl.CHAT_PROMPT[1] for p in wl.spread(*wl.CHAT_PROMPT, 16))
    assert all(wl.CHAT_GEN[0] <= g <= wl.CHAT_GEN[1] for g in wl.spread(*wl.CHAT_GEN, 16))


def test_chat_prompts_share_no_full_block():
    seen = set()
    for index in range(24):
        spec = wl.chat_spec(index)
        _, k, v = wl.chat_tensors(5, spec)
        chain = _fingerprints(k[..., : spec.prompt_tokens, :], v[..., : spec.prompt_tokens, :], "fp32")
        assert len(chain) == spec.prompt_tokens // runner.BLOCK_SIZE
        assert not seen & set(chain)
        seen |= set(chain)


def test_rag_requests_for_one_document_share_exactly_its_64_blocks():
    specs = [wl.rag_spec(index) for index in range(2 * wl.RAG_BLOCK)]
    by_document = {}
    for spec in specs:
        by_document.setdefault(spec.document, []).append(spec)
    doc_blocks = wl.RAG_DOC_TOKENS // runner.BLOCK_SIZE
    assert doc_blocks == 64
    chains = {}
    for document, group in by_document.items():
        assert len(group) == 2
        pair = []
        for spec in group:
            _, k, v = wl.rag_tensors(5, spec)
            pair.append(_fingerprints(k[..., : spec.prompt_tokens, :], v[..., : spec.prompt_tokens, :], "int8"))
        shared = sum(1 for a, b in zip(*pair) if a == b)
        assert shared == doc_blocks
        chains[document] = pair[0][:doc_blocks]
    # different documents share nothing
    assert len({fp for chain in chains.values() for fp in chain}) == doc_blocks * wl.RAG_DOCUMENTS


def test_benchmark_json_matches_what_the_run_reports():
    from loadbench import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {w["name"] for w in spec["workloads"]} == set(wl.WORKLOADS)
    names = [m["name"] for m in spec["per_layer"]]
    assert sorted(names) == sorted(runner.PER_LAYER)
    assert spec["paths"] == ["loadbench"]
