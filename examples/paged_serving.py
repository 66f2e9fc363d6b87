"""Paged serving quickstart: one prompt fanned out to 32 streams on a budget.

Demonstrates the paged KV-cache subsystem (``repro.serve.paging``):

1. give the server a **fixed KV memory budget** — ``create_block_pool``
   carves it into fixed-size K/V blocks behind a free list,
2. fan one prompt out to many concurrent decode streams (the best-of-N
   serving shape): every stream's prefill maps the *same* physical
   blocks via chained-hash prefix sharing, so the prompt is resident once,
3. decode a divergent continuation per stream — the shared partial tail
   block is copied-on-write at the first divergent token,
4. verify one stream bit-exactly against the same stream decoded alone on a
   pool of its own, and against the one-shot oracle,
5. print the occupancy / share-hit / copy-on-write statistics, plus what
   unshared per-stream copies would need,
6. repeat one stream on an **int8-quantized pool** (``storage="int8"``): the
   same budget carves ~3.5x the token slots, and the output error stays
   inside the documented bound (``repro.serve.attention_tolerance``).

Run:  python examples/paged_serving.py [--quick]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro import AttentionServer, GraphAttentionEngine, random_qkv
from repro.masks import longformer_mask
from repro.perfmodel.decode import kv_cache_bytes
from repro.serve import ServingClient, attention_tolerance
from repro.serve.decode import DecodeSession, decode_reference_mask
from repro.serve.paging import PoolExhausted


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="run a reduced configuration")
    parser.add_argument("--streams", type=int, default=None, help="concurrent streams")
    parser.add_argument("--dim", type=int, default=32, help="embedded dimension d_k")
    args = parser.parse_args()

    streams = args.streams or (8 if args.quick else 32)
    # deliberately not block-aligned: the shared prompt ends mid-block, so the
    # first divergent token of every stream copy-on-writes the shared tail
    prompt = 120 if args.quick else 504
    decode_tokens = 16 if args.quick else 64
    horizon = prompt + decode_tokens
    block_size, dim = 16, args.dim

    mask = longformer_mask(reach=16, global_tokens=(0,))
    print(
        f"== Paged serving: 1 prompt x {streams} streams, prompt={prompt}, "
        f"+{decode_tokens} tokens each, d_k={dim}, block_size={block_size}"
    )

    # budget: roughly 40% of what unshared copies of every stream would need —
    # prefix sharing is what makes the fan-out fit
    unshared_need = streams * kv_cache_bytes(horizon, dim, dtype="fp32")
    budget = int(unshared_need * 0.4)
    server = AttentionServer(cache_capacity=8)
    pool = server.create_block_pool(
        key_dim=dim, memory_budget_bytes=budget, block_size=block_size
    )
    print(
        f"   budget {budget / 1e6:.2f} MB -> {pool.num_blocks} blocks "
        f"({pool.num_blocks * block_size:,} token slots); unshared copies for "
        f"{streams} streams would need {unshared_need / 1e6:.2f} MB"
    )

    # one shared prompt, one divergent continuation per stream
    pq, pk, pv = random_qkv(prompt, dim, dtype=np.float32, seed=7)
    continuations = [
        random_qkv(decode_tokens, dim, dtype=np.float32, seed=1_000 + s)
        for s in range(streams)
    ]

    client = ServingClient(server)
    sessions = []
    for s in range(streams):
        try:
            session = client.open_session(mask, horizon, retain_outputs=True, reserve_tokens=0)
        except PoolExhausted:
            print(f"   admission rejected stream {s} — budget truly exhausted")
            break
        session.prefill(pq, pk, pv)  # maps the shared blocks, writes nothing new
        sessions.append(session)
    print(
        f"   prefilled {len(sessions)} streams: {pool.stats.share_hits} share "
        f"hits, {pool.stats.shared_tokens_saved:,} prompt tokens deduplicated, "
        f"occupancy {server.stats.block_occupancy:.1%}"
    )

    for i in range(decode_tokens):
        server.decode_steps(
            [
                (session, continuations[s][0][i], continuations[s][1][i], continuations[s][2][i])
                for s, session in enumerate(sessions)
            ]
        )
    print(
        f"   decoded {decode_tokens} divergent tokens per stream: "
        f"{pool.stats.cow_copies} copy-on-write block copies, occupancy "
        f"{server.stats.block_occupancy:.1%} "
        f"({pool.used_bytes / 1e6:.2f} MB of {budget / 1e6:.2f} MB)"
    )

    # verification: stream 0 == stream 0 alone on its own pool == one-shot oracle
    q = np.concatenate([pq, continuations[0][0]])
    k = np.concatenate([pk, continuations[0][1]])
    v = np.concatenate([pv, continuations[0][2]])
    alone = DecodeSession.start(mask, horizon, retain_outputs=True)
    alone.prefill(pq, pk, pv)
    for i in range(decode_tokens):
        alone.step(continuations[0][0][i], continuations[0][1][i], continuations[0][2][i])
    np.testing.assert_array_equal(sessions[0].outputs(), alone.outputs())
    oracle = GraphAttentionEngine().run(q, k, v, decode_reference_mask(mask, horizon))
    np.testing.assert_allclose(sessions[0].outputs(), oracle.output, atol=1e-5, rtol=1e-5)
    print("   verified: shared pool == own pool (bit-exact) == one-shot oracle")

    for session in sessions:
        server.close_decode_session(session)
    print(
        f"   closed: occupancy {server.stats.block_occupancy:.1%}, "
        f"{pool.evictable_blocks} blocks parked warm for the next identical prompt"
    )
    server.close()

    # the same budget on an int8-quantized pool: quantize on write, dequantize
    # in the gather path, error bounded as an explicit function of the dtype
    int8_server = AttentionServer(cache_capacity=8)
    int8_pool = int8_server.create_block_pool(
        key_dim=dim, memory_budget_bytes=budget, block_size=block_size, storage="int8"
    )
    print(
        f"   int8 storage: the same {budget / 1e6:.2f} MB budget carves "
        f"{int8_pool.num_blocks} blocks vs {pool.num_blocks} at fp32 "
        f"({int8_pool.num_blocks / pool.num_blocks:.2f}x the token slots)"
    )
    int8_session = ServingClient(int8_server).open_session(mask, horizon, retain_outputs=True, reserve_tokens=0)
    int8_session.prefill(pq, pk, pv)
    cq, ck, cv = continuations[0]
    for i in range(decode_tokens):
        int8_server.decode_step(int8_session, cq[i], ck[i], cv[i])
    amplitude = max(float(np.abs(k).max()), float(np.abs(v).max()))
    bound = max(attention_tolerance("int8", amplitude, dim), 1e-5)
    err = float(np.abs(int8_session.outputs() - oracle.output).max())
    assert err <= bound, f"int8 error {err:.2e} exceeds bound {bound:.2e}"
    print(
        f"   int8 verified: max |err| {err:.2e} <= documented bound {bound:.2e} "
        f"vs the fp32 oracle"
    )
    int8_server.close_decode_session(int8_session)
    int8_server.close()


if __name__ == "__main__":
    main()
