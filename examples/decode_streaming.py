"""Streaming decode quickstart: KV-cache sessions + continuous batching.

Demonstrates the incremental decoding subsystem (``repro.serve.decode``):

1. build a composed Longformer mask (local window + global tokens),
2. open several concurrent ``DecodeSession`` streams against one
   ``AttentionServer`` — the decode-mode plan (per-row stencil program) is
   compiled once and shared through the plan cache; the server has no block
   pool, so each session pages through a pool of its own,
3. prefill each stream's prompt, then stream new tokens through
   ``server.decode_steps`` — every stream's step runs in one ragged kernel
   pass, whatever its mask and position (continuous batching),
4. verify a stream against a one-shot ``engine.run`` over the causally
   clipped reference mask,
5. report per-token cost, KV blocks used and coalescing statistics.

Run:  python examples/decode_streaming.py [--quick]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro import AttentionServer, GraphAttentionEngine, random_qkv
from repro.masks import longformer_mask
from repro.perfmodel.decode import kv_cache_bytes
from repro.serve import ServingClient
from repro.serve.decode import decode_reference_mask


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="run a reduced configuration")
    parser.add_argument("--streams", type=int, default=4, help="concurrent decode sessions")
    parser.add_argument("--dim", type=int, default=32, help="embedded dimension d_k")
    args = parser.parse_args()

    horizon = 256 if args.quick else 1_024
    prompt = horizon // 4
    reach = 16 if args.quick else 50
    dim, streams = args.dim, args.streams

    mask = longformer_mask(reach=reach, global_tokens=(0,))
    print(
        f"== Streaming decode: Longformer Loc+Glo, horizon={horizon:,}, "
        f"prompt={prompt}, d_k={dim}, {streams} concurrent streams"
    )

    with AttentionServer(cache_capacity=8) as server:
        client = ServingClient(server)
        # 1) open the sessions; the decode plan compiles once and is shared
        sessions = [
            client.open_session(mask, horizon, retain_outputs=True)
            for _ in range(streams)
        ]
        hits = sum(1 for s in sessions if s.plan_cache_hit)
        print(f"   decode plan: {sessions[0].plan.describe()}")
        print(f"   plan cache: {hits}/{streams} sessions reused the compiled plan")

        # 2) prefill each stream's prompt in one vectorized causal pass
        data = [random_qkv(horizon, dim, seed=100 + s) for s in range(streams)]
        start = time.perf_counter()
        for session, (q, k, v) in zip(sessions, data):
            session.prefill(q[:prompt], k[:prompt], v[:prompt])
        prefill_seconds = time.perf_counter() - start
        print(
            f"   prefill: {prompt} tokens/stream in {prefill_seconds * 1e3:.1f} ms "
            f"({sessions[0].ops.dot_products:,} causal edges each)"
        )

        # 3) stream the remaining tokens; concurrent steps coalesce
        start = time.perf_counter()
        for i in range(prompt, horizon):
            server.decode_steps(
                [
                    (session, data[s][0][i], data[s][1][i], data[s][2][i])
                    for s, session in enumerate(sessions)
                ]
            )
        decode_seconds = time.perf_counter() - start
        tokens = (horizon - prompt) * streams
        stats = server.stats
        print(
            f"   decode: {tokens:,} tokens in {decode_seconds:.3f} s "
            f"({decode_seconds / tokens * 1e6:.0f} us/token, "
            f"{stats.decode_steps_per_second:,.0f} tokens/s)"
        )
        print(
            f"   continuous batching: {stats.decode_stacked_executions} stacked passes "
            f"covered {stats.decode_coalesced_steps} of {stats.decode_steps} steps"
        )
        cache = sessions[0].cache
        print(
            f"   KV cache/stream: {cache.length} tokens in {cache.blocks_used} blocks of "
            f"{cache.pool.block_size} ({cache.nbytes / 1024:.0f} KiB mapped; fp16 would hold "
            f"{kv_cache_bytes(horizon, dim, dtype='fp16') / 1024:.0f} KiB)"
        )

        # 4) verify stream 0 against the one-shot causal reference
        q, k, v = data[0]
        reference = GraphAttentionEngine().run(q, k, v, decode_reference_mask(mask, horizon))
        max_err = float(np.abs(sessions[0].outputs() - reference.output).max())
        print(f"   one-shot reference check on stream 0: max abs err {max_err:.2e}")
        assert max_err < 1e-6, "incremental decode diverged from the one-shot reference"
    print("Done.")


if __name__ == "__main__":
    main()
