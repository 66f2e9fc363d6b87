"""The unified serving surface: ServingClient, streaming edge, tenant SLOs.

Walks the PR's public API end to end:

1. ``ServingClient.generate`` — one call from tensors to a verified output,
   routed through the continuous-batching loop.
2. ``client.agenerate`` / ``AsyncServingEdge`` — the same requests streamed
   chunk-by-chunk over asyncio, with two tenants: a best-effort ``batch``
   tenant and a rate-limited ``chat`` tenant carrying latency SLOs under the
   least-slack-first policy.
3. Tenant isolation — the chat tenant's token bucket throttles a burst at
   admission; the batch tenant cannot starve chat deadlines.

Run:  PYTHONPATH=src python examples/serving_edge.py [--quick]
"""

import argparse
import asyncio

import numpy as np

from repro.masks import longformer_mask
from repro.serve import (
    DecodeSession,
    LoopRequest,
    ServingClient,
    TenantConfig,
    TenantThrottled,
    VirtualClock,
)
from repro.utils.rng import random_qkv


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="run a reduced configuration")
    parser.add_argument("--dim", type=int, default=16, help="embedded dimension d_k")
    args = parser.parse_args()

    dim = args.dim
    prompt = 8 if args.quick else 32
    decode = 16 if args.quick else 64
    total = prompt + decode
    streams = 4 if args.quick else 8
    mask = longformer_mask(reach=4 if args.quick else 16, global_tokens=(0,))

    print(f"== Serving edge: prompt={prompt}, +{decode} decoded, d_k={dim}, {streams} streams")

    # 1) the one-call sync path
    client = ServingClient(
        key_dim=dim,
        num_blocks=streams * (total // 4 + 2),
        block_size=4,
        policy="slack",
        clock=VirtualClock(),
        tenants={"chat": TenantConfig(rate_per_second=1.0, burst=1)},
    )
    q, k, v = random_qkv(total, dim, dtype=np.float32, seed=3)
    result = client.generate(
        q, k, v, mask, prompt_tokens=prompt, tenant="chat", slo_latency_seconds=60.0
    )
    oracle = DecodeSession.start(mask, total, retain_outputs=True)
    oracle.prefill(q[:prompt], k[:prompt], v[:prompt])
    for i in range(prompt, total):
        oracle.step(q[i], k[i], v[i])
    np.testing.assert_array_equal(result.output, oracle.outputs())
    print(
        f"   client.generate: {result.output.shape} verified vs the session oracle, "
        f"slo_attained={result.slo_attained} "
        f"(slack {result.telemetry.slack_at_finish:+.1f}s at finish)"
    )

    # 2) + 3) the async streaming edge with two tenants
    async def streamed():
        chunks_seen = 0
        throttled = 0
        tasks = []
        for s in range(streams):
            tenant = "chat" if s % 2 == 0 else "batch"
            sq, sk, sv = random_qkv(total, dim, dtype=np.float32, seed=100 + s)
            slo = 10.0 * total if tenant == "chat" else None
            try:
                stream = await client.astream(
                    LoopRequest(
                        q=sq, k=sk, v=sv, mask=mask, prompt_tokens=prompt,
                        tenant=tenant, slo_latency_seconds=slo,
                    )
                )
            except TenantThrottled as error:
                throttled += 1
                print(f"   throttled at admission: {error}")
                continue

            async def consume(handle, data):
                nonlocal chunks_seen
                chunks = [chunk async for chunk in handle]
                chunks_seen += len(chunks)
                return np.concatenate(chunks, axis=-2), data

            tasks.append(asyncio.create_task(consume(stream, (sq, sk, sv))))
        outputs = await asyncio.gather(*tasks)
        await client.edge.shutdown(drain=True)
        return outputs, chunks_seen, throttled

    outputs, chunks_seen, throttled = asyncio.run(streamed())
    for output, (sq, sk, sv) in outputs:
        check = DecodeSession.start(mask, total, retain_outputs=True)
        check.prefill(sq[:prompt], sk[:prompt], sv[:prompt])
        for i in range(prompt, total):
            check.step(sq[i], sk[i], sv[i])
        np.testing.assert_array_equal(output, check.outputs())
    attained = sum(
        1
        for telemetry in client.scheduler.telemetry.values()
        if telemetry.slo_attained
    )
    print(
        f"   edge streamed {len(outputs)} streams bit-exact "
        f"({chunks_seen} chunks total), {throttled} submissions rate-throttled, "
        f"{attained} SLOs attained"
    )
    client.close()
    print("Done.")


if __name__ == "__main__":
    main()
