"""Serving quickstart: compile once, cache the plan, serve many requests.

Demonstrates the attention serving subsystem (``repro.serve``):

1. build a composed Longformer mask (local window + global tokens),
2. compile it into an execution plan and inspect the kernel choice plus the
   predicted A100 runtime from the analytical device model,
3. stand up an ``AttentionServer`` and push a burst of repeated requests
   through it — the first request compiles the plan, the rest hit the cache,
4. compare warm-cache serving against dispatching every request through a
   fresh ``GraphAttentionEngine.run()`` call,
5. report cache hit rate, throughput and mean latency.

Run:  python examples/serving_quickstart.py [--quick]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro import AttentionRequest, AttentionServer, GraphAttentionEngine, random_qkv
from repro.core.dense import sdp_attention
from repro.masks import default_global_tokens, longformer_mask
from repro.perfmodel import A100_SXM4_80GB


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="run a reduced configuration")
    parser.add_argument("--length", type=int, default=None, help="context length L")
    parser.add_argument("--dim", type=int, default=32, help="embedded dimension d_k")
    parser.add_argument("--requests", type=int, default=None, help="requests to serve")
    args = parser.parse_args()

    length = args.length or (512 if args.quick else 2_048)
    num_requests = args.requests or (40 if args.quick else 400)
    reach = 16 if args.quick else 50
    dim = args.dim

    mask = longformer_mask(reach=reach, global_tokens=default_global_tokens(length, 2))
    print(f"== Serving quickstart: Longformer Loc+Glo, L={length:,}, d_k={dim}, N={num_requests}")
    print(f"   mask: {mask.describe()}")

    # 1) compile the execution plan once, with a predicted A100 runtime
    server = AttentionServer(cache_capacity=8, device=A100_SXM4_80GB, head_dim=dim)
    start = time.perf_counter()
    plan, _ = server.plan_for(mask, length)
    compile_seconds = time.perf_counter() - start
    print(f"   compiled plan: kernels = {' + '.join(plan.kernels)}, nnz = {plan.nnz:,} "
          f"(Sf = {plan.sparsity_factor:.4f})")
    print(f"   compile cost: {compile_seconds * 1e3:.1f} ms (paid once, then cached)")
    print(f"   predicted A100 runtime per request: {plan.predicted.seconds * 1e6:.1f} us")

    # 2) serve a burst of repeated requests through the warm cache
    requests = []
    for i in range(num_requests):
        q, k, v = random_qkv(length, dim, seed=1_000 + i)
        requests.append(AttentionRequest(q=q, k=k, v=v, mask=mask))
    start = time.perf_counter()
    responses = server.serve(requests)
    serve_seconds = time.perf_counter() - start

    # 3) the same work dispatched per request through a bare engine
    engine = GraphAttentionEngine()
    start = time.perf_counter()
    for request in requests:
        engine.run(request.q, request.k, request.v, mask)
    engine_seconds = time.perf_counter() - start

    # 4) verify one response against the dense reference
    probe = requests[0]
    reference = sdp_attention(probe.q, probe.k, probe.v, mask).output
    max_err = float(np.abs(responses[0].output - reference).max())
    print(f"   dense-reference check on request 0: max abs err {max_err:.2e}")

    stats = server.stats
    print(f"   cache: {stats.cache.hits} hits / {stats.cache.misses} misses "
          f"(hit rate {stats.cache.hit_rate:.1%}), {stats.plans_compiled} plan(s) compiled")
    print(f"   warm serving : {serve_seconds:8.3f} s total, "
          f"{serve_seconds / num_requests * 1e3:7.2f} ms/request, "
          f"{stats.throughput_rps:8.1f} req/s")
    print(f"   engine.run() : {engine_seconds:8.3f} s total, "
          f"{engine_seconds / num_requests * 1e3:7.2f} ms/request")
    print(f"   per-request speedup from plan caching: {engine_seconds / serve_seconds:.2f}x")
    print("Done.")


if __name__ == "__main__":
    main()
