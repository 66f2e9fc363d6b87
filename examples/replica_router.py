"""Multi-replica serving: prefix-affinity routing, rebalancing, sharding.

Walks the PR's placement layer end to end:

1. ``ServingClient(replicas=4)`` — the one-line opt-in: the client builds a
   :class:`repro.serve.ReplicaRouter` fanning streams across four worker
   replicas, each with its own continuous-batching loop and paged KV pool.
2. Prefix-affinity routing — streams sharing a warm K/V prompt land on the
   replica already holding those blocks (one cold miss per prefix family,
   hits for everyone after), and every routed output is bit-identical to a
   single-replica run.
3. Rebalancing — an adversarial workload piles every stream onto one
   replica; the ``balanced_worker_bins`` partitioner spreads the waiting
   streams back out, moving only streams that have not computed anything.
4. Sharded execution — a prompt too large for any one replica's pool runs
   as K/V-parallel attention across the replicas, online-softmax partials
   merged at the router, with the communication volume priced by the same
   stats the ``repro.distributed`` layer reports.

Run:  PYTHONPATH=src python examples/replica_router.py [--quick]
"""

import argparse

import numpy as np

from repro.masks import CausalMask
from repro.serve import LoopRequest, ReplicaRouter, ServingClient

DIM = 8
PROMPT = 16
TOTAL = 24
BLOCK_SIZE = 4


def _families(num_families, per_family, rng, total=TOTAL):
    """Streams in prefix families: shared K/V prompt, private queries/tails."""
    specs = []
    for _ in range(num_families):
        pk = rng.normal(size=(PROMPT, DIM)).astype(np.float32)
        pv = rng.normal(size=(PROMPT, DIM)).astype(np.float32)
        for _ in range(per_family):
            tail = total - PROMPT
            specs.append(
                LoopRequest(
                    q=rng.normal(size=(total, DIM)).astype(np.float32),
                    k=np.concatenate(
                        [pk, rng.normal(size=(tail, DIM)).astype(np.float32)]
                    ),
                    v=np.concatenate(
                        [pv, rng.normal(size=(tail, DIM)).astype(np.float32)]
                    ),
                    mask=CausalMask(),
                    prompt_tokens=PROMPT,
                )
            )
    return specs


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="run a reduced configuration")
    args = parser.parse_args()
    rng = np.random.default_rng(0)
    per_family = 3 if args.quick else 6

    # 1) + 2) the client facade: replicas=4, affinity routing, bit-exactness
    print(f"== ServingClient(replicas=4): {4 * per_family} streams in 4 prefix families")
    requests = _families(4, per_family, rng)
    with ServingClient(replicas=4, key_dim=DIM, block_size=BLOCK_SIZE) as client:
        routed = [response.output for response in client.generate_many(requests)]
        stats = client.router.stats
        print(
            f"   routed {stats.routed} streams: {stats.route_hits} warm hits, "
            f"{stats.route_misses} cold misses "
            f"(hit rate {stats.route_hit_rate:.2f} — one miss per family)"
        )
    oracle_requests = _families(4, per_family, np.random.default_rng(0))
    with ServingClient(replicas=1, key_dim=DIM, block_size=BLOCK_SIZE) as client:
        oracle = [response.output for response in client.generate_many(oracle_requests)]
    for got, want in zip(routed, oracle):
        np.testing.assert_array_equal(got, want)
    print(f"   all {len(routed)} routed outputs bit-identical to the 1-replica run")

    # 3) rebalancing under adversarial skew: one family, every stream warm
    # on one replica, max_streams=1 so the rest wait — until the partitioner
    # spreads them
    print("== Rebalancing: 8 identical-prefix streams piled on one replica")
    router = ReplicaRouter(
        4,
        key_dim=DIM,
        num_blocks=16,
        block_size=BLOCK_SIZE,
        max_streams=1,
        rebalance_interval=2,
    )
    for request in _families(1, 8, rng):
        router.submit(request)
    print(f"   loads before: {router.replica_loads().tolist()} pending tokens")
    router.run()
    record = router.last_rebalance
    print(
        f"   rebalance: {router.stats.rebalance_passes} passes moved "
        f"{router.stats.moved_streams} waiting streams along "
        f"balanced_worker_bins (last pass spread {len(record.costs)} streams "
        f"over {len(record.bins)} bins)"
    )
    assert router.loop_stats().finished == 8
    router.close()

    # 4) sharded execution: a prompt no single replica pool can hold
    print("== Sharding: one 40-token prompt vs 4-block replica pools")
    big = 40
    router = ReplicaRouter(4, key_dim=DIM, num_blocks=4, block_size=BLOCK_SIZE)
    rid = router.submit(
        LoopRequest(
            q=rng.normal(size=(big, DIM)).astype(np.float32),
            k=rng.normal(size=(big, DIM)).astype(np.float32),
            v=rng.normal(size=(big, DIM)).astype(np.float32),
            mask=CausalMask(),
            prompt_tokens=big,
        )
    )
    print(
        f"   sharded across {router.num_replicas} ranks: output "
        f"{router.results[rid].shape}, {router.comm_stats.bytes_moved} bytes "
        f"moved in {router.comm_stats.messages} messages"
    )
    router.close()
    print("Done.")


if __name__ == "__main__":
    main()
