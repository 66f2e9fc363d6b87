"""Whole-system properties of the continuous-batching loop via the harness.

Every test here runs complete simulated workloads through
``tests/harness/simulation.py`` — Poisson arrivals on a virtual clock,
random masks, policies, preemption modes and pool tightness — and relies on
the harness's built-in invariants: no lost or duplicated tokens, outputs
bit-exact against per-request decode replays (and ``engine.run`` within
float tolerance), refcounts zero at drain.  Failures print the replay seed:

    REPRO_FUZZ_SEED=<seed> pytest tests/test_serve_loop_properties.py -k seed_sweep
"""

import pytest
from hypothesis import given, settings

from harness.simulation import (
    PROFILES,
    build_workload,
    run_simulation,
    sample_workload,
    sim_seeds,
    workload_strategy,
)


class TestWorkloadProperties:
    @given(workload=workload_strategy())
    def test_random_workloads_preserve_all_invariants(self, workload):
        run_simulation(workload)

    @settings(max_examples=10)
    @given(workload=workload_strategy(max_requests=3))
    def test_storm_tight_pools_still_drain(self, workload):
        # re-pin the pool at the feasibility edge: maximal admission pressure
        storm = build_workload(
            [
                {
                    "mask": spec.mask_index,
                    "prompt": spec.prompt,
                    "decode": spec.total - spec.prompt,
                    "gap": 0.0,
                    "seed": spec.seed,
                }
                for spec in workload.specs
            ],
            extra_blocks=0,
            block_size=workload.block_size,
            max_streams=workload.max_streams,
            prefill_chunk=workload.prefill_chunk,
            policy=workload.policy,
            policy_seed=workload.policy_seed,
            preemption=workload.preemption,
        )
        run_simulation(storm)


@pytest.mark.parametrize("seed", sim_seeds())
def test_seed_sweep(seed):
    """Seed-addressable simulation sweep; failures name their replay seed.

    The CI ``sim`` job pins ``REPRO_FUZZ_SEED`` per matrix entry (5 seeds);
    the nightly run raises ``REPRO_SIM_SEED_COUNT`` to 20 per entry, turning
    the same matrix into a 100-seed sweep.
    """
    run_simulation(sample_workload(seed))


def test_acceptance_workload_exercises_preemption_and_swap_in():
    """A pinned workload whose run provably preempts and swaps back in.

    The acceptance criterion demands bit-exactness on runs containing at
    least one preemption and one swap-in; the harness's invariants check the
    bit-exactness, this test pins a deterministic workload where both
    mechanisms demonstrably fire.
    """
    workload = build_workload(
        [
            {"mask": 0, "prompt": 8, "decode": 8, "gap": 0.0, "seed": 1},
            {"mask": 0, "prompt": 8, "decode": 8, "gap": 0.0, "seed": 2},
            {"mask": 0, "prompt": 8, "decode": 8, "gap": 0.0, "seed": 3},
        ],
        extra_blocks=0,
        block_size=4,
        max_streams=3,
        prefill_chunk=4,
        policy="fcfs",
        preemption="swap",
    )
    report = run_simulation(workload)
    assert report.loop_stats.preemptions >= 1
    assert report.loop_stats.swap_outs >= 1
    assert report.loop_stats.swap_ins >= 1
    (swap,) = report.swap_stats  # a built workload runs on one replica
    assert swap.bytes_in == swap.bytes_out


@pytest.mark.parametrize("profile", range(len(PROFILES)), ids=PROFILES)
def test_every_tensor_profile_survives_a_swap_storm(profile):
    """The acceptance storm with every stream on one tensor profile.

    Peaked rows raise the softmax's row maximum at every key and
    collapse rows cross to flat ones mid-stream; swapped out and restored
    mid-decode, each stream must still equal its replay bit for bit (the
    harness's invariants), whatever its profile.
    """
    workload = build_workload(
        [
            {"mask": 0, "prompt": 8, "decode": 8, "gap": 0.0, "seed": seed, "profile": profile}
            for seed in (1, 2, 3)
        ],
        extra_blocks=0,
        block_size=4,
        max_streams=3,
        prefill_chunk=4,
        policy="fcfs",
        preemption="swap",
    )
    assert {spec.profile for spec in workload.specs} == {PROFILES[profile]}
    report = run_simulation(workload)
    assert report.loop_stats.preemptions >= 1
    assert report.loop_stats.swap_ins >= 1
    (swap,) = report.swap_stats
    assert swap.bytes_in == swap.bytes_out


def test_recompute_preemption_round_trip():
    """Same storm with recompute-from-prompt restores: still bit-exact."""
    workload = build_workload(
        [
            {"mask": 1, "prompt": 10, "decode": 6, "gap": 0.0, "seed": 4},
            {"mask": 1, "prompt": 10, "decode": 6, "gap": 0.0, "seed": 5},
        ],
        extra_blocks=0,
        block_size=4,
        max_streams=2,
        prefill_chunk=4,
        policy="fcfs",
        preemption="recompute",
    )
    report = run_simulation(workload)
    assert report.loop_stats.preemptions >= 1
    assert report.loop_stats.recompute_restores >= 1
    assert report.loop_stats.swap_outs == 0


def test_loop_coalesces_same_plan_streams():
    """Same-mask streams admitted together decode through stacked passes."""
    workload = build_workload(
        [
            {"mask": 0, "prompt": 4, "decode": 12, "gap": 0.0, "seed": 10 + i}
            for i in range(4)
        ],
        extra_blocks=40,
        block_size=4,
        max_streams=4,
        prefill_chunk=8,
        policy="fcfs",
    )
    report = run_simulation(workload)
    assert report.loop_stats.preemptions == 0
    (server,) = report.server_stats
    assert server.decode_stacked_executions > 0
    assert server.decode_coalesced_steps > 0
    assert server.prefill_stacked_executions > 0
