"""Concurrency stress: a thread-pool of decode streams over one tiny BlockPool.

Worker threads each open paged sessions against a shared
:class:`~repro.serve.AttentionServer` whose pool is deliberately far too
small for everyone at once, so admission pressure (rejections, retries,
evictions) is constant.  Every stream's tensors come from the shared
simulation harness's seeded sampler, rooted at ``REPRO_FUZZ_SEED`` — one
seeded driver feeds all randomized serving workloads, and a failure here
replays from the same environment variable as the fuzz and simulation
sweeps.  The assertions:

* the run terminates (no deadlock under the pool lock / admission retries);
* every stream's outputs equal its one-shot oracle — no session ever
  observes another session's KV rows through a shared or recycled block;
* a step batch that fails on pool exhaustion advances **no** session's block
  table or position (the PR 3 atomicity guarantee extended to paged state);
* when the dust settles the pool accounts for every block.
"""

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from harness.simulation import fuzz_seeds, stream_tensors
from repro.core.engine import GraphAttentionEngine
from repro.masks.windowed import LocalMask
from repro.serve import (
    AttentionServer,
    BlockPool,
    PoolExhausted,
)
from repro.serve.decode import DecodeSession, decode_reference_mask, stacked_decode_step
from repro.utils.rng import derive_seed

DIM = 4
MASK = LocalMask(window=5)
LENGTH = 24
PROMPT = 8
STREAMS_PER_WORKER = 6
WORKERS = 4
TIMEOUT_S = 60.0

#: Root of every stream seed in this module: the first replay seed, so
#: ``REPRO_FUZZ_SEED=<s>`` reproduces the exact same tensor streams here as
#: in the fuzz and simulation sweeps.
BASE_SEED = fuzz_seeds(default_count=1)[0]


def _stream_qkv(*stream_labels):
    """Deterministic per-stream tensors derived from the shared base seed.

    Labels are integers only: ``derive_seed`` folds them through ``hash``,
    which is stable for ints regardless of ``PYTHONHASHSEED``.
    """
    seed = derive_seed(BASE_SEED, *stream_labels)
    return stream_tensors({"length": LENGTH, "seed": seed})


def _oracle(q, k, v):
    return GraphAttentionEngine().run(
        q, k, v, decode_reference_mask(MASK, LENGTH)
    ).output


def test_threaded_streams_tiny_pool_no_deadlock_no_leaks():
    server = AttentionServer(cache_capacity=8)
    # 18 blocks of 4 tokens: each 24-token stream wants 6, so at most 3
    # streams fit concurrently against 4 workers — permanent pressure
    pool = server.create_block_pool(key_dim=DIM, num_blocks=18, block_size=4)
    failures = []
    admission_lock = threading.Lock()  # serialises open/close vs. admission

    def _worker(worker_id):
        for stream in range(STREAMS_PER_WORKER):
            # every worker decodes a distinct stream: any cross-session block
            # aliasing would corrupt someone's outputs vs. their oracle
            q, k, v = _stream_qkv(worker_id, stream)
            for _ in range(10_000):  # bounded retry; a deadlock trips the bound
                try:
                    with admission_lock:
                        session = server.open_session(MASK, LENGTH, retain_outputs=True, reserve_tokens=LENGTH)
                except PoolExhausted:
                    time.sleep(0.0002)  # back off while others hold the pool
                    continue
                try:
                    session.prefill(q[:PROMPT], k[:PROMPT], v[:PROMPT])
                    for i in range(PROMPT, LENGTH):
                        session.step(q[i], k[i], v[i])
                except PoolExhausted:
                    # admission is a heuristic, not a reservation: a racing
                    # stream took the blocks first — give ours back and retry
                    with admission_lock:
                        server.close_decode_session(session)
                    continue
                except Exception as error:  # pragma: no cover - regression only
                    failures.append((worker_id, stream, repr(error)))
                    with admission_lock:
                        server.close_decode_session(session)
                    return
                if not np.allclose(session.outputs(), _oracle(q, k, v), atol=1e-6):
                    failures.append((worker_id, stream, "outputs diverged"))
                with admission_lock:
                    server.close_decode_session(session)
                break
            else:
                failures.append((worker_id, stream, "admission starved"))
                return

    with ThreadPoolExecutor(max_workers=WORKERS) as executor:
        futures = [executor.submit(_worker, w) for w in range(WORKERS)]
        for future in futures:
            future.result(timeout=TIMEOUT_S)  # deadlock -> TimeoutError

    assert not failures, failures
    assert pool.blocks_in_use == 0
    pool.check_consistency()
    # every stream completed (retries may add extra open/close pairs)
    assert server.stats.sessions_closed >= WORKERS * STREAMS_PER_WORKER
    server.close()


def test_unserialised_paged_opens_never_overcommit_the_pool():
    """Opens racing with no outside lock: each grant is all-or-nothing.

    Every worker opens two-block sessions until the pool refuses it; nothing
    closes meanwhile, so exactly ``num_blocks // 2`` opens can succeed and
    each worker is refused exactly once.
    """
    server = AttentionServer(cache_capacity=8)
    pool = server.create_block_pool(key_dim=DIM, num_blocks=65, block_size=4)
    start = threading.Barrier(WORKERS)

    def _worker():
        sessions = []
        start.wait(timeout=TIMEOUT_S)
        # bounded: a grant that held no blocks would otherwise never refuse
        for _ in range(pool.num_blocks + 1):
            try:
                sessions.append(
                    server.open_session(MASK, LENGTH, reserve_tokens=8)
                )
            except PoolExhausted:
                return sessions
            assert pool.blocks_in_use <= pool.num_blocks
        raise AssertionError("the pool never refused this worker")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often: races show sooner
    try:
        with ThreadPoolExecutor(max_workers=WORKERS) as executor:
            futures = [executor.submit(_worker) for _ in range(WORKERS)]
            sessions = [s for future in futures for s in future.result(timeout=TIMEOUT_S)]
    finally:
        sys.setswitchinterval(interval)

    assert len(sessions) == pool.num_blocks // 2
    assert sum(s.cache.prereserved_blocks for s in sessions) == pool.blocks_in_use
    assert pool.blocks_in_use == 2 * len(sessions) <= pool.num_blocks
    pool.check_consistency()
    assert server.stats.admission_rejected == WORKERS
    for session in sessions:
        server.close_decode_session(session)
    assert pool.blocks_in_use == 0
    pool.check_consistency()
    assert server.stats.sessions_closed == len(sessions)
    server.close()


def test_shared_prompt_under_pressure_all_streams_correct():
    """Many streams of one prompt fit where private copies could not."""
    server = AttentionServer()
    # 2 shared prompt blocks + one private tail block per stream: 8 streams
    # need 2 + 8 = 10 blocks; private copies would need 8 * 3 = 24
    pool = server.create_block_pool(key_dim=DIM, num_blocks=12, block_size=4)
    q, k, v = _stream_qkv(77)
    oracle = _oracle(q, k, v)
    sessions = []
    for _ in range(8):
        session = server.open_session(MASK, LENGTH, retain_outputs=True)
        session.prefill(q[:PROMPT], k[:PROMPT], v[:PROMPT])
        sessions.append(session)
    assert pool.blocks_in_use <= 2 + len(sessions)  # shared prompt paid once
    for i in range(PROMPT, PROMPT + 4):
        server.decode_steps([(s, q[i], k[i], v[i]) for s in sessions])
    for session in sessions:
        np.testing.assert_allclose(
            session.outputs(), oracle[: PROMPT + 4], atol=1e-6, rtol=1e-6
        )
        server.close_decode_session(session)
    assert pool.blocks_in_use == 0
    server.close()


def test_failed_step_batch_advances_no_block_table():
    """Pool exhaustion mid-batch must leave every session exactly as it was."""
    pool = BlockPool(4, 2, key_dim=DIM)
    sessions = [DecodeSession.start(MASK, LENGTH, pool=pool) for _ in range(2)]
    q, k, v = _stream_qkv(5)
    # distinct prompts (no sharing): each session owns 2 blocks, pool is full
    sessions[0].prefill(q[:4], k[:4], v[:4])
    sessions[1].prefill(q[4:8], k[4:8], v[4:8])
    assert pool.available_blocks == 0

    before = [
        (s.position, s.steps_taken, s.cache.block_table, s.cache.length)
        for s in sessions
    ]
    with pytest.raises(PoolExhausted):
        stacked_decode_step(
            sessions,
            [q[8], q[8]],
            [k[8], k[8]],
            [v[8], v[8]],
        )
    after = [
        (s.position, s.steps_taken, s.cache.block_table, s.cache.length)
        for s in sessions
    ]
    assert before == after
    assert pool.blocks_in_use == 4
    pool.check_consistency()

    # freeing one session's blocks lets the other proceed where it left off
    sessions[1].close()
    result = sessions[0].step(q[4], k[4], v[4])
    assert result.meta["position"] == 4


def test_failed_single_step_leaves_session_unchanged():
    pool = BlockPool(1, 4, key_dim=DIM)
    session = DecodeSession.start(MASK, LENGTH, pool=pool)
    q, k, v = _stream_qkv(6)
    session.prefill(q[:4], k[:4], v[:4])  # fills the only block
    state = (session.position, session.cache.block_table, pool.blocks_in_use)
    with pytest.raises(PoolExhausted):
        session.step(q[4], k[4], v[4])
    assert (session.position, session.cache.block_table, pool.blocks_in_use) == state
    pool.check_consistency()
