"""Tests for the simulated communicator."""

import numpy as np
import pytest

from repro.distributed.comm import CommunicationStats, SimulatedWorld


class TestCollectives:
    def test_allgather_concatenates_in_rank_order(self):
        world = SimulatedWorld(3)
        shards = [np.full((2, 2), r, dtype=np.float32) for r in range(3)]
        gathered = world.allgather(shards)
        assert gathered.shape == (6, 2)
        np.testing.assert_array_equal(gathered[0], [0, 0])
        np.testing.assert_array_equal(gathered[4], [2, 2])

    def test_allgather_byte_accounting(self):
        world = SimulatedWorld(4)
        shards = [np.zeros(10, dtype=np.float64) for _ in range(4)]
        world.allgather(shards)
        # each of the 4 ranks receives the 3 shards it does not own: 4*3*80 bytes
        assert world.stats.bytes_moved == 4 * 3 * 80
        assert world.stats.collectives["allgather"] == 1

    def test_allreduce_sum_and_max(self):
        world = SimulatedWorld(3)
        shards = [np.array([1.0, 2.0]), np.array([3.0, 1.0]), np.array([0.0, 5.0])]
        np.testing.assert_array_equal(world.allreduce(shards, op="sum"), [4.0, 8.0])
        np.testing.assert_array_equal(world.allreduce(shards, op="max"), [3.0, 5.0])
        np.testing.assert_array_equal(world.allreduce(shards, op="min"), [0.0, 1.0])

    def test_allreduce_shape_mismatch_rejected(self):
        world = SimulatedWorld(2)
        with pytest.raises(ValueError):
            world.allreduce([np.zeros(2), np.zeros(3)])

    def test_allreduce_invalid_op(self):
        world = SimulatedWorld(2)
        with pytest.raises(ValueError):
            world.allreduce([np.zeros(2), np.zeros(2)], op="prod")

    def test_broadcast(self):
        world = SimulatedWorld(3)
        copies = world.broadcast(np.arange(4), root=1)
        assert len(copies) == 3
        for copy in copies:
            np.testing.assert_array_equal(copy, np.arange(4))
        # copies are independent
        copies[0][0] = 99
        assert copies[1][0] == 0

    def test_scatter_rows(self):
        world = SimulatedWorld(2)
        full = np.arange(12).reshape(6, 2)
        shards = world.scatter_rows(full, [(0, 4), (4, 6)])
        np.testing.assert_array_equal(shards[0], full[:4])
        np.testing.assert_array_equal(shards[1], full[4:])

    def test_shard_count_validated(self):
        world = SimulatedWorld(3)
        with pytest.raises(ValueError):
            world.allgather([np.zeros(2)])

    def test_single_rank_world(self):
        world = SimulatedWorld(1)
        gathered = world.allgather([np.arange(3)])
        np.testing.assert_array_equal(gathered, np.arange(3))
        assert world.stats.bytes_moved == 0


class TestPointToPoint:
    def test_send_recv_roundtrip(self):
        world = SimulatedWorld(2)
        sender, receiver = world.comm(0), world.comm(1)
        sender.send(np.array([1.0, 2.0]), dest=1)
        np.testing.assert_array_equal(receiver.recv(source=0), [1.0, 2.0])
        assert world.pending_messages() == 0

    def test_messages_ordered_per_channel(self):
        world = SimulatedWorld(2)
        world.comm(0).send(np.array([1]), dest=1)
        world.comm(0).send(np.array([2]), dest=1)
        assert world.comm(1).recv(source=0)[0] == 1
        assert world.comm(1).recv(source=0)[0] == 2

    def test_recv_without_message_fails(self):
        world = SimulatedWorld(2)
        with pytest.raises(ValueError):
            world.comm(1).recv(source=0)

    def test_cannot_send_to_self(self):
        world = SimulatedWorld(2)
        with pytest.raises(ValueError):
            world.comm(0).send(np.zeros(1), dest=0)

    def test_sendrecv_ring_exchange(self):
        world = SimulatedWorld(3)
        comms = world.comms()
        # every rank sends to the next and receives from the previous
        for rank, comm in enumerate(comms):
            comm.send(np.array([rank]), dest=(rank + 1) % 3)
        for rank, comm in enumerate(comms):
            received = comm.recv(source=(rank - 1) % 3)
            assert received[0] == (rank - 1) % 3


class TestStats:
    def test_merge_and_reset(self):
        a = CommunicationStats()
        a.record("send", 100)
        b = CommunicationStats()
        b.record("allgather", 50)
        merged = a.merge(b)
        assert merged.bytes_moved == 150
        assert merged.messages == 2
        assert merged.collectives == {"send": 1, "allgather": 1}
        a.reset()
        assert a.bytes_moved == 0 and a.messages == 0
