"""Tests for transaction queues and write-drain watermarks."""

import pytest

from repro.controller.mapping import skylake_mapping
from repro.controller.queue import QueueConfig, TransactionQueues
from repro.controller.transaction import Transaction, TransactionKind

MAPPING = skylake_mapping()


def txn(kind=TransactionKind.READ, address=0):
    return Transaction(kind=kind, address=address,
                       coords=MAPPING.decode(address))


def read():
    return txn(TransactionKind.READ)


def write():
    return txn(TransactionKind.WRITE)


class TestQueueConfig:
    def test_default_is_valid(self):
        QueueConfig()

    def test_rejects_low_above_high(self):
        with pytest.raises(ValueError):
            QueueConfig(drain_high=8, drain_low=24)

    def test_rejects_high_above_depth(self):
        with pytest.raises(ValueError):
            QueueConfig(write_depth=16, drain_high=24, drain_low=8)

    def test_rejects_zero_read_depth(self):
        with pytest.raises(ValueError):
            QueueConfig(read_depth=0)


class TestAdmission:
    def test_enqueue_stamps_arrival(self):
        q = TransactionQueues()
        t = read()
        q.enqueue(t, 123)
        assert t.arrival_time == 123
        assert len(q) == 1

    def test_has_room_tracks_depth(self):
        q = TransactionQueues(QueueConfig(read_depth=2))
        q.enqueue(read(), 0)
        assert q.has_room(True)
        q.enqueue(read(), 1)
        assert not q.has_room(True)
        assert q.has_room(False)  # write queue independent

    def test_enqueue_full_raises(self):
        q = TransactionQueues(QueueConfig(read_depth=1))
        q.enqueue(read(), 0)
        with pytest.raises(ValueError):
            q.enqueue(read(), 1)

    def test_remove(self):
        q = TransactionQueues()
        t = read()
        q.enqueue(t, 0)
        q.remove(t)
        assert not q.pending()


class TestDrainPolicy:
    def test_reads_have_priority(self):
        q = TransactionQueues()
        q.enqueue(read(), 0)
        q.enqueue(write(), 0)
        assert q.schedulable() == q.reads

    def test_opportunistic_drain_when_no_reads(self):
        q = TransactionQueues()
        q.enqueue(write(), 0)
        assert q.schedulable() == q.writes
        assert not q.draining  # opportunistic, not forced

    def test_forced_drain_at_high_watermark(self):
        cfg = QueueConfig(drain_high=4, drain_low=2)
        q = TransactionQueues(cfg)
        q.enqueue(read(), 0)
        for i in range(4):
            q.enqueue(write(), i)
        assert q.schedulable() == q.writes
        assert q.draining

    def test_drain_continues_until_low_watermark(self):
        cfg = QueueConfig(drain_high=4, drain_low=2)
        q = TransactionQueues(cfg)
        q.enqueue(read(), 0)
        writes = [write() for _ in range(4)]
        for w in writes:
            q.enqueue(w, 0)
        q.schedulable()
        q.remove(writes[0])
        assert q.schedulable() == q.writes  # 3 writes > low
        q.remove(writes[1])
        assert q.schedulable() == q.reads  # 2 writes <= low: back to reads
        assert not q.draining

    def test_empty_queues_schedulable_empty(self):
        q = TransactionQueues()
        assert q.schedulable() == []
        assert not q.pending()


class TestIdentityRemoval:
    """A transaction is one request, not a value: removal must take out
    that very object even when an earlier entry is field-for-field
    equal to it."""

    def test_value_equal_transactions_are_distinct(self):
        a, b = read(), read()
        assert a is not b and a != b
        assert a == a

    def test_remove_takes_the_identical_transaction(self):
        q = TransactionQueues()
        a, b = read(), read()
        q.enqueue(a, 5)
        q.enqueue(b, 5)
        q.remove(b)
        assert len(q.reads) == 1 and q.reads[0] is a
        q.remove(a)
        assert not q.pending()

    def test_is_read_is_fixed_at_construction(self):
        assert read().is_read is True
        assert write().is_read is False
