"""Memory transactions and DRAM coordinates.

A :class:`Transaction` is one cache-line read or write as seen by the memory
controller; :class:`DramCoordinates` is the fully decoded DRAM location the
address mapping produced for it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple, Optional


class TransactionKind(enum.Enum):
    READ = "read"
    WRITE = "write"


class DramCoordinates(NamedTuple):
    """A decoded DRAM location.

    ``bank`` is the bank index *within* its bank group; ``global_bank``
    flattens (group, bank).  ``subbank`` is 0 for full-bank organisations
    and 0/1 (left/right) for sub-banked ones.  ``column`` indexes cache
    lines within the (sub-)bank row.

    A named tuple: immutable and hashable like a frozen dataclass, but
    built in one C call, which matters because every admitted access
    decodes one.
    """

    channel: int
    rank: int
    bank_group: int
    bank: int
    subbank: int
    row: int
    column: int

    def global_bank(self, banks_per_group: int) -> int:
        return self.bank_group * banks_per_group + self.bank

    def bank_key(self, banks_per_group: int) -> tuple:
        """Hashable identity of the physical bank this maps to."""
        return (self.channel, self.rank,
                self.global_bank(banks_per_group))


@dataclass(eq=False)
class Transaction:
    """One cache-line memory request flowing through the controller.

    Equality is identity (``eq=False``): a transaction is one request,
    never a value, and the queues' ``list.remove`` then matches by
    ``is`` instead of comparing every field of every earlier entry.
    """

    kind: TransactionKind
    address: int
    coords: DramCoordinates
    #: Core that issued the request (index into the mix), -1 for synthetic.
    core: int = -1
    #: Position in the core's instruction stream (for ROB accounting).
    instruction: int = 0
    #: Time the request entered the controller queue (ps).
    arrival_time: int = -1
    #: Time the column command's data burst completed (ps); -1 if pending.
    completion_time: int = -1
    #: Scheduler caches (filled in by the controller on enqueue): the
    #: flattened bank index, target row slot, and the row's plane / MWL
    #: tag under the run's layout.  -1 / None mean "not computed yet".
    bank_index: int = -1
    slot: Optional[tuple] = None
    plane: Optional[int] = None
    mwl: Optional[int] = None
    #: Enqueue sequence number within the channel, assigned by the
    #: scheduler; the deterministic last-resort tie-break in FR-FCFS
    #: candidate selection.
    seq: int = -1
    #: ``kind is READ``, fixed at construction (the kind never changes);
    #: the scheduler and queues test it several times per command.
    is_read: bool = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.is_read = self.kind is TransactionKind.READ

    @property
    def queueing_latency(self) -> int:
        """Arrival to completion, the paper's Fig. 16a metric."""
        if self.completion_time < 0 or self.arrival_time < 0:
            raise ValueError("transaction has not completed")
        return self.completion_time - self.arrival_time
