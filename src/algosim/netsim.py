"""Synchronous in-process broadcast.

Every message queued during a step is delivered to every node at the next
step boundary; nothing is lost, duplicated or reordered beyond the documented
(sender, sequence) ordering.  This is the network assumption of the paper's
protocol: every honest message reaches everyone.  After a step every node's
inbox is the same list, `inbox_common()`, and the engine reads that one list.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .crypto import UserId


@dataclass(frozen=True)
class Envelope:
    sender: UserId
    payload: object
    seq: int


@dataclass
class Network:
    node_ids: set[UserId] = field(default_factory=set)
    _queue: list[Envelope] = field(default_factory=list)
    _delivered: list[Envelope] = field(default_factory=list)
    _seq: int = 0

    def add_node(self, node: UserId) -> None:
        self.node_ids.add(node)

    def broadcast(self, sender: UserId, payload) -> None:
        if sender not in self.node_ids:
            raise KeyError(f"unknown sender {sender}")
        self._queue.append(Envelope(sender, payload, self._seq))
        self._seq += 1

    def step(self) -> int:
        """Move queued envelopes into inboxes; returns deliveries performed."""
        self._queue.sort(key=lambda e: (e.sender, e.seq))
        self._delivered = self._queue
        self._queue = []
        return len(self._delivered) * len(self.node_ids)

    def inbox_common(self) -> list:
        """Payloads delivered at the last step boundary (every node's inbox)."""
        return [e.payload for e in self._delivered]
