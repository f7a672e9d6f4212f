"""Synchronous in-process message propagation.

Every message queued during a step is delivered to every node at the next
step boundary; nothing is lost, duplicated or reordered beyond the documented
(sender, sequence) ordering.  Engine traffic is broadcast-only, so after a
step every node's inbox equals `inbox_common()` and the engine reads that one
list; targeted delivery (`send_to`) exists solely as the adversarial
equivocation hook the worst-case safety tests need.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .crypto import UserId


@dataclass(frozen=True)
class Envelope:
    sender: UserId
    round: int
    step: int
    payload: object
    seq: int
    recipients: frozenset[UserId] | None = None  # None means everyone


@dataclass
class Network:
    node_ids: set[UserId] = field(default_factory=set)
    _queue: list[Envelope] = field(default_factory=list)
    _delivered: list[Envelope] = field(default_factory=list)
    _seq: int = 0

    def add_node(self, node: UserId) -> None:
        self.node_ids.add(node)

    def broadcast(self, sender: UserId, payload, round: int, step: int) -> None:
        if sender not in self.node_ids:
            raise KeyError(f"unknown sender {sender}")
        self._queue.append(Envelope(sender, round, step, payload, self._seq))
        self._seq += 1

    def send_to(self, sender: UserId, recipients, payload,
                round: int, step: int) -> None:
        """Equivocation hook: deliver `payload` to `recipients` only."""
        self._queue.append(Envelope(sender, round, step, payload, self._seq,
                                    frozenset(recipients)))
        self._seq += 1

    def step(self) -> int:
        """Move queued envelopes into inboxes; returns deliveries performed."""
        self._queue.sort(key=lambda e: (e.sender, e.seq))
        self._delivered = self._queue
        self._queue = []
        return sum(len(self.node_ids) if e.recipients is None else len(e.recipients)
                   for e in self._delivered)

    def inbox(self, node: UserId) -> list:
        """Payloads delivered to `node` at the last step boundary."""
        return [e.payload for e in self._delivered
                if e.recipients is None or node in e.recipients]

    def inbox_common(self) -> list:
        """Broadcast payloads from the last step (every node received these)."""
        return [e.payload for e in self._delivered if e.recipients is None]
