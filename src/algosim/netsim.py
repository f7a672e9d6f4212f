"""Synchronous in-process broadcast.

Every message queued during a step is delivered to every node at the next
step boundary, in send order; nothing is lost, duplicated or reordered.  This
is the network assumption of the paper's protocol: every honest message
reaches everyone.  The engine sends each step's messages in committee order,
ascending by user and at most one per member, so send order is committee
order.  After a step every node's inbox is the same list, `inbox_common()`,
and the engine reads that one list.
"""

from __future__ import annotations

from .crypto import UserId


class Network:
    def __init__(self):
        self.node_ids: set[UserId] = set()
        self._queue: list = []
        self._delivered: list = []

    def add_node(self, node: UserId) -> None:
        self.node_ids.add(node)

    def broadcast(self, sender: UserId, payload) -> None:
        if sender not in self.node_ids:
            raise KeyError(f"unknown sender {sender}")
        self._queue.append(payload)

    def step(self) -> int:
        """Move queued payloads into inboxes; returns deliveries performed."""
        self._delivered, self._queue = self._queue, []
        return len(self._delivered) * len(self.node_ids)

    def inbox_common(self) -> list:
        """Payloads delivered at the last step boundary (every node's inbox)."""
        return self._delivered
