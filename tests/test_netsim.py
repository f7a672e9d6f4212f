from algosim.netsim import Network


def make_net(n=4):
    net = Network()
    for u in range(1, n + 1):
        net.add_node(u)
    return net


def test_broadcast_reaches_every_inbox_once():
    net = make_net()
    net.broadcast(1, "hello")
    assert net.step() == 4
    assert net.inbox_common() == ["hello"]


def test_delivery_order_is_sender_then_sequence():
    net = make_net()
    net.broadcast(3, "c")
    net.broadcast(1, "a1")
    net.broadcast(1, "a2")
    net.step()
    assert net.inbox_common() == ["a1", "a2", "c"]


def test_no_delivery_without_step():
    net = make_net()
    net.broadcast(1, "x")
    assert net.inbox_common() == []


def test_step_with_empty_queue():
    net = make_net()
    assert net.step() == 0


def test_delivery_count_is_messages_times_nodes():
    net = make_net(5)
    for i in range(3):
        net.broadcast(1, f"m{i}")
    assert net.step() == 15


def test_next_step_replaces_inboxes():
    net = make_net()
    net.broadcast(1, "first")
    net.step()
    net.broadcast(2, "second")
    net.step()
    assert net.inbox_common() == ["second"]


def test_delivery_log_is_deterministic():
    def run():
        net = make_net()
        net.broadcast(2, "m")
        net.broadcast(1, "t")
        counts = [net.step()]
        inboxes = [net.inbox_common()]
        net.broadcast(4, "n")
        counts.append(net.step())
        inboxes.append(net.inbox_common())
        return counts, inboxes

    assert run() == run()
    counts, inboxes = run()
    assert counts == [8, 4]
    assert inboxes == [["t", "m"], ["n"]]
