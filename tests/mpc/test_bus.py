"""Simulated network semantics: ordering, aborts, accounting."""

import pytest

from repro.errors import ParameterError, ProtocolAbort
from repro.mpc.bus import SimulatedNetwork


@pytest.fixture()
def net():
    network = SimulatedNetwork()
    for name in ("alice", "bob", "carol"):
        network.register(name)
    return network


class TestDelivery:
    def test_fifo_per_channel(self, net):
        net.send("alice", "bob", 1)
        net.send("alice", "bob", 2)
        assert net.receive("bob", "alice") == 1
        assert net.receive("bob", "alice") == 2

    def test_channels_independent(self, net):
        net.send("alice", "bob", "ab")
        net.send("carol", "bob", "cb")
        assert net.receive("bob", "carol") == "cb"
        assert net.receive("bob", "alice") == "ab"

    def test_missing_message_aborts(self, net):
        with pytest.raises(ProtocolAbort) as err:
            net.receive("bob", "alice")
        assert err.value.party == "alice"

    def test_try_receive(self, net):
        assert net.try_receive("bob", "alice") is None
        net.send("alice", "bob", 7)
        assert net.try_receive("bob", "alice") == 7

    def test_broadcast_reaches_everyone_but_sender(self, net):
        net.broadcast("alice", "hello")
        assert net.receive("bob", "alice") == "hello"
        assert net.receive("carol", "alice") == "hello"
        assert net.try_receive("alice", "alice") is None


class TestRegistration:
    def test_duplicate_rejected(self, net):
        with pytest.raises(ParameterError):
            net.register("alice")

    def test_star_reserved(self, net):
        with pytest.raises(ParameterError):
            net.register("*")

    def test_unknown_party_rejected(self, net):
        with pytest.raises(ParameterError):
            net.send("alice", "nobody", 1)
        with pytest.raises(ParameterError):
            net.send("nobody", "alice", 1)


class TestAccounting:
    def test_bytes_counted(self, net):
        net.send("alice", "bob", b"12345")
        assert net.bytes_sent["alice"] == 5
        net.send("alice", "bob", 256)  # 2-byte int
        assert net.bytes_sent["alice"] == 7

    def test_message_counts(self, net):
        net.send("alice", "bob", 1)
        net.broadcast("bob", 2)
        assert net.messages_sent["alice"] == 1
        assert net.messages_sent["bob"] == 1
        assert sum(net.messages_sent.values()) == 2

    def test_structured_payload_size(self, net):
        net.send("alice", "bob", [b"ab", b"cd"])
        assert net.bytes_sent["alice"] == 4
        net.send("alice", "bob", {b"k": b"vvv"})
        assert net.bytes_sent["alice"] == 8

    def test_group_element_payload(self, net, group64):
        element = group64.generator()
        net.send("alice", "bob", element)
        assert net.bytes_sent["alice"] == len(element.to_bytes())

    def test_log_recording(self):
        net = SimulatedNetwork(record_log=True)
        net.register("a")
        net.register("b")
        net.send("a", "b", 1)
        assert len(net.log) == 1
        assert net.log[0].sender == "a"
