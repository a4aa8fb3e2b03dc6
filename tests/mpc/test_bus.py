"""The traffic ledger: party registry, exact accounting, nothing retained."""

import gc
import weakref

import pytest

from repro.errors import ParameterError
from repro.mpc.bus import SimulatedNetwork


@pytest.fixture()
def net():
    network = SimulatedNetwork()
    for name in ("alice", "bob", "carol"):
        network.register(name)
    return network


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


class Payload:
    """A payload that can be weakly referenced and sizes by ``to_bytes``."""

    def to_bytes(self) -> bytes:
        return b"payload"


class TestRetention:
    """The bus accounts a message and lets it go: a one-chunk session's
    messages must not be pinned once per recipient by the ledger."""

    @pytest.mark.parametrize("how", ["send", "broadcast"])
    def test_accounted_payload_is_collectable(self, net, how):
        payload = Payload()
        ref = weakref.ref(payload)
        if how == "send":
            net.send("alice", "bob", payload)
        else:
            net.broadcast("alice", payload)
        assert net.bytes_sent["alice"] == len(b"payload")
        assert net.messages_sent["alice"] == 1
        del payload
        gc.collect()
        assert ref() is None
