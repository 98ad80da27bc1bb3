from fractions import Fraction

import pytest
from hypothesis import settings

from shapes import derive_pk4


settings.register_profile("slow-box", deadline=None)
settings.load_profile("slow-box")


class FakeRuntime:
    """A node's port to the kernel, recording every call a layer makes."""

    def __init__(self, p, node=0):
        self.p = p
        self.node = node
        self.trace = []           # (kind, time 0, node, *fields)
        self.alarms = []          # (local units, tag)
        self.sent = []            # broadcast envelopes
        self.round_sends = []     # (receiver, envelope)
        self.wipes = 0

    def log(self, kind, *fields):
        self.trace.append((kind, Fraction(0), self.node) + fields)

    def alarm(self, units, tag):
        self.alarms.append((units, tag))

    def broadcast(self, envelope):
        self.sent.append(envelope)

    def send_round(self, envelopes):
        self.round_sends += [(w, env) for w, env in enumerate(envelopes)
                             if env is not None]

    def wipe(self):
        self.wipes += 1


@pytest.fixture
def rt():
    return FakeRuntime(derive_pk4(4, 1, "1.1", "1"))
