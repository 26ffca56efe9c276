import os
import signal

import pytest

from cmvae import peers


@pytest.fixture
def helpers(monkeypatch):
    """The peers that the test starts, on 2 usable CPUs; a test that hangs fails."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    started, real = [], peers.Peer.__init__

    def counting(self, *args):
        real(self, *args)  # a peer's child leaves inside, so only the caller counts
        started.append(self)

    monkeypatch.setattr(peers.Peer, "__init__", counting)
    previous = signal.signal(signal.SIGALRM, lambda *a: pytest.fail("a test hung on its peers"))
    signal.alarm(120)
    yield started
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def all_reaped():
    """A check that no peer of `started` is left, running or unreaped, and no other child waits to be."""
    def check(started) -> bool:
        for peer in started:
            with pytest.raises(ChildProcessError):
                os.waitpid(peer.pid, os.WNOHANG)
        try:
            return os.waitpid(-1, os.WNOHANG) == (0, 0)  # children of other tests may still run
        except ChildProcessError:
            return True

    return check
