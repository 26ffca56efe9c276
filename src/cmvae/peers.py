"""Forked peers: the one place that forks, for scoring shares and the training helper.

A `Peer` is a forked child that runs `body(peer)` and shares `floats` f64
values (`Peer.values`) with the caller through one anonymous mmap; each
side signals the other with one byte on its own pipe once the data it
wrote is in place (`send`, `wait`).  While a peer runs, it keeps to its
CPU and the caller to the first CPU of its affinity set: a process woken
by a pipe signal tends to be woken on the signaller's CPU, and unpinned
10-step training calls on a 2-vCPU host ran at 0.8x one process as often
as at 1.3x.  So work that the caller starts meanwhile, such as a scoring
pass in evaluate_model, sees one usable CPU and forks nothing.

A body that raises prints its traceback and sends the pickled exception
in place of a signal, and the caller's `wait` raises it.  A peer leaves
with os._exit, so the caller's buffered files are flushed once, by the
caller.
"""

from __future__ import annotations

import contextlib
import mmap
import os
import pickle
import signal
import sys
import threading
import traceback

import numpy as np


class PeerError(RuntimeError):
    """A peer died, or failed with an exception that could not be sent back; see stderr."""


def usable_cpus() -> int:
    """CPUs that peers may use: this process's affinity set, or 1 where none may fork.

    The one statement of the fork rules: a process forks peers only on
    Linux, with at least 2 CPUs in its affinity set, and while it runs no
    other thread, since fork copies only the calling one.
    """
    if not sys.platform.startswith("linux") or threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


class Peer:
    """The caller's end of a forked child that runs `body(peer)` with the other end."""

    def __init__(self, floats: int, cpu: int, body):
        """Fork the peer onto `cpu`; raises OSError, with nothing left open, if it cannot start."""
        self.affinity = os.sched_getaffinity(0)
        self.mem = mmap.mmap(-1, 8 * floats)
        fds = []
        try:
            fds += os.pipe()  # caller -> peer
            fds += os.pipe()  # peer -> caller
            self.pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            self.mem.close()
            raise
        down_r, down_w, up_r, up_w = fds
        self.values = np.frombuffer(self.mem, dtype=np.float64)
        if self.pid == 0:
            os.close(down_w)
            os.close(up_r)
            self.read_fd, self.write_fd = down_r, up_w
            try:
                _pin({cpu})
                body(self)
            except BaseException as exc:  # reported and sent here: the child never unwinds into the caller
                traceback.print_exc()
                sys.stderr.flush()
                with contextlib.suppress(Exception):  # unpicklable, or no caller: its wait sees EOF
                    os.write(self.write_fd, b"!" + pickle.dumps(exc))
            finally:
                os._exit(0)
        os.close(down_r)
        os.close(up_w)
        self.read_fd, self.write_fd = up_r, down_w
        _pin({min(self.affinity)})

    def send(self) -> None:
        os.write(self.write_fd, b"+")

    def wait(self) -> None:
        """Return at the other side's next signal; raise the peer's exception, or PeerError if it died."""
        sign = os.read(self.read_fd, 1)
        if sign == b"+":
            return
        if sign == b"!":
            data = b"".join(iter(lambda: os.read(self.read_fd, 1 << 16), b""))
            try:
                exc = pickle.loads(data)
            except Exception:
                raise PeerError("a peer failed with an exception that could not be sent; "
                                "its traceback is on stderr") from None
            raise exc
        raise PeerError("a peer exited before it signalled; its traceback, if any, is on stderr")

    def stop(self) -> None:
        """End the peer wherever it is, reap it, and give the caller back its affinity set."""
        os.close(self.read_fd)
        os.close(self.write_fd)
        with contextlib.suppress(ProcessLookupError):
            os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)
        _pin(self.affinity)


def _pin(cpus: set[int]) -> None:
    """Keep this process to `cpus`, if the host lets it."""
    with contextlib.suppress(OSError):
        os.sched_setaffinity(0, cpus)
