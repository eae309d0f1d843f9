"""The one way nsdv starts a helper process: a fork, with two pipes.

Its three users: the snapshot writer of `run` and `verify` (io.RunWriter),
the twin's perturbed run (stability) and the convergence study's coarse
levels (cli.mms_convergence).

The child runs `body(channel, *args)`; it inherits `args` and all module
state (a test's patch too), so nothing is sent to start it.  Each side sends
plain pickles, which carry their own length, and gets EOFError once the
other side has closed its end.  The child ignores SIGINT (Ctrl-C reaches the
whole process group, and the caller ends its child) and leaves only through
os._exit: it never returns into the caller's code, runs no exit handler and
flushes no inherited buffer.  The caller closes its pipe ends, which ends a
child waiting on them, and reaps the child on every path.

A child's failure reaches the caller the same way for every user: an
Exception escaping `body` is sent as one record, the exception and its
traceback text, and the caller's `receive` raises that exception, type and
args unchanged, from a RuntimeError naming the child and holding the text.
A child that exits without a report is EOFError to `receive` and
RuntimeError("<name> process exited with code N") to `outcome`.

nsdv therefore runs only where os.fork exists (POSIX).  Python >= 3.12 warns
(DeprecationWarning) when os.fork runs while the process has more than one
thread; numpy's OpenBLAS pool does not count, because OpenBLAS's own fork
handler stops it first (on Linux, 2 threads before os.fork and 1 after).
"""

from __future__ import annotations

import os
import pickle
import signal
import traceback
from typing import NamedTuple


class _Failure(NamedTuple):  # what the child sends when `body` raises
    exc: Exception
    text: str  # its traceback


class Child:
    """`body(channel, *args)` in a forked child process, `channel` being this
    object as the child sees it; `name` names it in the caller's errors.
    Its exit code is 0 when `body` returns and 1 when it raises."""

    def __init__(self, name: str, body, *args):
        self._name = name
        up_r, up_w = os.pipe()
        down_r, down_w = os.pipe()
        try:
            self._pid = os.fork()
        except OSError:
            for fd in (up_r, up_w, down_r, down_w):
                os.close(fd)
            raise
        if self._pid == 0:
            code = 1
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                os.close(up_r)
                os.close(down_w)
                self._in, self._out = open(down_r, "rb"), open(up_w, "wb", buffering=0)
                body(self, *args)
                code = 0
            except Exception as exc:
                self.send(_Failure(exc, traceback.format_exc()))
            finally:
                os._exit(code)
        os.close(up_w)
        os.close(down_r)
        self._in, self._out = open(up_r, "rb"), open(down_w, "wb", buffering=0)
        self._code = None

    def send(self, message) -> None:
        """Pickle `message` to the other side: BrokenPipeError if it has
        closed its end."""
        data = memoryview(pickle.dumps(message))
        while data:
            data = data[self._out.write(data):]

    def receive(self):
        """The other side's next message: EOFError if it has closed its end,
        and in the caller the child's failure raised instead."""
        message = pickle.load(self._in)
        if isinstance(message, _Failure):
            raise message.exc from RuntimeError(f"in the {self._name} process:\n{message.text}")
        return message

    def outcome(self):
        """In the caller: the child's last message, or its failure raised,
        after which the child is reaped; RuntimeError if it exited without
        either."""
        try:
            return self.receive()
        except EOFError:
            raise RuntimeError(f"{self._name} process exited with code {self.close()}") from None
        finally:
            # a no-op once reaped; the child sends nothing after its last
            # message, and a caller interrupted meanwhile must not wait
            self.close(kill=True)

    def close(self, kill: bool = False) -> int:
        """In the caller: kill the child first with `kill`, close the pipe
        ends and reap it; returns its exit code, the negative signal number
        if a signal ended it.  A second call only returns the code."""
        if self._code is None:
            if kill:
                os.kill(self._pid, signal.SIGKILL)
            self._in.close()
            self._out.close()
            self._code = os.waitstatus_to_exitcode(os.waitpid(self._pid, 0)[1])
        return self._code
