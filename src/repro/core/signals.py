"""SIGTERM as Ctrl-C: one clean-shutdown path for long-running processes.

``repro serve`` and ``repro campaign work`` run until stopped. Process
managers stop them with SIGTERM, people with Ctrl-C; both should release
what the process holds (a socket, a job lease) and exit 0. Within
:func:`sigterm_as_interrupt` a SIGTERM raises :class:`KeyboardInterrupt`,
so one ``except KeyboardInterrupt`` handles both.
"""

from __future__ import annotations

import signal
import threading
from contextlib import contextmanager
from typing import Iterator


def _raise_interrupt(signum, frame) -> None:
    """SIGTERM handler: unwind like Ctrl-C."""
    raise KeyboardInterrupt


@contextmanager
def sigterm_as_interrupt() -> Iterator[None]:
    """Turn SIGTERM into ``KeyboardInterrupt`` for the duration of the block.

    Handlers can only be installed from the main thread; elsewhere (an
    in-process worker driven by a test thread) the block runs unchanged.
    The previous handler is restored on exit.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    previous = signal.signal(signal.SIGTERM, _raise_interrupt)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)
