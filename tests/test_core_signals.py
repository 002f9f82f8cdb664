"""Tests for repro.core.signals: SIGTERM unwinds like Ctrl-C inside the block."""

import signal
import threading

import pytest

from repro.core.signals import sigterm_as_interrupt


class TestSigtermAsInterrupt:
    def test_sigterm_raises_keyboard_interrupt_inside_block(self):
        with pytest.raises(KeyboardInterrupt):
            with sigterm_as_interrupt():
                signal.raise_signal(signal.SIGTERM)

    def test_previous_handler_restored_on_exit(self):
        before = signal.getsignal(signal.SIGTERM)
        with sigterm_as_interrupt():
            assert signal.getsignal(signal.SIGTERM) is not before
        assert signal.getsignal(signal.SIGTERM) is before

    def test_previous_handler_restored_after_interrupt(self):
        before = signal.getsignal(signal.SIGTERM)
        with pytest.raises(KeyboardInterrupt):
            with sigterm_as_interrupt():
                signal.raise_signal(signal.SIGTERM)
        assert signal.getsignal(signal.SIGTERM) is before

    def test_nested_blocks_restore_in_order(self):
        before = signal.getsignal(signal.SIGTERM)
        with sigterm_as_interrupt():
            outer = signal.getsignal(signal.SIGTERM)
            with sigterm_as_interrupt():
                pass
            assert signal.getsignal(signal.SIGTERM) is outer
        assert signal.getsignal(signal.SIGTERM) is before

    def test_off_main_thread_the_block_runs_unchanged(self):
        before = signal.getsignal(signal.SIGTERM)
        seen = []

        def body():
            with sigterm_as_interrupt():
                seen.append(signal.getsignal(signal.SIGTERM))

        thread = threading.Thread(target=body)
        thread.start()
        thread.join(timeout=10)
        assert seen == [before]
