"""Run a call that may hang in a helper thread, with a deadline.

Failure-injection tests kill a worker on purpose. If the code under
test mishandles that, the call blocks forever; running it here turns
the hang into a test failure instead of a stuck suite.
"""

import multiprocessing
import threading
import time

import pytest


def run_with_deadline(call, timeout: float = 30.0):
    """Run ``call()`` in a daemon thread; return ``(error, seconds)``.

    ``error`` is what the call raised, or None if it returned. A call
    still running after ``timeout`` fails the test. Its non-daemon child
    processes are terminated first: interpreter exit would wait for
    them, while it terminates daemon ones (pool workers) by itself.
    """
    box = {}

    def target():
        try:
            call()
        except Exception as exc:
            box["error"] = exc

    t0 = time.perf_counter()
    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    seconds = time.perf_counter() - t0
    if thread.is_alive():
        for child in multiprocessing.active_children():
            if not child.daemon:
                child.terminate()
        pytest.fail(f"call still blocked after {timeout:.0f} s")
    return box.get("error"), seconds
