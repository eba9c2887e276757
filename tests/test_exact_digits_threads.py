"""exact_digits across threads: CPython's int-to-str limit is one per
interpreter, so exact_digits lifts it once for the process. Uses that overlap
in two threads keep it lifted until the last one leaves, which restores it.

The overlap is forced with events: thread A enters, thread B enters, A
leaves, and only then does B print a 5001-digit integer inside its use.
"""

import sys
import threading

import pytest

from torbound.errors import exact_digits


def with_block(body):
    with exact_digits():
        return body()


def decorated(body):
    return exact_digits()(body)()


def run(target, results, key):
    try:
        results[key] = target()
    except BaseException as exc:  # reported by the test thread
        results[key] = exc


@pytest.mark.parametrize("use", [with_block, decorated])
def test_overlapping_uses_keep_the_limit_lifted_and_then_restore_it(use):
    limit = sys.get_int_max_str_digits()
    a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()

    def a():
        def body():
            a_in.set()
            b_in.wait(10)
        use(body)
        a_out.set()

    def b():
        def body():
            b_in.set()
            a_out.wait(10)
            return len(str(10**5000))
        a_in.wait(10)
        return use(body)

    results = {}
    threads = [threading.Thread(target=run, args=(f, results, f.__name__)) for f in (a, b)]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert results == {"a": None, "b": 5001}
        assert sys.get_int_max_str_digits() == limit
    finally:
        sys.set_int_max_str_digits(limit)


def test_a_thread_inside_its_own_block_nests_without_the_lock():
    limit = sys.get_int_max_str_digits()
    with exact_digits():
        with exact_digits():
            assert exact_digits()(lambda: len(str(10**5000)))() == 5001
        assert sys.get_int_max_str_digits() == 0
    assert sys.get_int_max_str_digits() == limit
