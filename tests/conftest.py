import sys

import pytest

import torbound.bounds


@pytest.fixture(autouse=True)
def cold_shape_memo():
    # each test starts with no verified shape held, so a test that corrupts a
    # route or counts builds sees every shape built in it
    torbound.bounds._verified_shape.cache_clear()


def pytest_runtest_logreport(report):
    # one visible pass/fail line per acceptance criterion, independent of -v
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    status = "PASS" if report.passed else "FAIL"
    name = report.nodeid.split("::")[-1]
    sys.stderr.write(f"[acceptance] {status} {name}\n")
    sys.stderr.flush()
