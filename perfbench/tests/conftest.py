import sys

import pytest


def _torbound_modules():
    return {k: v for k, v in sys.modules.items() if k == "torbound" or k.startswith("torbound.")}


@pytest.fixture
def keep_modules():
    """The benchmark re-imports torbound into a clean module table; put the
    modules other tests imported back afterwards."""
    saved = _torbound_modules()
    yield
    for name in _torbound_modules():
        del sys.modules[name]
    sys.modules.update(saved)
