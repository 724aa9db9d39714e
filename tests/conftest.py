"""Shared fixtures."""

import numpy as np
import pytest

from mgdfis import dpam, ftssa, gdim, ops


@pytest.fixture
def conv_calls(monkeypatch):
    """(spec, input shape) of each forward conv2d call while the test runs,
    recorded through every module binding of conv2d."""
    calls = []
    real = ops.conv2d

    def recording(x, w, b, spec):
        calls.append((spec, np.shape(x)))
        return real(x, w, b, spec)

    for mod in (ops, ftssa, gdim, dpam):
        monkeypatch.setattr(mod, "conv2d", recording)
    return calls
