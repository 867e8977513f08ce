"""Make sibling test helpers importable regardless of pytest rootdir."""
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def spark_path(monkeypatch):
    """No Z-set lives on the driver: every value takes the Spark path."""
    from repro.zset import frame

    monkeypatch.setattr(frame, "LOCAL_ROWS", 0)

