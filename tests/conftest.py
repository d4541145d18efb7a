"""Fixtures shared by the test modules."""

import json

import numpy as np
import pytest


@pytest.fixture
def load_label_volume():
    """Reader of a label volume ``inference.write_label_data`` and
    ``write_label_header`` wrote to ``base_path`` + ``.u8`` / ``.json``:
    ``base_path -> (labels, header)``."""

    def load(base_path):
        with open(str(base_path) + ".json") as f:
            header = json.load(f)
        data = np.fromfile(str(base_path) + ".u8", dtype=np.uint8)
        return data.reshape(header["dims"]), header

    return load
