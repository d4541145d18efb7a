"""Fixtures shared by the test modules."""

import hashlib
import json

import numpy as np
import pytest


def views(contours):
    """The view names of a contour set's slices, in file order."""
    return [s.plane.view for s in contours.slices]


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


def arithmetic_sha256():
    """Digest of the float operations the golden tests' results rest on:
    matrix products (the BLAS kernels) and numpy's exp, log1p and sqrt,
    in float32 and float64, on fixed inputs. It calls no heartfields code."""
    digest = hashlib.sha256()
    rng = np.random.default_rng(0)
    for dtype in (np.float32, np.float64):
        a = rng.standard_normal((500, 37)).astype(dtype)
        w = rng.standard_normal((37, 32)).astype(dtype)
        m = a @ w
        for arr in (m, m.T @ m, np.exp(-np.abs(m)), np.log1p(np.abs(m)), np.sqrt(np.abs(m))):
            digest.update(arr.tobytes())
    return digest.hexdigest()


# arithmetic_sha256() on the x86-64 machine the golden digests were taken on
# (numpy 2.4.6 with scipy-openblas 0.3.31, AVX-512)
GOLDEN_ARITHMETIC_SHA256 = "d3888af89617777d9cb71606e1d4709d0872a7b3e44fca1e0114fa6ec38408a6"


@pytest.fixture
def golden_arithmetic():
    """Skips a golden-digest test on a machine whose float kernels give other
    bits than the machine that took the digests: there, the digests could
    not tell a changed program from changed arithmetic."""
    if arithmetic_sha256() != GOLDEN_ARITHMETIC_SHA256:
        pytest.skip("float kernels differ from those the golden digests were taken with")
