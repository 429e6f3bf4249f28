"""Shared fixtures.

The synthetic digit corpus is cached per session: rendering 11000 glyphs
takes a while, and the desk-scale training tests all want the same data.
"""

import numpy as np
import pytest

from ebssc import data, tensor


def _as_batch(images):
    """uint8 (N, H, W) -> float32 (N, 1, H, W) in [0, 1]."""
    return images.astype(np.float32)[:, None] / 255.0


@pytest.fixture(scope="session")
def digits_corpus():
    """Full desk corpus: 1000 train / 10000 test digits, fixed seed."""
    xtr, ytr, xte, yte = data.digits_arrays(1000, 10000, seed=1234)
    return _as_batch(xtr), ytr, _as_batch(xte), yte


@pytest.fixture(scope="session")
def digits_small(digits_corpus):
    """A 300/500 slice for tests that just need plausible digit data."""
    xtr, ytr, xte, yte = digits_corpus
    return xtr[:300], ytr[:300], xte[:500], yte[:500]


@pytest.fixture(scope="session")
def digits_dir(tmp_path_factory):
    """A small on-disk IDX corpus in the layout the CLI expects."""
    d = tmp_path_factory.mktemp("digits")
    data.write_digits_idx(str(d), n_train=200, n_test=100, seed=7)
    return d


@pytest.fixture
def switch_requests(monkeypatch):
    """The ``return_switches`` flag of every ``tensor.max_pool`` call made
    while the test runs, in call order."""
    asked = []
    real = tensor.max_pool

    def recording(*args, return_switches=False, **kwargs):
        asked.append(return_switches)
        return real(*args, return_switches=return_switches, **kwargs)

    monkeypatch.setattr(tensor, "max_pool", recording)
    return asked
