"""Shared fixtures for the test suite.

The suite honors two environment knobs the CI matrix sweeps:

* ``REPRO_WORKERS`` — the default parallelism degree of every manager
  (``resolve_workers``), so ``workers=4`` runs the whole subset through
  the encode/decode thread pools;
* ``REPRO_BACKEND`` — the default storage backend spec of every
  manager (``resolve_backend``), so ``object`` runs the same subset
  against the S3-style object path (ranged GETs, multipart staging).

Both are validated once, up front: a matrix cell with a typo must fail
the whole session loudly, not silently test the serial/local path
under a parallel/object label.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.storage.backend import ensure_backend_spec
from repro.storage.pipeline import resolve_workers


@pytest.fixture(scope="session", autouse=True)
def _validate_matrix_env() -> None:
    """Fail fast on a malformed ``REPRO_BACKEND`` / ``REPRO_WORKERS``."""
    spec = os.environ.get("REPRO_BACKEND")
    if spec:
        ensure_backend_spec(spec)
    resolve_workers(None)


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator shared across tests."""
    return np.random.default_rng(20120401)


@pytest.fixture
def smooth_field(rng: np.random.Generator) -> np.ndarray:
    """A smooth 2-D float field resembling the NOAA rasters."""
    x = np.linspace(0, 4 * np.pi, 64)
    y = np.linspace(0, 2 * np.pi, 48)
    base = np.sin(x)[None, :] * np.cos(y)[:, None]
    return (base * 100 + rng.normal(0, 0.1, size=(48, 64))).astype(np.float32)
