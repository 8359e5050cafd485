import os

# transform threading must be pinned before the package reads it; results
# do not depend on the worker count (tests/test_processes.py).  Two workers
# are faster on a 2-vCPU host: the 1280^2 dichotomy_pair fixture, which is
# most of the suite, took 72.9-79.3 s with 2 and 92.7-99.6 s with 1 (3
# interleaved runs each).  The 1.10 2-worker/1-worker ratio in bench/NOTES.md
# was measured on the full grid, before stepping moved to DCT-I quarters.
os.environ.setdefault("DSALPHA_FFT_WORKERS", "2")

import numpy as np
import pytest
import scipy.fft

from dsalpha import Grid2D, solve_ground_state


@pytest.fixture(scope="session")
def grid_small():
    return Grid2D(64, 64, 2 * np.pi, 2 * np.pi)


@pytest.fixture(scope="session")
def grid_medium():
    return Grid2D(128, 128, 32.0, 32.0)


@pytest.fixture(scope="session")
def grid_gs():
    # dx = 0.1875 resolves the exponential profile tails to ~1e-11
    return Grid2D(256, 256, 48.0, 48.0)


@pytest.fixture(scope="session")
def townes(grid_gs):
    return solve_ground_state(grid_gs, beta=1.0, rho=0.0, nu=1.0)


@pytest.fixture(scope="session")
def coupled_ground(grid_gs):
    return solve_ground_state(grid_gs, beta=1.0, rho=-1.0, nu=1.0)


@pytest.fixture()
def rng():
    return np.random.default_rng(2024)


def count_calls(monkeypatch, module, *names, label=lambda name, args: name):
    """Wrap each module.<name>; the returned list gains label(name, args)
    per call, by default the name."""
    calls = []
    for name in names:
        def counted(*args, _name=name, _inner=getattr(module, name), **kwargs):
            calls.append(label(_name, args))
            return _inner(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


# the scipy.fft entry points: the benchmark tracer's list, and the DCTs
# that an EvenGrid's transforms call
TRANSFORM_ENTRY_POINTS = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
    "dct", "idct", "dctn", "idctn",
)


def count_transforms(monkeypatch, label=lambda name, args: name):
    """Count transforms where the benchmark does, at the scipy.fft entry
    points; the returned list gains label(name, args) per call, by default
    the entry point's name."""
    return count_calls(monkeypatch, scipy.fft, *TRANSFORM_ENTRY_POINTS, label=label)


def random_complex(rng, grid):
    return rng.standard_normal((grid.nx, grid.ny)) + 1j * rng.standard_normal(
        (grid.nx, grid.ny)
    )
