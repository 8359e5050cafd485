# The tests run on scipy.fft's default of one FFT worker per thread; results
# do not depend on the count (tests/test_processes.py).  On a 2-vCPU host the
# suite without the 1280^2 pair took 30.3-31.5 s at one worker and 39.6-39.7 s
# at two (2 interleaved runs each): its grids are small.  The pair fixture
# runs its twins in two threads of one worker each (tests/test_acceptance.py).

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
