import os

# Pin BLAS/OpenMP to one thread before anything imports numpy: threading
# tiny matrix products on a few cores slows the oracle several-fold.  An
# explicit setting in the environment still wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest

import landau_drive as ld
from landau_drive.cli import UNIT_CONSTANTS


def pytest_configure(config):
    # A TruncationWarning no test expects fails the suite.  Declared here,
    # not in pyproject.toml: pytest resolves an ini filter's category by
    # importing landau_drive (and numpy) before this file pins the threads.
    config.addinivalue_line("filterwarnings", "error::landau_drive.errors.TruncationWarning")
    # So does a numpy floating-point warning: a division by zero, overflow or
    # invalid operation outside an errstate would otherwise leave a silent
    # inf or NaN in a result.
    config.addinivalue_line(
        "filterwarnings",
        "error:(divide by zero|overflow|invalid value) encountered:RuntimeWarning",
    )


@pytest.fixture(scope="session")
def natural():
    """Dimensionless system: omega = 1, l_b = 1, k = sqrt(2)."""
    return ld.PhysicalSystem(charge=1.0, magnetic_field=1.0, mass=1.0)


@pytest.fixture(scope="session")
def electron_si():
    """Electron in a 15 T field, SI velocity form (c absorbed)."""
    c = UNIT_CONSTANTS["si"]
    return ld.PhysicalSystem(
        charge=-c["elementary_charge"],
        magnetic_field=15.0,
        mass=c["electron_mass"],
        hbar=c["hbar"],
        c=1.0,
    )
