"""Landau-level dynamics under a time-dependent in-plane electric field.

The evolution operator factorizes into a magnetic translation along the
guiding-center path, the static Landau evolution, and a coherent
level-mixing displacement.  This package computes each factor in closed
form or by controlled numerics, and ships a brute-force integrator that
certifies the factorization to stated tolerances.

Each public name is declared once, in its module's ``__all__``; this
package exports the union of those lists.
"""

from . import errors, field_model, fock_algebra, oracle, path_integrals, propagator
from .errors import *  # noqa: F403
from .field_model import *  # noqa: F403
from .fock_algebra import *  # noqa: F403
from .oracle import *  # noqa: F403
from .path_integrals import *  # noqa: F403
from .propagator import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *errors.__all__, *field_model.__all__, *fock_algebra.__all__,
    *path_integrals.__all__, *propagator.__all__, *oracle.__all__,
]
