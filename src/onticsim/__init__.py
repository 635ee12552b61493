"""Compressed hidden-variable models of quantum measurement.

A qubit preparation is reduced to one real coordinate plus a branch
bit (``cone``), patched to the full sphere through an icosahedral
frame (``icosa``); N-level systems get an N^2-component analogue
(``ndim``). Exact Born-rule identities, positivity boundaries, a
covering-radius check and a dynamics memory witness are exercised by
seeded experiments (``harness``) with deterministic reports
(``reports``) and a command-line front end (``cli``).
"""

from . import cone, dynamics, geometry, harness, icosa, ndim
from .cone import *  # noqa: F403
from .dynamics import *  # noqa: F403
from .geometry import *  # noqa: F403
from .harness import *  # noqa: F403
from .icosa import *  # noqa: F403
from .ndim import *  # noqa: F403

__version__ = "0.1.0"

# Public names are listed once, in each module's __all__.
__all__ = [*geometry.__all__, *cone.__all__, *icosa.__all__, *ndim.__all__,
           *dynamics.__all__, *harness.__all__]
