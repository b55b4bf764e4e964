"""Verification laboratory for the porous medium equation on finite graphs.

The package integrates ``du/dt = L(u^m)`` on finite weighted graphs,
decides discrete curvature-dimension conditions empirically, and checks the
time-scaled regularity and Harnack estimates that those conditions imply.
Each module's ``__all__`` declares its public names; the package re-exports
them all.
"""

from . import cd, errors, estimates, graphs, operators, solver
from .cd import *
from .errors import *
from .estimates import *
from .graphs import *
from .operators import *
from .solver import *

__all__ = [name for module in (cd, errors, estimates, graphs, operators, solver) for name in module.__all__]

__version__ = "0.1.0"
