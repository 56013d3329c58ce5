"""Exact dynamics of spin ensembles collectively coupled to a bosonic bath.

The bath induces a squeezing-type collective phase (one-axis twisting)
alongside collective dephasing; this package computes both kernels
exactly, propagates symmetric-sector states, builds and scores
macroscopic-superposition targets, and evaluates when formation beats
decoherence.

The public names are declared once, in the ``__all__`` of the module that
defines them; the package exports those five lists.
"""

from . import bath, dicke, errors, evolve, kernels
from .bath import *
from .dicke import *
from .errors import *
from .evolve import *
from .kernels import *

__version__ = "1.0.0"

__all__ = bath.__all__ + dicke.__all__ + errors.__all__ + evolve.__all__ + kernels.__all__
