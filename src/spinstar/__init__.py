"""Entanglement dynamics of a qubit pair with one qubit coupled to a spin bath.

The package tracks how entanglement moves between a monitored qubit pair and
a star-coupled bath of spins: closed-form and numeric trajectories for the
pair concurrence, exact operator-sum extraction for the reduced dynamics,
Markov structure tests with entanglement witnesses, and the bookkeeping of
entanglement that a reduced description cannot see.

Each module's ``__all__`` lists its public names once; this package
re-exports them all.
"""

from . import channels, entanglement, linalg, markov, model, states
from .channels import *
from .entanglement import *
from .linalg import *
from .markov import *
from .model import *
from .states import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *linalg.__all__,
    *states.__all__,
    *entanglement.__all__,
    *model.__all__,
    *channels.__all__,
    *markov.__all__,
]
