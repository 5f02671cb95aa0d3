"""Equilibrium pricing on finite event trees.

Builds and verifies market equilibria for agents with quadratic or
linear mean-variance preferences: conditional-expectation machinery on
filtration trees, mean-variance hedging, orthogonal martingale
decompositions, and the fixed-point construction for the linear
mean-variance risk-aversion level.
"""

from . import generate, io, linear_mv, mvh, quadratic, scenario, stoch, tree
from .tree import *  # noqa: F403
from .scenario import *  # noqa: F403
from .stoch import *  # noqa: F403
from .mvh import *  # noqa: F403
from .quadratic import *  # noqa: F403
from .linear_mv import *  # noqa: F403
from .generate import *  # noqa: F403
from .io import *  # noqa: F403

# the package exports each module's public names, and only those
__all__ = [
    name
    for module in (tree, scenario, stoch, mvh, quadratic, linear_mv, generate, io)
    for name in module.__all__
]

__version__ = "0.1.0"
