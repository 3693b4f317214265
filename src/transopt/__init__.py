"""Exact solver for balanced transportation and assignment problems.

Exact rational arithmetic end to end: build an instance with `new_instance`,
solve it with `north_west_corner` (optimal for Monge-structured costs) or
`solve_weighted_hungarian` (optimal always, with a dual certificate), and
cross-check anything small with the brute-force `oracle` module.
"""

from . import core, hungarian, nwcorner, oracle
from .core import *
from .hungarian import *
from .nwcorner import *
from .oracle import *

__version__ = "0.1.0"

__all__ = sorted(core.__all__ + hungarian.__all__ + nwcorner.__all__ + oracle.__all__)
