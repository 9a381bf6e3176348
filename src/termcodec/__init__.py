"""Bijective codecs between first-order terms, lists, strings, and naturals.

Each module lists its public names in its own __all__, and the package
exports their union.
"""

from .bbase import *
from .errors import *
from .godel import *
from .natbits import *
from .skeleton import *
from .terms import *
from .tuples import *

__all__ = (
    bbase.__all__ + errors.__all__ + godel.__all__ + natbits.__all__
    + skeleton.__all__ + terms.__all__ + tuples.__all__
)
