"""Exact Demazure characters and multiplicity bounds for finite root systems.

The package exports each layer's ``__all__``, the one list of what the
layer makes public; ``demazure.cli`` is not imported here.
"""

from demazure.roots import *
from demazure.weyl import *
from demazure.characters import *
from demazure.growth import *
from demazure.branching import *
from demazure.sl3t import *

__version__ = "0.1.0"
