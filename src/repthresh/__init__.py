"""repthresh: repetition thresholds for words over small alphabets.

Detect fractional powers with bounded-below period and exact rational
exponents, certify unavoidability of exponent classes by exhaustive search,
sample constraint-satisfying words by Moser-Tardos resampling, and evaluate
the explicit constructions and bound formulas of the trade.

Each module's ``__all__`` is the one declaration of its public API, and
every name in it is importable from ``repthresh``.
"""

from .words import *
from .detect import *
from .search import *
from .sampler import *
from .construct import *

__version__ = "0.1.0"
