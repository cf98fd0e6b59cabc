"""Provers, proof checking and grammars for Lambek calculi.

The sequent systems covered are the product-free Lambek calculus L
(directional slashes only), its semidirectional extension SDL (adding
a right rule for a nondirectional implication -o), and the fragment
SDL- of SDL without the directional right rules.  On top of the prover
sit categorial grammars with a membership test, and an encoding of
3-partition instances as grammar membership questions.
"""

from . import analysis, checker, grammar, prooftree, prover, reduction, syntax
from .analysis import *
from .checker import *
from .grammar import *
from .prooftree import *
from .prover import *
from .reduction import *
from .syntax import *

__version__ = "0.1.0"

__all__ = [
    *syntax.__all__,
    *analysis.__all__,
    *prooftree.__all__,
    *prover.__all__,
    *checker.__all__,
    *grammar.__all__,
    *reduction.__all__,
    "__version__",
]
