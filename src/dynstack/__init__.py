"""Dynamic stacked generalization for node classification on networks.

A library for combining local (node-attribute) and relational
(neighborhood) classifiers with a level-1 generalizer whose per-classifier
weights are smooth spline functions of a node topology covariate, plus
the static stacking baselines and seeded experiment drivers used to
compare them.

Each module's ``__all__`` is its list of public names, and this package
re-exports all of them.
"""

from . import graph, metrics, naive_bayes, relational, simulation, splines, stacking
from .graph import *  # noqa: F403
from .metrics import *  # noqa: F403
from .naive_bayes import *  # noqa: F403
from .relational import *  # noqa: F403
from .simulation import *  # noqa: F403
from .splines import *  # noqa: F403
from .stacking import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (graph, metrics, naive_bayes, relational, simulation, splines, stacking)
    for name in module.__all__
] + ["__version__"]
