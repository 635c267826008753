"""Differentially private sanitization of bounded statistics.

Truncated and boundary-inflated truncated Laplace mechanisms with exact
release moments, a sensitivity catalog, budget accounting, covariance and
proportion release pipelines, Monte Carlo studies, and an analytic privacy
auditor.
"""

from . import accountant, dpaudit, mechanisms, moments, pipelines, sensitivity, simlab
from .accountant import *
from .dpaudit import *
from .mechanisms import *
from .moments import *
from .pipelines import *
from .sensitivity import *
from .simlab import *

__version__ = "0.1.0"

__all__ = [
    *accountant.__all__,
    *dpaudit.__all__,
    *mechanisms.__all__,
    *moments.__all__,
    *pipelines.__all__,
    *sensitivity.__all__,
    *simlab.__all__,
]
