"""Toolkit for cavity-enhanced quantum frequency conversion.

Closed-form conversion and anti-Stokes noise models for a waveguide
converter whose cavity confines only the converted mode, SNR comparisons
across converter configurations, estimators for the scan data such devices
produce, and a Monte Carlo coincidence simulator for photon-statistics
checks.  See the ``cavityqfc`` command-line entry point for file-based
workflows.
"""

# each module's __all__ is the one list of its public names
from .conversion import *
from .errors import *
from .fitting import *
from .noise import *
from .photon_stats import *
from .presets import *
from .snr import *

__version__ = "0.1.0"
