"""Four-qubit genuine-entanglement toolkit.

Simulates a Mach-Zehnder interferometer whose arms traverse four atom-cavity
systems, post-selects on single-photon detections to produce genuinely
entangled four-qubit states, certifies them with Wootters concurrence and von
Neumann entropy, and provides the sixteen-state entangled basis with
decompositions of the standard GHZ/W/cluster/Dicke states.
"""

from . import hilbert, circuit, measures, basis
from .hilbert import *
from .circuit import *
from .measures import *
from .basis import *

__version__ = "0.1.0"

__all__ = hilbert.__all__ + circuit.__all__ + measures.__all__ + basis.__all__
