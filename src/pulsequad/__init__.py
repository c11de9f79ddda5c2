"""Pulsed balanced homodyne detector simulator, characterization pipeline
and Fock-basis quantum state tomography.  Every name in the layer modules'
``__all__`` is re-exported here; :mod:`pulsequad.cli` is not."""

__version__ = "0.1.0"

from .detector import *  # noqa: F403
from .extraction import *  # noqa: F403
from .characterization import *  # noqa: F403
from .states import *  # noqa: F403
from .tomography import *  # noqa: F403
