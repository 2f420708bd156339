"""Names kept for two readers outside the package until the benchmark moves.

``perfbench/tracer.py`` traces ``pair_energy`` and ``quadrature_energy``
(defined in ``energy``) and ``brute_force_search`` (defined in ``cell``) as
its ``accel.*`` layers: it looks each up here and wraps it at every name
that refers to it. ``perfbench/run.py`` records ``HAVE_NUMBA`` (numba
importable) and ``USE_NUMBA`` (always False); neither selects a code path,
since every kernel is plain numpy and Python. This module, its import in
``nlhomog/__init__.py`` and both flags go when the benchmark reads the
layers where they are defined (ROADMAP items 3 and 12).
"""

import importlib.util

from .cell import brute_force_search
from .energy import pair_energy, quadrature_energy

HAVE_NUMBA = importlib.util.find_spec("numba") is not None
USE_NUMBA = False
