"""Per-context classical probability spaces, CHSH Monte Carlo, and
frame-function checks for finite-dimensional quantum models.

The package namespace holds the names of the README's quick tour; the
rest of the API lives in the submodules (``bellctx.quantum``,
``bellctx.kolmogorov``, ``bellctx.gleason``, ``bellctx.models``,
``bellctx.harness``, ``bellctx.chsh``)."""

from .chsh import chsh_value, correlations
from .harness import estimate_report, run_experiment
from .kolmogorov import (
    build_mixed_context_space_from_tables,
    optimal_settings,
    szabo_chsh,
    verify_kolmogorov,
)
from .models import QuantumModel, lhv_max_chsh, local_polytope_membership
from .quantum import photon_pair_state

__version__ = "0.1.0"
