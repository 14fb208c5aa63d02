"""Oriented-percolation exploration clusters and Brownian-web diagnostics."""

__version__ = "0.2.0"

from .errors import (BoxTooNarrowError, InsufficientDataError,
                     InvalidArgumentError, InvalidSiteError,
                     NativeLibraryError, NoPathError, OpwebError,
                     ScanLimitExceededError)
from .lattice import (Config, EdgeRef, LatticeSite, Orientation, edge_status,
                      edge_status_array, independence_probe)
from .explore import (Boundaries, ExplorationCluster, GammaApprox, Trajectory,
                      boundary_ordering_check, explore_to_level, gamma_approx)
from .regen import DriftDiffusivity, RegenAccumulator, error_gap_frequencies
from .couple import coalescence_survival_curve, family_eta
from .metrics import (RescaledPath, b1_battery, b2_fkg_check, path_distance,
                      shear_rescale)
from .oracle import (BoxConfig, cbm_baseline, check_suite,
                     coalescing_walk_survival, dp_right_boundary,
                     dp_rightmost_path)
