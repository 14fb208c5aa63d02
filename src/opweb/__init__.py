"""Oriented-percolation exploration clusters and Brownian-web diagnostics.

Importing the package loads only its version and its error classes; each
module is imported by name (``opweb.couple``, ``opweb.cli``, ...).  The
command line and every module it runs import no numpy; only
`opweb.metrics`, whose paths are numpy arrays and which no command
imports, loads it when it is imported.
"""

__version__ = "0.2.0"

from .errors import (BoxTooNarrowError, InsufficientDataError,
                     InvalidArgumentError, InvalidSiteError,
                     NativeLibraryError, NoPathError, OpwebError,
                     ScanLimitExceededError)
