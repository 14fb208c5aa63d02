"""Oriented-percolation exploration clusters and Brownian-web diagnostics.

Importing the package loads only its version and its error classes; each
module is imported by name (``opweb.couple``, ``opweb.cli``, ...).  The
command line, the batteries it runs and ``check``'s judge, `opweb.oracle`,
import no numpy; `opweb.explore` and `opweb.metrics`, which hold numpy
arrays, load it when they are imported, and ``simulate`` with them.
"""

__version__ = "0.2.0"

from .errors import (BoxTooNarrowError, InsufficientDataError,
                     InvalidArgumentError, InvalidSiteError,
                     NativeLibraryError, NoPathError, OpwebError,
                     ScanLimitExceededError)
