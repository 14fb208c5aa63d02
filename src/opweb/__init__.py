"""Oriented-percolation exploration clusters and Brownian-web diagnostics.

Importing the package loads only its version and its error classes; each
module is imported by name (``opweb.couple``, ``opweb.cli``, ...).  The
command line and the batteries it runs import no numpy; `opweb.explore`,
`opweb.oracle` and `opweb.metrics`, which hold numpy arrays, load it when
they are imported.
"""

__version__ = "0.2.0"

from .errors import (BoxTooNarrowError, InsufficientDataError,
                     InvalidArgumentError, InvalidSiteError,
                     NativeLibraryError, NoPathError, OpwebError,
                     ScanLimitExceededError)
