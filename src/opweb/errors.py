"""Typed errors shared across the package, and the scan guard that raises
one of them.

Every walk gives up once it has exhausted `DEFAULT_SCAN_GUARD` start sites
(or the guard a caller passes) without reaching its target level: the
input is then effectively subcritical, and `guard_error` is what the walk
raises.  They live here, with no walk, so that the modules that only pass
a guard on, the batteries and the command line among them, import no walk
module.
"""

DEFAULT_SCAN_GUARD = 10_000


class OpwebError(Exception):
    """Base class for all package errors."""


class InvalidSiteError(OpwebError):
    """Coordinates violate the even-lattice parity constraint."""


class InvalidArgumentError(OpwebError):
    """An argument is outside its documented domain."""


class ScanLimitExceededError(OpwebError):
    """The start-site scan guard tripped; input is effectively subcritical.

    Carries ``scan_offset``, the number of exhausted start sites.
    """

    def __init__(self, message, scan_offset=None):
        super().__init__(message)
        self.scan_offset = scan_offset


def guard_error(scan_offset: int, level: int) -> ScanLimitExceededError:
    """The error of a walk whose guard tripped after ``scan_offset`` start
    sites, with ``level`` its last completed level."""
    return ScanLimitExceededError(
        f"{scan_offset} start sites exhausted below level {level + 1}",
        scan_offset=scan_offset)


class InsufficientDataError(OpwebError):
    """Too few records to form an estimate."""


class BoxTooNarrowError(OpwebError):
    """The finite box cannot certify an exact answer; widen it."""


class NoPathError(OpwebError):
    """No open path exists in the queried region."""


class NativeLibraryError(OpwebError):
    """The native walk library of ``_walk.c`` cannot be built or loaded.

    The message names the cause: no C compiler, an unreadable source, a
    failed build, an unwritable cache or a library that does not load.
    """
