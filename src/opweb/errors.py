"""Typed errors shared across the package."""


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
