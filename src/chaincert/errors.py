"""Errors that report a fault of the program rather than of its input."""


class CertificateError(Exception):
    """A witness the package just computed fails its own re-check.

    Raised explicitly, so the check survives ``python -O``.  It is not a
    ValueError: the command line maps ValueError to exit 2 (bad input).
    """
