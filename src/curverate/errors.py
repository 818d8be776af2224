"""Error taxonomy.

Two top-level classes matter for the CLI exit-code contract: domain or
validation problems (exit code 1) and numerical-accuracy failures (exit
code 2). An accuracy error from a failed self-check carries both the
coarse and the fine estimate, so a caller that accepts degraded accuracy
does so explicitly: it catches AccuracyError and reads .coarse / .fine.
A node budget past the cap raises before any pass runs: no estimates.
"""

from __future__ import annotations


class CurverateError(Exception):
    """Base class for all curverate errors."""


class DomainValidationError(CurverateError, ValueError):
    """Bad parameters, preconditions violated, unsupported requests."""


class DeltaRangeError(DomainValidationError):
    """Convergence rate delta outside the regime's valid range [0, delta_max)."""

    def __init__(self, delta, delta_max):
        self.delta = delta
        self.delta_max = delta_max
        super().__init__(
            f"delta={delta} outside the valid range [0, {delta_max}) for this regime"
        )


class UnsupportedRegimeError(DomainValidationError):
    """(alpha, m, d, smoothness) combination covered by no threshold law."""


class WindowError(DomainValidationError):
    """Point outside a counterexample family's admissible spatial window."""


class ResolutionError(DomainValidationError):
    """Grid too coarse for the requested quantity."""


class AccuracyError(CurverateError):
    """Requested numerical accuracy could not be certified.

    Carries a context string and, from a failed self-check, the two
    conflicting estimates (coarse/fine; both None past the node cap, where
    no pass ran). Silent degradation is forbidden; a caller that will
    accept an uncertified value reads it from these estimates.
    """

    def __init__(self, message, coarse=None, fine=None, context=""):
        self.coarse = coarse
        self.fine = fine
        self.context = context
        detail = message
        if coarse is not None or fine is not None:
            detail += f" (coarse={coarse!r}, fine={fine!r})"
        if context:
            detail += f" [{context}]"
        super().__init__(detail)
