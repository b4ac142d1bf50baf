"""Exception types shared across the package."""

import numpy as np


class CusmError(Exception):
    """Base class for all package errors."""


class InvalidDimensionError(CusmError, ValueError):
    """A dimension parameter is zero, negative, or inconsistent."""


class NonHermitianError(CusmError, ValueError):
    """A matrix required to be Hermitian fails the tolerance check."""


class DegenerateFactorizationError(CusmError, ValueError):
    """QR factorization of a (numerically) rank-deficient matrix."""


class DegenerateMeasurementError(CusmError, ValueError):
    """Raw measurement matrix does not have full row rank."""


class DegenerateInitializationError(CusmError, ValueError):
    """Initial-state parameter vector is (numerically) zero."""


class VocabularyError(CusmError, KeyError):
    """A token id has no associated transition operator."""

    __str__ = Exception.__str__  # KeyError's would quote the message


class ConfigurationError(CusmError, ValueError):
    """Inconsistent widths or dimensions in model configuration."""


class IllConditionedStepError(CusmError, RuntimeError):
    """The r-by-r Gram matrix of a low-rank Cayley solve is numerically singular.

    Carries the step report (and optionally the step index) for diagnosis.
    """

    def __init__(self, message, report=None, step=None):
        super().__init__(message)
        self.report = report
        self.step = step


# the numerical failures: the CLI's exit 3, which trainers tag with where they failed
NUMERICAL_FAILURES = (IllConditionedStepError, FloatingPointError, np.linalg.LinAlgError)
