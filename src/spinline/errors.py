"""Exception types raised by the spinline package, and the failure policies
they share: each :class:`SpinlineError` class carries the ``exit_code`` and
stderr ``label`` the command line reports it with, :func:`check_tolerance`
is the one tolerance gate (NaN fails it), :func:`check_single` the one
refusal of a stack where one set is meant, :func:`malformed` the one
wrapper of a parse failure, and :func:`check_keys` and :func:`numbers` the
readers of a JSON input file's objects and numbers."""

import contextlib
import csv

import numpy as np


class SpinlineError(Exception):
    """Base class for all spinline-specific errors."""

    exit_code, label = 2, "invalid input"


class ChainLengthError(SpinlineError, ValueError):
    """Chain too short for the requested coupling profile, or longer than
    :data:`~spinline.hamiltonian.MAX_NODES`."""


class SizeMismatchError(SpinlineError, ValueError):
    """Inconsistent dimensions between chain, sender, controls or couplings."""


class InputError(SpinlineError, ValueError):
    """Malformed user input that cannot be used as given: a scan grid, a
    search box, a parameter table, a target state, a sender size or a count
    of solver starts."""


def check_single(stack, what):
    """Raise SizeMismatchError ``"<what>, not a stack of <stack>"`` unless the
    stack axes ``stack`` of a chain, spectrum or parameter set are empty."""
    if stack:
        raise SizeMismatchError(f"{what}, not a stack of {stack}")


@contextlib.contextmanager
def malformed(what):
    """Raise InputError ``"<what> (<Type>: <detail>)"`` for a KeyError,
    TypeError, ValueError, OverflowError (a JSON integer too large for a
    float), csv.Error or RecursionError (the JSON decoder's, on input nested
    too deep) raised in the block."""
    try:
        yield
    except (KeyError, TypeError, ValueError, OverflowError, csv.Error, RecursionError) as exc:
        raise InputError(f"{what} ({type(exc).__name__}: {exc})") from exc


def is_number(value, kind="number"):
    """JSON Schema's type ``"integer"``, an int (20.0 would reach the library
    as a float), or ``"number"``, an int or float; true is neither."""
    return type(value) is int or (kind == "number" and isinstance(value, float))


def check_keys(data, keys, where=""):
    """For :func:`malformed`: TypeError unless ``data`` is a JSON object, and
    ValueError for a key outside ``keys``, which would be ignored."""
    at = f"{where}: " if where else ""
    if not isinstance(data, dict):
        raise TypeError(f"{at}expected a JSON object, got {type(data).__name__}")
    if unknown := sorted(data.keys() - keys, key=str):
        raise ValueError(f"{at}unknown key {', '.join(map(repr, unknown))}, "
                         f"not one of {', '.join(sorted(keys))}")


def numbers(value, name, kind="number"):
    """The JSON scalar or nested lists ``value`` as a float array.  For
    :func:`malformed`: ValueError at the first leaf that :func:`is_number`
    refuses, such as ``"0.5"`` or true, which numpy would read as numbers."""
    for leaf in np.asarray(value, dtype=object).ravel().tolist():
        if not is_number(leaf, kind):
            raise ValueError(f"{name}: {leaf!r} is not of type {kind!r}")
    return np.asarray(value, float)


class NumericalError(SpinlineError):
    """A numerical self-check failed: an eigendecomposition that fails or
    does not reconstruct its matrix, a spectrum that is not +-paired, or a
    parameter set or receiver matrix that breaks its Hermiticity, trace or
    positivity.

    A check on a stack of chains names the first failing one in ``chain``
    (its flat index over the leading axes); it is None for a single chain.
    """

    exit_code, label = 1, "numerical check failed"

    def __init__(self, message, chain=None):
        self.message = message
        self.chain = chain
        super().__init__(message)

    def __str__(self):
        return self.message if self.chain is None else f"chain {self.chain}: {self.message}"


def check_tolerance(dev, tol, what):
    """Raise NumericalError ``"<what> <dev>"`` unless a deviation is at most
    ``tol``; a NaN deviation fails.

    ``dev`` is one number, or one per chain of a stack; the error names
    the first chain that fails.
    """
    fails = ~(np.asarray(dev) <= tol)
    if fails.any():
        first = int(np.argmax(fails))
        chain = first if fails.ndim else None
        raise NumericalError(f"{what} {np.ravel(dev)[first]:.3e}", chain=chain)


class NoArrivalError(SpinlineError):
    """No transfer maximum above the detection floor within the scanned window."""

    exit_code, label = 4, "infeasible"


class ConditioningError(SpinlineError):
    """An extraction step would divide by a vanishing amplitude."""


class ExtractionError(SpinlineError):
    """Probe outputs are insufficient to determine the full parameter set.

    ``undetermined`` lists the parameter parts that cannot be recovered,
    as tuples ``(kind, indices, part)`` with part in {"re", "im", "full"}.
    """

    def __init__(self, undetermined):
        self.undetermined = list(undetermined)
        super().__init__(
            f"incomplete probe set: {len(self.undetermined)} parameter parts undetermined")


class InfeasibleTargetError(SpinlineError):
    """No control parameters reproduce the requested target state.

    Carries the best residual reached (``best_residual``) and the point
    the solver reached it at (``best_controls``): for a Werner solve, the
    real pair amplitudes of the best start, not a full control vector.
    """

    exit_code, label = 4, "infeasible"

    def __init__(self, best_residual, best_controls=None):
        self.best_residual = float(best_residual)
        self.best_controls = best_controls
        super().__init__(f"target infeasible: best residual {best_residual:.3e}")
