"""Shared exception types for the ibrl package."""


class IBRLError(Exception):
    """Base class for all errors raised by this package."""


class RepresentationError(IBRLError):
    """A measure, history, or return function does not fit its world model,
    or objects from different world models were combined."""


class ConfigError(IBRLError):
    """An experiment or environment configuration is malformed or out of range."""


class DegenerateUpdateError(IBRLError):
    """An observation carries zero lower probability under the current belief,
    so the conditioned belief cannot be renormalized."""


class ContractViolationError(IBRLError):
    """An operation was invoked on a belief state outside its supported class
    (for example, a classical agent on a multi-point belief)."""
