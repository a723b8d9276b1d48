"""Exception taxonomy.

RingLoadingError is the common base.  Every error falls in one of three
kinds, and the CLI prints each as one `error: Class: message` line:

  * a fault in the caller's data: ValidationError and its subclasses, a
    malformed document, instance, routing, record or parameter, or a value
    off the 1/28 grid.  ValidationError is also a ValueError.  Exit 1.
  * a refusal by size or by setting: TooManyDemands and TooLargeForDP
    (exit 1) decline work past their caps; InvalidSetting (exit 2, a usage
    error) rejects an environment setting or a combination of options.
  * a bug: InternalGuaranteeViolation fires only if a certified bound of the
    approximation algorithm, or a solver's claimed increase, fails to hold;
    never bad input.  Exit 1.

The CLI raises RingLoadingError itself for a request its command cannot
serve as given (exit 1).  A record built with missing, unknown or surplus
fields raises TypeError, as a call with wrong arguments does.
"""


class RingLoadingError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(RingLoadingError, ValueError):
    """The caller's data violates an invariant: an instance, routing, record or parameter."""


class NodeOutOfRange(ValidationError):
    pass


class NegativeDemand(ValidationError):
    pass


class SplitExceedsDemand(ValidationError):
    pass


class IndexMismatch(ValidationError):
    """Two sequences that must match entry by entry differ in length."""


class InstanceSyntaxError(ValidationError):
    """The instance document is not well-formed JSON."""


class SchemaError(ValidationError):
    """An instance document has missing, ill-typed or overlong fields, or a
    search checkpoint is not hit records of its run followed by an index."""


class InfeasibleParams(ValidationError):
    """Generator or search parameters admit no instance."""


class MediumDemandPresent(ValidationError):
    """The small/big algorithm was invoked on an instance with a medium demand."""


class TooManyDemands(RingLoadingError):
    """Brute force over 2^k routings exceeds the configured cap of demands."""


class TooLargeForDP(RingLoadingError):
    """The DP's start bound, in grid units, exceeds the end points it can probe."""


class InvalidSetting(RingLoadingError):
    """An environment setting or a combination of options is invalid.

    The CLI treats it as a usage error (exit 2).
    """


class InternalGuaranteeViolation(RingLoadingError):
    """A certified bound or a claimed increase failed; this is a bug, not bad input."""
