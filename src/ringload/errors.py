"""Exception taxonomy.

RingLoadingError is the common base; ValidationError covers everything a
malformed instance or routing can trigger.  InternalGuaranteeViolation is
special: it fires only if a certified bound of the approximation algorithm,
or a solver's claimed increase, fails to hold: a bug, never bad input.
"""


class RingLoadingError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(RingLoadingError):
    """An instance or routing violates a structural invariant."""


class NodeOutOfRange(ValidationError):
    pass


class NegativeDemand(ValidationError):
    pass


class SplitExceedsDemand(ValidationError):
    pass


class IndexMismatch(ValidationError):
    pass


class InstanceSyntaxError(RingLoadingError):
    """The instance document is not well-formed JSON."""


class SchemaError(RingLoadingError):
    """An instance document has missing, ill-typed or overlong fields, or a
    search checkpoint is not hit records of its run followed by an index."""


class LengthMismatch(RingLoadingError):
    """A routing vector does not match the instance it is applied to."""


class StartOutOfRange(RingLoadingError):
    """Forward greedy start point outside the admissible interval."""


class EndOutOfRange(RingLoadingError):
    """Backward greedy end point outside the admissible interval."""


class OwnerMismatch(RingLoadingError):
    """Two patterns of different instances were combined."""


class OddEpsilon(RingLoadingError):
    """A crossover shift of half an odd grid value is not representable."""


class InvalidWitness(RingLoadingError):
    """A closeness witness index lies outside the patterns."""


class NotMedium(RingLoadingError):
    """The selected demand is not of medium size for the given margin."""


class MediumDemandPresent(RingLoadingError):
    """The small/big algorithm was invoked on an instance with a medium demand."""


class InternalGuaranteeViolation(RingLoadingError):
    """A certified bound or a claimed increase failed; this is a bug, not bad input."""


class TooManyDemands(RingLoadingError):
    """Brute force over 2^k routings exceeds the configured cap of demands."""


class TooLargeForDP(RingLoadingError):
    """The DP's start bound, in grid units, exceeds the end points it can probe."""


class InvalidSetting(RingLoadingError):
    """An environment setting or a combination of options is invalid.

    The CLI treats it as a usage error (exit 2).
    """


class UnknownName(RingLoadingError):
    """No built-in instance with the requested name."""


class InfeasibleParams(RingLoadingError):
    """Generator or search parameters admit no instance."""
