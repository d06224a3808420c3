"""Exception hierarchy shared by all midconv modules."""


class MidconvError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(MidconvError):
    """Structurally malformed input: bad dimensions, duplicate singular
    locations, wrong coefficient counts, unparsable files."""


class PreconditionError(MidconvError):
    """A mathematical precondition of an operation is violated: lacking
    semisimplicity, irrational spectrum, singular matrix where an
    invertible one is required, trivial quotient, out-of-range bounds."""


class AssumptionViolated(MidconvError):
    """The reduction algorithm hit an input outside its hypotheses
    (non-semisimple leading coefficient, irrational spectrum, forced
    zero convolution parameter, reducible module)."""


class InternalError(MidconvError):
    """An internal consistency check failed: a bug in this package, not
    a fault of the input."""
