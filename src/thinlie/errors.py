"""Exception hierarchy shared by all thinlie modules."""


class ThinLieError(Exception):
    """Base class for all errors raised by this package."""


class NotPrime(ThinLieError):
    pass


class ReduciblePolynomial(ThinLieError):
    pass


class DivisionByZero(ThinLieError):
    pass


class ZeroPair(ThinLieError):
    pass


class InvalidPresentation(ThinLieError):
    """A presentation failed the Jacobi validator where a valid one is required."""


class NotStandardForm(ThinLieError):
    pass


class WindowTooLarge(ThinLieError):
    pass


class BadBound(ThinLieError):
    pass


class SchemaError(ThinLieError):
    """An algebra file or report does not match the documented JSON schema."""


class DegenerateGenerators(ThinLieError):
    pass


class WindowTooSmall(ThinLieError):
    pass


class PreconditionFailed(ThinLieError):
    """A pipeline stage was invoked on input outside its contract."""
