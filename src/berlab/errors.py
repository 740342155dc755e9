"""Exception hierarchy shared across the package."""


class BerlabError(Exception):
    """Base class for all errors raised by berlab."""


class NotHermitian(BerlabError):
    """Input matrix is not Hermitian within the requested tolerance."""


class NotPSD(BerlabError):
    """Input matrix has a significantly negative eigenvalue."""


class DimensionMismatch(BerlabError):
    """Operator and space (or block) dimensions are inconsistent."""


class IllConditioned(BerlabError):
    """Gram matrix condition exceeds the allowed floor."""


class DuplicatePoints(BerlabError):
    """Sample points for a kernel space are not pairwise distinct."""


# nothing raises it; perfbench names its anomaly metrics after these classes
class IndexOutOfRange(BerlabError):
    """Kernel point index outside the space."""


class BadParams(BerlabError):
    """Checker parameters violate their preconditions."""


class ConfigInvalid(BerlabError):
    """Campaign configuration violates its invariants."""
