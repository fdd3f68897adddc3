"""Exception hierarchy for gridlines.

Every error raised by the library derives from GridlinesError, so callers
can catch one type at the CLI boundary and map it to a usage exit code.
"""


class GridlinesError(Exception):
    """Base class for all gridlines errors."""


class NotPrime(GridlinesError):
    """Modulus is composite."""


class EvenCharacteristic(GridlinesError):
    """Modulus 2 is rejected: the field must have odd characteristic."""


class InvalidDensity(GridlinesError):
    """Bernoulli density outside (0, 1]."""


class DegenerateSet(GridlinesError):
    """A generator would produce an empty set."""


class LengthExceedsField(GridlinesError):
    """Requested set length exceeds the field size."""


class DuplicateElement(GridlinesError):
    """Explicit or generated elements collide."""


class ModulusMismatch(GridlinesError):
    """Line or point coefficients do not fit the set's modulus."""


class CapExceeded(GridlinesError):
    """Brute-force oracle invoked above its configured size cap."""


class InvalidParameter(GridlinesError):
    """Generator or harness parameter out of its documented range."""


class DescriptorError(GridlinesError):
    """Set descriptor string failed to parse; message names the bad token."""
