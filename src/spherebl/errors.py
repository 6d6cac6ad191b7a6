"""Exception types shared across the package.

A bad argument to a library function raises a plain ``ValueError``.  The
three types below exist because the command line tells them apart:
``CapExceededError`` is a valid input whose family is too large to list,
``NonFiniteSampleError`` a valid input whose integrand or sums left the
float range, and ``InputError`` is what the command line reports, one
message at one JSON path.
"""


class CapExceededError(RuntimeError):
    """Enumeration would produce more symmetries than the configured cap."""

    def __init__(self, count: int, cap: int):
        super().__init__(f"family has {count} members, above the cap {cap}")
        self.count = count
        self.cap = cap


class NonFiniteSampleError(RuntimeError):
    """An integrand returned NaN or infinity; singular integrands must be
    truncated before they are handed to the quadrature."""


class InputError(ValueError):
    """Invalid scenario input at the JSON path ``path``."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
