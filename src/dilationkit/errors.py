"""Exception taxonomy.

Every domain error raised by this package derives from DilationKitError, so
callers (and the CLI) can distinguish domain failures from programming errors.
Errors that are also argument-validation failures subclass ValueError.
"""


class DilationKitError(Exception):
    """Base class for all domain errors raised by dilationkit."""


class IndefiniteInput(DilationKitError, ValueError):
    """A matrix required to be positive semidefinite has a significantly
    negative eigenvalue."""


class NotAFrame(DilationKitError, ValueError):
    """The family does not span: its frame operator is numerically singular."""


class NotParseval(DilationKitError, ValueError):
    """The frame operator differs from the identity beyond tolerance."""


class NotDualPair(DilationKitError, ValueError):
    """The two families fail the reconstruction identity sum(x_i (x) y_i) = I."""


class ZeroPair(DilationKitError, ValueError):
    """A framing pair has ||x_i|| * ||y_i|| = 0 where a rescaling needs it
    positive.  Carries the offending indices."""

    def __init__(self, indices):
        self.indices = list(indices)
        super().__init__(f"pairs with zero norm product at indices {self.indices}")


class AtomRankTooHigh(DilationKitError, ValueError):
    """An atom expected to be rank at most one has numerical rank >= 2.
    Carries the offending atom index."""

    def __init__(self, index, message=None):
        self.index = index
        super().__init__(message or f"atom {index} has numerical rank >= 2")


class NotPositive(DilationKitError, ValueError):
    """An atom required to be Hermitian positive semidefinite is not.
    Carries the offending atom index."""

    def __init__(self, index, message=None):
        self.index = index
        super().__init__(message or f"atom {index} is not Hermitian positive semidefinite")


class OverlappingSupports(DilationKitError, ValueError):
    """Blocks expected to live on pairwise disjoint coordinate sets overlap."""


class ExactModeTooLarge(DilationKitError, ValueError):
    """Exact subset enumeration was requested above the exact-mode ceiling."""
