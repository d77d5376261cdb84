"""Exception hierarchy shared by all modules."""


class WallmanError(Exception):
    """Base class for every error raised by this package."""


class NotAPoset(WallmanError):
    """The input relation has a cycle or violates antisymmetry."""


class NotALattice(WallmanError):
    """Some pair of elements lacks an infimum or a supremum.

    ``witness`` carries the offending pair of element ids.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NoBounds(WallmanError):
    """The poset has no least or no greatest element."""


class DegenerateLattice(WallmanError):
    """The one-element lattice was passed where 0 != 1 is required."""


class TooLarge(WallmanError):
    """Input exceeds a configured size cap."""


class NotDistributive(WallmanError):
    """A distributive lattice was required; ``witness`` is a violating triple."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotNormal(WallmanError):
    """A normal lattice was required."""


class NotCentered(WallmanError):
    """The generating set has a zero finite meet."""


class NotAFilter(WallmanError):
    """The given element set is not a filter."""


class NotPrime(WallmanError):
    """A prime filter was required."""


class NonUniqueExtension(WallmanError):
    """A prime filter had zero or several ultrafilter extensions.

    Signals a violated normality hypothesis; ``extensions`` lists all
    ultrafilters found above the filter.
    """

    def __init__(self, message, extensions=()):
        super().__init__(message)
        self.extensions = tuple(extensions)


class ElementInFilter(WallmanError):
    """The element to be avoided already belongs to the filter."""


class NotAHom(WallmanError):
    """The element map is not a lattice homomorphism; ``witness`` is a pair."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotComposable(WallmanError):
    """Two homomorphisms do not compose (target != source)."""


class NotGenerating(WallmanError):
    """The given set does not generate the lattice."""


class PreconditionFailed(WallmanError):
    """A stated hypothesis of an operation does not hold; lists which."""

    def __init__(self, message, failed=()):
        super().__init__(message)
        self.failed = tuple(failed)


class EmptyPhiValue(WallmanError):
    """A phi assignment maps some member to the empty set."""


class MissingStages(WallmanError):
    """A refinement needs stage sequences on every member."""


class InvalidNode(WallmanError):
    """A node of the certificate poset has a non-centered member set."""


class SizeCap(WallmanError):
    """A generator was asked for an instance beyond its size cap."""


class OracleDisagreement(WallmanError):
    """Two routes to the same value disagree: an internal consistency
    check failed."""


class CapTooSmallWarning(UserWarning):
    """Chain search still growing at the supplied k cap."""
