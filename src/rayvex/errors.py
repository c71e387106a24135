"""Exception types: every rayvex failure is a ``RayvexError``, and malformed input an ``InvalidInput``."""


class RayvexError(Exception):
    """Base class for all rayvex errors."""


class InvalidInput(RayvexError, ValueError):
    """An argument, flag or polytope file is malformed; also a ``ValueError``, so ``except ValueError`` catches it."""


# -- geometry ----------------------------------------------------------------


class UnboundedPolytope(RayvexError):
    """Some coordinate has no finite bound over the feasible set."""


class EmptyInterior(RayvexError):
    """The halfspace intersection is empty or has no interior point."""


class ZeroDirection(RayvexError):
    """A ray query was made with the zero vector."""


class RayMissesPolytope(RayvexError):
    """The ray {alpha * v : alpha >= 0} never meets the polytope."""


class HyperplaneThroughOrigin(RayvexError):
    """Facet hyperplane passes through the origin (b = 0), cannot scale to a.x = 1."""


class PointOutsidePolytope(RayvexError):
    """Query point lies outside the polytope by ``geometry.locate``'s ray-trace rule."""


class DimensionNotSupported(RayvexError):
    """Operation only implemented for a specific dimension (region enumeration: 2-D)."""


class SamplingBudgetExceeded(RayvexError):
    """Rejection sampling acceptance rate too low for the requested count."""


# -- scalar fields -----------------------------------------------------------


class NonFiniteEvaluation(RayvexError):
    """A field evaluation (or finite-difference probe) returned nan/inf."""


# -- envelope models ---------------------------------------------------------


class DimensionMismatch(InvalidInput):
    """A field, anchor, point or direction does not match the polytope's dimension, or an LP's arrays their shapes."""


class InvalidAnchor(RayvexError):
    """Requested anchor point lies outside the polytope."""


class PointOutsideDomain(RayvexError):
    """Envelope evaluation requested outside the model domain."""


class NotCertifiedHomogeneous(RayvexError):
    """Operation requires a model whose homogeneity check passed."""


class GradientUnavailable(RayvexError):
    """No analytic gradient and finite differences failed (or point is the anchor)."""


# -- verification ------------------------------------------------------------


class InfeasibleLP(RayvexError):
    """Oracle query point lies outside the convex hull of the sample set."""


class NumericalBreakdown(RayvexError):
    """The simplex could not certify an answer.

    Raised when a pivot loop reaches its iteration bound, when a cold optimum
    has no certified read, and when phase 2 finds the LP unbounded on a
    tableau that overflowed to a NaN or an infinity.
    """
