"""Exception taxonomy shared by every module in the package."""


class CosdflError(Exception):
    """Base class for all package-specific failures."""


class DimensionMismatch(CosdflError):
    """A vector or matrix has the wrong shape for the requested operation."""


class SolveFailure(CosdflError):
    """An oracle or pipeline produced an impossible result (e.g. negative regret)."""


class NumericalBreakdown(CosdflError):
    """The simplex solver hit a pivot too small to trust, even under Bland's rule."""


class ZeroVector(CosdflError):
    """A vector with (near-)zero norm was passed where a direction is required."""


class MissingOptimalDecision(CosdflError):
    """The loss needs the instance's cached optimal decision but none is attached."""


class MissingRanges(CosdflError):
    """The loss needs cached sensitivity ranges but none are attached."""


class MissingInstanceCost(CosdflError):
    """The loss needs a cached per-instance cost weight but none is attached."""


class MissingBaselineRegret(CosdflError):
    """The regret-weighted loss needs a cached baseline regret but none is attached."""


class NonFiniteGradient(CosdflError):
    """A loss gradient evaluated to NaN or infinity."""


class NonFiniteLoss(CosdflError):
    """A training loss evaluated to NaN or infinity."""
