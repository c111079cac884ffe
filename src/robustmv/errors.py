"""Exception types shared across the package."""


class RobustMVError(Exception):
    """Base class for all errors raised by this package."""


class NotPositiveDefinite(RobustMVError):
    """A correlation matrix failed the positive-definiteness test.

    ``pivot_index`` is the 0-based index of the first factorization pivot
    that fell below the tolerance.
    """

    def __init__(self, message, pivot_index=None):
        super().__init__(message)
        self.pivot_index = pivot_index


class ZeroDrift(RobustMVError):
    """All prior expected returns are zero; the only sensible strategy is to never trade."""


class NoMinimum(RobustMVError):
    """The worst-case correlation problem has an infimum that is not attained."""


class BoxNotPositiveDefinite(RobustMVError):
    """A correlation box with a non-PD part in which no PD point was found.

    `solve` raises it for a two- or three-asset box with no closed form when
    the numeric fallback finds no PD point to start from, naming the box's
    first non-PD corner in ``corner`` (in the caller's pair order); a box
    whose corners fail but which holds PD points is solved.  `grid_oracle`
    raises it when no grid node is PD (``corner`` is None).
    """

    def __init__(self, message, corner=None):
        super().__init__(message)
        self.corner = corner


class NoFeasiblePoint(RobustMVError):
    """No positive-definite point could be located inside the correlation box."""


class PremiumOverflow(RobustMVError):
    """The risk premium R or its gradient is not finite: a Sharpe ratio, or a point of the numeric descent."""


class SamplingExhausted(RobustMVError):
    """Rejection sampling gave up after too many consecutive infeasible proposals."""


class GridTooLarge(RobustMVError):
    """A brute-force grid would exceed the evaluation budget."""


class SaddleViolated(RobustMVError):
    """A sampled point broke one of the saddle inequalities."""

    def __init__(self, message, theta=None, margin=None):
        super().__init__(message)
        self.theta = theta
        self.margin = margin


class PrincipleViolated(RobustMVError):
    """A probe broke an optimality-principle condition, or the simulator missed its closed form.

    probe names the probe strategy or scenario, margin is the signed margin
    that crossed its allowance: a rounding tolerance where the probe is
    decided in closed form, N_SIGMA standard errors (family-wise where
    several are tested) where it is sampled.
    """

    def __init__(self, message, probe=None, margin=None):
        super().__init__(message)
        self.probe = probe
        self.margin = margin


class GrowthOverflow(RobustMVError):
    """e^{r* T}, the wealth growth factor of the optimal rule, exceeds the float range."""


class WealthOverflow(RobustMVError):
    """A wealth beyond the float range: the target wealth xbar or V0, or the mean, variance,
    objective J or its standard error of finite terminal wealths."""


class ConfigError(RobustMVError):
    """The model configuration file is missing, malformed, or inconsistent."""
