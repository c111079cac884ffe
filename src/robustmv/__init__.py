"""Robust dynamic mean-variance portfolios under drift and correlation ambiguity."""

__version__ = "0.1.0"

from .ambiguity import (
    EllipsoidalSet,
    GammaBox,
    ProductSet,
    ThetaProcessSchedule,
    contains,
    project_b,
    project_rho,
    sample,
)
from .errors import (
    BoxNotPositiveDefinite,
    ConfigError,
    GridTooLarge,
    GrowthOverflow,
    NoFeasiblePoint,
    NoMinimum,
    NotPositiveDefinite,
    PrincipleViolated,
    RobustMVError,
    SaddleViolated,
    SamplingExhausted,
    ZeroDrift,
)
from .market import (
    CovMatrix,
    MarketParams,
    SharpeProfile,
    ThetaPoint,
    correlation_matrix,
    covariance_from,
    is_positive_definite,
    risk_premium,
    risk_premium_gradients,
    saddle_value,
    sharpe_profile,
    variance_risk_ratio,
)
from .simulate import (
    AffineRule,
    ObjectiveEstimate,
    SimConfig,
    affine_moments,
    estimate_objective,
    monotonicity_counterexample,
    simulate_optimal_exact,
    simulate_wealth,
    verify_weak_principle,
)
from .solver import (
    WorstCaseSolution,
    grid_oracle,
    numeric_minimize,
    solve,
    solve_ellipsoidal_given_rho,
    solve_product,
    verify_saddle,
)
from .strategy import (
    DiversificationReport,
    FeedbackStrategy,
    ValueCoefficients,
    classical_strategy,
    classify,
    mean_wealth_path,
    robust_strategy,
    strategy_report,
    value_coefficients,
    value_v0,
)
