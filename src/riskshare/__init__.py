"""Risk sharing over weighted agent spaces.

Evaluate convex risk measures and their conjugates on finite probability
spaces, compute the sharing value function (an integral infimal convolution)
in closed form or through its dual, produce optimal allocations where they
exist, and check Pareto efficiency.
"""

from .agent_space import (
    AgentSpace,
    Allocation,
    RiskFamily,
    atom_risks,
    aumann_agents,
    finite_agents,
    gelfand_integral,
    is_feasible,
    proportional_split,
    shapley_agents,
    total_risk,
)
from .errors import (
    ConvergenceError,
    IllPosedError,
    InfeasibleError,
    RiskShareError,
    UnsupportedFamilyError,
    ValidationError,
    VacuousExperimentError,
)
from .infimal_convolution import (
    Attainment,
    DilationProfile,
    GeneralFamily,
    InflationProfile,
    Market,
    ShareResult,
    acceptance_member,
    aggregate_conjugate,
    aumann_acceptance_sample,
    nonattainment_experiment,
    optimal_allocation_dilated,
    optimal_allocation_inflated,
    value,
)
from .pareto import ParetoVerdict, pareto_check, pareto_improve
from .prob_core import (
    Density,
    ProbSpace,
    essup,
    expect,
    expect_under,
    kl_divergence,
)
from .risk_measures import (
    Dilation,
    Entropic,
    ExpectedShortfall,
    Inflation,
    RiskSpec,
    ScenarioSet,
    conjugate,
    dilate,
    dual_set,
    dual_solve,
    inflate,
    left_continuity_sweep,
    rho,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
