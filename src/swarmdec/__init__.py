"""Binary collective decision-making swarms.

Simulates a well-mixed swarm of agents choosing between two opinions
under configurable majority/minority group rules and noise, and
reproduces its macroscopic drift behaviour both empirically (exact
Gillespie simulation) and analytically (hypergeometric composition
law), including fixed-point and stability analysis.
"""

from .drift import (
    FixedPoint,
    Stability,
    analytic_drift,
    analytic_drift_curve,
    empirical_drift,
    empirical_firing_probabilities,
    find_fixed_points,
    rule_firing_probabilities,
)
from .hypergeom import pmf, pmf_bruteforce, pmf_table
from .model import (
    NoiseSpec,
    RulePolarity,
    RuleSet,
    SwarmState,
    iter_rulesets,
    signed_weight,
    state_of_z,
)
from .schema import (
    SchemaError,
    SchemaSyntaxError,
    SchemaValidationError,
    format_schema,
    parse_polarity_string,
    parse_schema,
)
from .ssa import (
    EVENT_LABELS,
    EventBlocks,
    FrozenSystemError,
    SimConfig,
    Trajectory,
    simulate,
    trajectory_csv_lines,
)

__version__ = "0.1.0"

__all__ = [
    "EVENT_LABELS",
    "EventBlocks",
    "FixedPoint",
    "FrozenSystemError",
    "NoiseSpec",
    "RulePolarity",
    "RuleSet",
    "SchemaError",
    "SchemaSyntaxError",
    "SchemaValidationError",
    "SimConfig",
    "Stability",
    "SwarmState",
    "Trajectory",
    "analytic_drift",
    "analytic_drift_curve",
    "empirical_drift",
    "empirical_firing_probabilities",
    "iter_rulesets",
    "find_fixed_points",
    "format_schema",
    "parse_polarity_string",
    "parse_schema",
    "pmf",
    "pmf_bruteforce",
    "pmf_table",
    "rule_firing_probabilities",
    "signed_weight",
    "simulate",
    "state_of_z",
    "trajectory_csv_lines",
]
