"""Query-bounded online learning laboratory.

Continuous side: exact mistake integrals, the uniform-sampling learner with
a standard-optimal predictor, the adaptive decode-and-follow learner, and
the adversarial stream constructions they are measured against.  Discrete
side: exact solvers for blind prediction under a query budget, with an
independent minimax oracle and replayable strategy witnesses.
"""

from .adversaries import (
    decode_reveal_token,
    encode_reveal_token,
    exact_blind_error,
    gen_littlestone_branch_stream,
    gen_self_revealing_stream,
    gen_two_point_stream,
)
from .arena import (
    EpochError,
    MonteCarloStats,
    QueryEvent,
    RunReport,
    mistake_integral,
    monte_carlo_uniform,
    run_adaptive_sampler,
    run_uniform_sampler,
)
from .blind import (
    BlindStrategy,
    DimensionWitness,
    blind_learning_dimension,
    game_value,
    qld,
    validate_witness_tree,
    worst_case_mistakes,
)
from .littlestone import (
    LittlestoneSolver,
    ShatteredTree,
    build_littlestone_tree,
    littlestone_dimension,
    soa_predict,
)
from .model import (
    BudgetViolationError,
    ConceptClass,
    DiscretePattern,
    InstanceSpace,
    LabelVector,
    MalformedTokenError,
    NonRealizableError,
    PatternClass,
    PiecewiseStream,
    QstreamError,
    QueryBudgetPolicy,
    Segment,
    UnknownInstanceError,
    as_fraction,
    validate,
)

__version__ = "0.1.0"
