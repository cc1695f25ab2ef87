"""Normalized gradient descent for locally quasi-convex objectives.

Optimizers (ngd, sngd, baselines), synthetic problems, property checkers for
(local) quasi-convexity, guarantee budget calculators, and a random-walk
analysis of the minimal minibatch size.
"""

from .core import (
    Ball,
    Box,
    FeasibleRegion,
    Objective,
    OptTrace,
    Point,
    RandomStream,
    StochasticObjective,
    as_point,
    sample_in_ball,
    seeded_stream,
)
from .optimizers import (
    NgdConfig,
    SngdConfig,
    StepSchedule,
    evaluate_iterates,
    gd,
    msgd,
    nesterov,
    ngd,
    ngd_with_oracle,
    sngd,
)
from .problems import (
    GlmDataset,
    PerceptronDataset,
    SigmoidLoss,
    glm_objective,
    make_cliff_plateau,
    make_idealized_glm,
    make_lower_bound_distribution,
    make_noisy_glm,
    make_nonqc_counterexample,
    make_perceptron,
    make_sigmoid_sum,
    perceptron_objective,
    sigmoid,
)
from .properties import (
    SlqcQuery,
    SlqcReport,
    check_local_lipschitz,
    check_local_smooth,
    check_quasiconvex_grad,
    check_slqc,
    check_slqc_batch,
    check_sublevel_convex,
    derive_slqc_from_lipschitz,
)
from .analysis import (
    Budget,
    ChainSpec,
    absorb_probability,
    absorb_probability_mc,
    all_linear_prob,
    glm_minibatch_b0,
    glm_sample_bound,
    lower_bound_experiment,
    ngd_budget,
    ngd_smooth_budget,
    sngd_minibatch_bound,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
