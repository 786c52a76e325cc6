"""Conserved-total multi-component logistic dynamics.

Library layout:

* :mod:`.core` - the rate equation, its exact solution, and an integrator
* :mod:`.walkers` - stochastic log-space walker ensembles (high-noise regime)
* :mod:`.maxent` - the analytic rank-size equilibrium and its fitting
* :mod:`.network` - scale-free graphs, cluster growth, the diffusion picture
* :mod:`.forecast` - rate extraction and forecasting of compositional shares
* :mod:`.itm` - the square-root-amplitude matrix flow
* :mod:`.cli` - batch command line (``multilogistic <subcommand>``)

Each scipy routine is imported inside the function that calls it, so
importing the package or building the CLI parser loads numpy and no scipy.
"""

__version__ = "0.1.0"

from .core import (
    LogisticParams,
    Trajectory,
    closed_form,
    integrate,
    mcle_rhs,
    share_composition,
    sigmoid,
)
from .errors import InputDataError, MultilogisticError, NumericsError
from .forecast import RateFit, ShareSeries, fit_rates, forecast, growth_exponents
from .itm import from_amplitude, ground_state, itm_evolve, itm_rhs, to_amplitude
from .maxent import (
    MaxEntModel,
    RankDistribution,
    analytic_rank,
    fit_lambda,
    gamma0,
    gamma0_inverse,
    ks_distance,
    solve_lambda,
)
from .network import (
    DiffusionKernelParams,
    Network,
    fit_kernel,
    generate_sfin,
    grow_cluster,
    kernel_density,
    y_inverse,
    y_transform,
)
from .walkers import EnsembleStats, WalkerEnsemble, scale_invariance_corr
