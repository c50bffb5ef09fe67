"""Multicut nested decomposition for multistage stochastic linear programs.

The package solves linear dynamic programming recursions with finitely
supported stagewise-independent uncertainty by sampling-based multicut
decomposition, optionally pruning the cut pools with selection strategies
(keep the maximizers at the visited trial points, only the oldest
maximizer, or the H oldest). An extensive-form oracle over the scenario
tree verifies the bounds on instances small enough to enumerate.
"""

from .cuts import Cut, CutPool, SelectorSpec
from .lp import LPProblem, LPSolution, solve_lp
from .models import (InventoryParams, PortfolioParams, Preset, make_inventory,
                     make_portfolio, portfolio_closed_form_beta,
                     portfolio_metadata, reference_configs)
from .program import (MultistageProgram, StageRealization, TreeTooLargeError,
                      exact_recourse_value, extensive_form, extensive_form_value,
                      feasible_states, sample_scenario, validate)
from .serialize import program_from_json, program_to_json
from .solver import (BoundsRecord, RunConfig, RunReport, SelectionRecord,
                     SolverError, backward_pass, compute_bounds, first_stage_value,
                     forward_pass, make_pools, run, should_stop)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
