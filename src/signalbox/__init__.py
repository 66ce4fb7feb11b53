"""Classicality analysis of two-setting, two-outcome correlation tables.

The package asks one question of a bipartite correlation: does the
signal it carries pay for the communication needed to simulate it?  If
yes the table is classical, however large its correlation functional;
if no, the positive deficit certifies nonclassicality.

Submodules:

* :mod:`signalbox.correlation` holds tables, the strategy catalog, the
  functional, and the marginal-shift bookkeeping.
* :mod:`signalbox.signaling` measures the alice-to-bob channel in bits
  and covers the unbalanced signaling family.
* :mod:`signalbox.quantum` generates tables from sequential qubit
  measurements and runs the angle sweep.
* :mod:`signalbox.simulate` prices tables by decomposition (closed form
  and LP) and issues the signal-deficit verdict.
* :mod:`signalbox.simplex` is the small self-contained LP solver.
* :mod:`signalbox.cli` is the command-line front end.
"""

from types import ModuleType as _ModuleType

from .correlation import (
    FULL_BASIS,
    LOCAL_IDS,
    NONVIOLATING_IDS,
    OUTCOME_VALUES,
    PLUS_LOCAL_IDS,
    VIOLATING_IDS,
    VIOLATING_PAIRS,
    Correlation,
    SignalDeltas,
    Strategy,
    StrategyKind,
    catalog,
    disturbance_cost,
    from_json_dict,
    functional_value,
    load_correlation,
    marginal,
    mix,
    pr_box,
    save_correlation,
    signaling_deltas,
    signed_functional,
    to_json_dict,
)
from .errors import (
    ConsistencyError,
    DomainError,
    InfeasibleError,
    NegativeProbabilityError,
    NoCrossoverError,
    NormalizationError,
    PreconditionError,
    SignalBoxError,
    UnboundedError,
    UnknownStrategyError,
    WeightError,
)
from .quantum import (
    IDENTITY,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    Observable,
    QubitState,
    SweepRow,
    expanded_formula_table,
    find_crossover,
    holevo,
    holevo_max,
    post_measurement_state,
    projector_update_table,
    sequential_correlation,
    sigma_settings,
    signal_corrected_bound,
    sweep_csv,
    theta_geometry,
    theta_sweep,
    trace_distance,
    tsirelson_box,
    von_neumann_entropy,
)
from .signaling import (
    RandomnessReport,
    SignalReport,
    binary_entropy,
    channel_mutual_info,
    cloning_violation,
    randomness_report,
    signal_info,
    signal_strength,
    unbalanced_pr,
)
from .simplex import SimplexResult, solve_lp
from .simulate import (
    ClassificationReport,
    Decomposition,
    classify,
    classify_batch,
    closed_form_decompose,
    communication_cost,
    decomposition_json_dict,
    lp_min_cost,
    report_json_dict,
    tsirelson_signal_box,
    verify_reconstruction,
)

__version__ = "0.1.0"

# Every public name imported above, and nothing else.
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
