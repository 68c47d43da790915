"""qrepsim: design toolkit for cavity-linked atom-array quantum repeaters.

Deterministic simulation of heralded entanglement links, entanglement
purification, entanglement swapping chains, and the schedule optimization
tying them into rate/fidelity curves. The top-level API is the engine, which
runs on four float Bell weights per pair in closed form. The dense circuits
the tests check it against are imported from their own modules
(``qrepsim.states``, ``qrepsim.noise``, ``qrepsim.purify``).
"""

from .states import BELL_LABELS, BellDiagonalState
from .noise import IDEAL_OPS, GateNoiseParams
from .link import (
    CavityParams,
    LinkBudget,
    LinkParams,
    expected_esta,
    herald_success,
    heralded_state,
    link_budget,
    link_transmission,
    qc_zone_state,
    reflection_amplitude,
)
from .purify import (
    PurificationError,
    fixed_point_fidelity,
    purify_ladder_weights,
    purify_round_weights,
)
from .schedule import (
    OperationTimings,
    ScheduleResult,
    calibrate_t_proj,
    classical_delay_us,
    rate_fidelity_curve,
    t_eg,
    t_puri,
)
from .chain import (
    ChainPlan,
    bell_measurement,
    optimize_plan,
    rate_vs_distance,
    t_repe,
)
from .config import Config, ConfigError, load_config, parse_config

# purify_n_rounds: dense reference, but bench/test_spans.py checks it is bound here
from .purify import purify_n_rounds

__version__ = "0.1.0"
