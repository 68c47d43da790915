"""qrepsim: design toolkit for cavity-linked atom-array quantum repeaters.

Deterministic simulation of heralded entanglement links, entanglement
purification, entanglement swapping chains, and the schedule optimization
tying them into rate/fidelity curves. Production runs on four Bell weights
per pair in closed form; the dense density-matrix circuits (``states``,
``noise``, ``purify_round``) are the reference the tests check it against.
"""

from .states import (
    BELL_LABELS,
    PHI_MINUS,
    PHI_PLUS,
    PSI_MINUS,
    PSI_PLUS,
    BellDiagonalState,
    DensityMatrix,
    KrausChannel,
    PhysicalityError,
    apply_channel,
    bell_state,
    computational_state,
    depolarizing_channel,
    fidelity_bell,
    identity_channel,
    maximally_mixed,
    partial_trace,
    purity,
    tensor,
    to_bell_diagonal,
    unitary_channel,
    werner,
)
from .noise import (
    IDEAL_OPS,
    GateNoiseParams,
    MeasurementRecord,
    noisy_measure_z,
    noisy_two_qubit_gate,
    swap_gate,
    transport_channel,
)
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
    PurificationRound,
    PurificationSchedule,
    balance_errors,
    fixed_point_fidelity,
    purify_ladder_weights,
    purify_n_rounds,
    purify_round,
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
    ChainParams,
    ChainPlan,
    bell_measurement,
    optimize_plan,
    rate_vs_distance,
    t_repe,
)
from .config import Config, ConfigError, load_config, parse_config

__version__ = "0.1.0"
