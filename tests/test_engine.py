"""The Bell-weight engine equals the dense circuits, as properties.

Every stage the command line runs on four Bell weights (zone state,
entanglement swap, purification round and ladder) is compared on generated
inputs against two dense paths: the package's reference algebra
(``qrepsim.states`` and ``qrepsim.noise``, composed in ``dense.py`` and
``purify_round``) and the independent raw-numpy ``oracle``. The dense
results must also stay Bell-diagonal: that is what lets four weights carry
the whole state. Generation is derandomized so the suite is repeatable.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dense
import oracle
from qrepsim import (
    BellDiagonalState,
    GateNoiseParams,
    LinkParams,
    PurificationError,
    bell_measurement,
    purify_ladder_weights,
    purify_n_rounds,
    purify_round,
    purify_round_weights,
    qc_zone_state,
    tensor,
    to_bell_diagonal,
)

TOL = 1e-12
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)


def _up_to_one(lo: float):
    """Floats in (lo, 1], with the ideal edge 1.0 drawn as its own case."""
    return st.one_of(st.just(1.0), st.floats(lo, 1.0, exclude_min=True))


f_ops = _up_to_one(0.25)
etas = _up_to_one(0.5)
bell_weights = (
    st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4)
    .filter(lambda w: sum(w) > 1e-3)
    .map(lambda w: BellDiagonalState(np.array(w) / sum(w)))
)


def _max_diff(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


@PROPERTY
@given(f_tech=_up_to_one(0.25), f_op=f_ops, f_move=_up_to_one(0.25))
def test_zone_state_equals_dense(f_tech, f_op, f_move):
    lp = LinkParams(technical_fidelity=f_tech)
    noise = GateNoiseParams(f_op=f_op)
    engine = qc_zone_state(lp, noise, f_move).weights
    package, leakage = to_bell_diagonal(dense.qc_zone_state(lp, noise, f_move))
    reference, oracle_leakage = oracle.bell_weights(oracle.qc_zone_state(f_tech, f_op, f_move))
    assert leakage <= TOL and oracle_leakage <= TOL
    assert _max_diff(engine, package.weights) <= TOL
    assert _max_diff(engine, reference) <= TOL


@PROPERTY
@given(left=bell_weights, right=bell_weights, f_op=f_ops, eta=etas)
def test_swap_equals_dense(left, right, f_op, eta):
    params = GateNoiseParams(f_op=f_op, eta_meas=eta)
    engine = bell_measurement(left, right, params).weights
    two_pairs = tensor(left.to_density_matrix(), right.to_density_matrix())
    package, leakage = to_bell_diagonal(dense.bell_measurement(two_pairs, params)[0])
    reference, oracle_leakage = oracle.bell_weights(
        oracle.bell_measurement(two_pairs.matrix, f_op, eta)
    )
    assert leakage <= TOL and oracle_leakage <= TOL
    assert _max_diff(engine, package.weights) <= TOL
    assert _max_diff(engine, reference) <= TOL


@PROPERTY
@given(
    kept=bell_weights,
    sacrificed=bell_weights,
    f_op=f_ops,
    eta=etas,
    balanced=st.booleans(),
)
def test_purify_round_equals_dense(kept, sacrificed, f_op, eta, balanced):
    params = GateNoiseParams(f_op=f_op, eta_meas=eta)
    try:
        engine, p_puri = purify_round_weights(kept, sacrificed, params, balanced)
    except PurificationError:
        assume(False)
    # stay clear of the 1e-12 degeneracy cut, where either path may raise
    assume(p_puri > 1e-9)
    rho_kept, rho_sacrificed = kept.to_density_matrix(), sacrificed.to_density_matrix()
    full = purify_round(rho_kept, rho_sacrificed, params, balanced)
    package, leakage = to_bell_diagonal(full.output_state)
    p_ref, out_ref = oracle.purify_round(
        rho_kept.matrix, rho_sacrificed.matrix, f_op, eta, balanced
    )
    reference, oracle_leakage = oracle.bell_weights(out_ref)
    # compare the accepted (unnormalized) state: dividing by a small P_puri
    # would magnify the round-off differences between the paths
    accepted = engine.weights * p_puri
    assert abs(p_puri - full.p_puri) <= TOL and abs(p_puri - p_ref) <= TOL
    assert leakage * full.p_puri <= TOL and oracle_leakage * p_ref <= TOL
    assert _max_diff(accepted, package.weights * full.p_puri) <= TOL
    assert _max_diff(accepted, reference * p_ref) <= TOL


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(f0=st.floats(0.5, 1.0), n=st.integers(0, 3), f_op=f_ops, eta=etas)
def test_purify_ladder_equals_dense(f0, n, f_op, eta):
    params = GateNoiseParams(f_op=f_op, eta_meas=eta)
    initial = BellDiagonalState.werner(f0)
    states, p_list = purify_ladder_weights(initial, n, params)
    full = purify_n_rounds(initial.to_density_matrix(), n, params)
    assert _max_diff([s.fidelity for s in states], full.fidelities) <= TOL
    assert len(p_list) == n
    if n:
        assert _max_diff(p_list, full.success_probabilities) <= TOL
