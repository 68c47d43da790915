"""The float Bell-weight engine equals the numpy engine it replaced, exactly.

``scalar_engine`` holds the numpy ``BellDiagonalState`` validation,
purification round, ladder and swap that the package ran before. The
package runs the same arithmetic on four Python floats in the same order.
On generated states and noise settings every weight and P_puri must be the
same float (compared by ``float.hex``, so even the sign of a zero counts),
and every error must have the same type and message; so must the value of
``fixed_point_fidelity`` and the loop it ran, on the reference round. The
one intended difference: a NaN weight, which the numpy validation let
through, is rejected. Generation is derandomized so the suite is repeatable.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scalar_engine as ref
from qrepsim import (
    IDEAL_OPS,
    BellDiagonalState,
    GateNoiseParams,
    bell_measurement,
    fixed_point_fidelity,
    purify_ladder_weights,
    purify_round_weights,
)
from qrepsim.chain import chain_fidelity_table

EXACT = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def _up_to_one(lo: float):
    """Floats in (lo, 1], with the ideal edge 1.0 drawn as its own case."""
    return st.one_of(st.just(1.0), st.floats(lo, 1.0, exclude_min=True))


noises = st.builds(GateNoiseParams, f_op=_up_to_one(0.25), eta_meas=_up_to_one(0.5))
# normalized weights, some nudged by up to 2e-9 so that both the clip and
# the +-1e-9 range and sum checks are reached
raw = st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4).filter(lambda w: sum(w) > 1e-3)
nudges = st.lists(
    st.one_of(st.just(0.0), st.just(-0.0), st.floats(-2e-9, 2e-9)), min_size=4, max_size=4
)
weights = st.one_of(
    st.floats(0.25, 1.0).map(lambda f: [(1 - f) / 3, (1 - f) / 3, f, (1 - f) / 3]),
    st.sampled_from([[0.0, 0.0, 1.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.25] * 4]),
    raw.map(lambda w: [x / sum(w) for x in w]),
    st.tuples(raw, nudges).map(lambda wn: [x / sum(wn[0]) + d for x, d in zip(*wn)]),
)
states = weights.filter(lambda w: _outcome(ref.BellDiagonalState, w)[0] == "ok")


def _hex(values) -> list:
    return [float(x).hex() for x in values]


def _outcome(fn, *args):
    """("ok", result) or ("error", exception type, message)."""
    try:
        return ("ok", fn(*args))
    except (ValueError, ArithmeticError) as exc:
        return ("error", type(exc), str(exc))


def _same(outcome, reference, canonical):
    """Both raised alike, or both returned results with equal canonical forms."""
    if outcome[0] == "error" or reference[0] == "error":
        assert outcome == reference
    else:
        assert canonical(outcome[1]) == canonical(reference[1])


def _state(state) -> list:
    return _hex(state.weights)


def _round(result) -> tuple:
    state, p_puri = result
    return _state(state), p_puri.hex()


def _ladder(result) -> tuple:
    states, p_list = result
    return [_state(s) for s in states], _hex(p_list)


def _table(table) -> tuple:
    return (
        _hex(table.pre_swap_fidelities),
        _hex(table.pre_swap_p),
        [_hex(row) for row in table.end_fidelities],
        [_hex(row) for row in table.end_p],
    )


special = st.sampled_from([math.inf, -math.inf, -1e-9, 1 + 1e-9, -0.0, 2.0])


@EXACT
@given(
    w=st.one_of(
        weights,
        st.lists(st.one_of(st.floats(-2.0, 2.0), special), min_size=4, max_size=4),
        st.lists(st.floats(0.0, 1.0), min_size=0, max_size=6),
    )
)
@example(w=np.array([[0.5], [0.5], [0.0], [0.0]]))
@example(w=(0.25, 0.25, 0.25))
@example(w=[1, 0, 0, 0])
@example(w=[-0.0, -1e-10, 0.5, 0.5 + 1e-10])  # the clip keeps -0.0
def test_validation_equals_reference(w):
    _same(_outcome(BellDiagonalState, w), _outcome(ref.BellDiagonalState, w), _state)


@EXACT
@given(f=st.floats(0.0, 1.5))
def test_werner_equals_reference(f):
    _same(
        _outcome(BellDiagonalState.werner, f), _outcome(ref.BellDiagonalState.werner, f), _state
    )


@EXACT
@given(kept=states, sacrificed=states, noise=noises)
# phi+ against psi+ is always rejected by perfect readout: P_puri = 0
@example([1.0, 0, 0, 0], [0, 0, 1.0, 0], GateNoiseParams(1.0, 1.0))
def test_round_equals_reference(kept, sacrificed, noise):
    package = (BellDiagonalState(kept), BellDiagonalState(sacrificed), noise)
    reference = (ref.BellDiagonalState(kept), ref.BellDiagonalState(sacrificed), noise)
    _same(
        _outcome(purify_round_weights, *package),
        _outcome(ref.purify_round_weights, *reference),
        _round,
    )


@EXACT
@given(initial=states, n=st.integers(0, 10), noise=noises)
def test_ladder_equals_reference(initial, n, noise):
    _same(
        _outcome(purify_ladder_weights, BellDiagonalState(initial), n, noise),
        _outcome(ref.purify_ladder_weights, ref.BellDiagonalState(initial), n, noise),
        _ladder,
    )


# one-hot, half and quarter weights, some -0.0, each nudged by up to 2e-9 past
# 0 and 1: the clip, the +-1e-9 range check and the sum check all run, and
# an input that one side rejects the other must reject with the same message
edges = st.tuples(
    st.sampled_from(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [-0.0, -0.0, 1.0, -0.0],
            [0.0, 1.0, -0.0, 0.0],
            [0.5, -0.0, 0.5, 0.0],
            [0.25, 0.25, 0.25, 0.25],
        ]
    ),
    nudges,
).map(lambda bn: [x + d for x, d in zip(*bn)])


@EXACT
@given(kept=edges, sacrificed=edges, noise=noises, n=st.integers(0, 6))
# phi+ against psi+ with perfect gates and readout: P_puri = 0, so the round degenerates
@example([1.0, 0.0, -0.0, 0.0], [0.0, -0.0, 1.0, 0.0], IDEAL_OPS, 3)
@example([-1e-9, 0.0, 1.0 + 1e-9, 0.0], [1e-9, 0.0, 1.0, -1e-9], IDEAL_OPS, 2)  # both clip
@example([-2e-9, 0.0, 1.0, 0.0], [0.0, 0.0, 1.0, 0.0], IDEAL_OPS, 1)  # out of range
@example([2e-9, 0.0, 1.0, 0.0], [0.0, 0.0, 1.0, 0.0], IDEAL_OPS, 1)  # sum off by 2e-9
def test_kernel_equals_reference_at_the_edges(kept, sacrificed, noise, n):
    """Rounds and ladders run the kernel: its outputs are checked once and never renormalized."""
    for w in (kept, sacrificed):
        _same(_outcome(BellDiagonalState, w), _outcome(ref.BellDiagonalState, w), _state)
    if any(_outcome(ref.BellDiagonalState, w)[0] == "error" for w in (kept, sacrificed)):
        return
    package = BellDiagonalState(kept), BellDiagonalState(sacrificed), noise
    reference = ref.BellDiagonalState(kept), ref.BellDiagonalState(sacrificed), noise
    _same(
        _outcome(purify_round_weights, *package),
        _outcome(ref.purify_round_weights, *reference),
        _round,
    )
    _same(
        _outcome(purify_ladder_weights, package[0], n, noise),
        _outcome(ref.purify_ladder_weights, reference[0], n, noise),
        _ladder,
    )


def _reference_fixed_point(params, *, tolerance, max_rounds, seed_fidelity):
    """The fixed-point loop on the reference round, as the package ran it before."""
    state = ref.BellDiagonalState.werner(seed_fidelity)
    fid = state.fidelity
    for _ in range(max_rounds):
        state, _ = ref.purify_round_weights(state, state, params)
        if abs(state.fidelity - fid) < tolerance:
            return state.fidelity
        fid = state.fidelity
    raise RuntimeError(f"purification fixed point did not converge within {max_rounds} rounds")


@EXACT
@given(
    noise=st.one_of(st.just(IDEAL_OPS), noises),
    tolerance=st.sampled_from([1e-9, 1e-12, 0.0]),  # 0: never converges
    max_rounds=st.sampled_from([64, 3, 0]),
    seed_fidelity=st.one_of(st.just(0.95), st.floats(0.2, 1.0)),
)
@example(IDEAL_OPS, 1e-12, 64, 0.95)  # converges to 1
@example(GateNoiseParams(f_op=0.9, eta_meas=0.9), 1e-9, 64, 0.95)  # contracts to 0.25
@example(GateNoiseParams(f_op=0.995, eta_meas=0.99), 0.0, 64, 0.95)  # does not converge
def test_fixed_point_equals_the_reference_loop(noise, tolerance, max_rounds, seed_fidelity):
    def outcome(fn):
        try:
            return _outcome(fn)
        except RuntimeError as exc:  # no convergence
            return ("error", type(exc), str(exc))

    kwargs = dict(tolerance=tolerance, max_rounds=max_rounds, seed_fidelity=seed_fidelity)
    package = outcome(lambda: fixed_point_fidelity(noise, **kwargs))
    reference = outcome(lambda: _reference_fixed_point(noise, **kwargs))
    _same(package, reference, float.hex)


@EXACT
@given(left=states, right=states, noise=noises)
def test_swap_equals_reference(left, right, noise):
    _same(
        _outcome(bell_measurement, BellDiagonalState(left), BellDiagonalState(right), noise),
        _outcome(
            ref.bell_measurement, ref.BellDiagonalState(left), ref.BellDiagonalState(right), noise
        ),
        _state,
    )


@settings(EXACT, max_examples=60)
@given(initial=states, levels=st.integers(0, 5), noise=noises, n_max=st.integers(0, 8))
def test_fidelity_table_equals_reference(initial, levels, noise, n_max):
    _same(
        _outcome(chain_fidelity_table, BellDiagonalState(initial), levels, noise, n_max),
        _outcome(ref.chain_fidelity_table, ref.BellDiagonalState(initial), levels, noise, n_max),
        _table,
    )


@EXACT
@given(
    w=st.lists(
        st.floats(0.0, 1.0).flatmap(lambda x: st.sampled_from([x, x * 1e-8, x * 1e8])),
        min_size=4,
        max_size=4,
    )
)
# a sum that another association rounds differently
@example(w=[1.0, 1e-16, 1e-16, 1e-16])
def test_numpy_sums_four_floats_left_to_right(w):
    """The float engine's ((w0 + w1) + w2) + w3 is what numpy's sum computes."""
    w0, w1, w2, w3 = w
    assert float(np.array(w).sum()) == ((w0 + w1) + w2) + w3
    assert float(np.array([w, w]).sum(axis=1)[1]) == ((w0 + w1) + w2) + w3


def test_left_to_right_is_not_the_only_association():
    w0, w1, w2, w3 = 1.0, 1e-16, 1e-16, 1e-16
    assert ((w0 + w1) + w2) + w3 != w0 + ((w1 + w2) + w3)
