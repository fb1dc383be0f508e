import functools
import math
import tracemalloc

import numpy as np
import pytest

from hdcnav.io import SyntheticProfile, generate
from hdcnav.kernel import build_kernel
from hdcnav.network import (DEFAULT_DT, SETTLE_SECONDS, DegenerateActivityError,
                            HDCNetwork, TurningStimulus)
from hdcnav.neuron import NEURON, transfer
from hdcnav.io import Trajectory
from hdcnav.tracker import track


@pytest.fixture(scope="module")
def settled(kernel):
    net = HDCNetwork(kernel)
    net.init_at(np.pi)
    return net


def wrapped_deg(a, b):
    return np.degrees(np.remainder(a - b + np.pi, 2 * np.pi) - np.pi)


def test_stimulus_validation():
    for side in ("left", "right"):
        for value in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                TurningStimulus(**{side: value})


def decode_rates(kernel, hdc_rates):
    """Decode of a network whose heading layer holds ``hdc_rates``."""
    net = HDCNetwork(kernel)
    net.rates = np.stack((hdc_rates, hdc_rates, hdc_rates))
    return net.decode()


def test_decode_of_synthetic_bump(kernel):
    theta = 2 * np.pi * np.arange(kernel.n) / kernel.n
    bump = 10.0 + 60.0 * np.exp(5.0 * (np.cos(theta - 1.0) - 1.0))
    assert decode_rates(kernel, bump) == pytest.approx(1.0, abs=1e-6)


def test_decode_rejects_flat_activity(kernel):
    with pytest.raises(DegenerateActivityError):
        decode_rates(kernel, np.full(kernel.n, 10.0))


def test_decode_refuses_a_non_finite_state(kernel, settled):
    # One NaN or inf rate, or an all-inf heading layer (numpy's own matmul
    # warning silenced), is refused by a single network and is NaN in a batch.
    # Unrefused, one inf rate would decode to arctan2(inf, inf) = pi/4.
    net = HDCNetwork(kernel)
    for cell, value in ((3, np.nan), (10, np.inf)):
        net.rates = settled.rates.copy()
        net.rates[0, cell] = value
        with pytest.raises(DegenerateActivityError, match="not finite"):
            net.decode()
        net.rates = np.stack((settled.rates, net.rates), axis=-1)
        headings = net.decode()
        assert headings[0] == settled.decode() and np.isnan(headings[1])
    with np.errstate(invalid="ignore"), pytest.raises(DegenerateActivityError,
                                                      match="not finite"):
        decode_rates(kernel, np.full(kernel.n, np.inf))


def test_decode_maps_tiny_negative_angle_to_zero(kernel):
    # One cell at theta = 0 and a trace on cell n - 1: the population
    # vector's angle is a tiny negative number, which % 2*pi rounds to 2*pi.
    rates = np.zeros(kernel.n)
    rates[0], rates[-1] = 1000.0, 1e-17
    assert decode_rates(kernel, rates) == 0.0
    assert decode_rates(kernel, np.column_stack((rates, rates))).tolist() == [0.0, 0.0]


def test_batched_decode_reports_degenerate_columns(kernel):
    n = kernel.n
    theta = 2 * np.pi * np.arange(n) / n
    bump = 10.0 + 60.0 * np.exp(5.0 * (np.cos(theta - 1.0) - 1.0))
    headings = decode_rates(kernel, np.column_stack((bump, np.full(n, 10.0),
                                                     np.roll(bump, 25))))
    assert headings.shape == (3,)
    assert np.isnan(headings[1])
    assert headings[0] == pytest.approx(1.0, abs=1e-6)
    assert headings[2] == pytest.approx(1.0 + np.pi / 2, abs=1e-6)


def settled_rates(kernel, heading):
    """The rates of a single network after ``init_at(heading)``."""
    net = HDCNetwork(kernel)
    net.init_at(heading)
    return net.rates


def test_batch_matches_single_networks(kernel):
    headings = np.array([0.5, 2.0, 4.0])
    left, right = np.array([0.03, 0.0, 0.05]), np.array([0.0, 0.04, 0.02])
    frames = (0.0103, 0.0097, 0.0104) * 10  # off the 2 ms Euler grid
    batch = HDCNetwork(kernel)
    batch.rates = np.stack([settled_rates(kernel, h) for h in headings], axis=-1)
    for frame_dt in frames:
        batch.run_frame(TurningStimulus(left, right), frame_dt)
    batch.step(TurningStimulus(left, right))
    assert batch.rates.shape == (3, kernel.n, 3)
    batch_decoded = batch.decode()
    for col in range(3):
        net = HDCNetwork(kernel)
        net.init_at(headings[col])
        stim = TurningStimulus(left[col], right[col])
        for frame_dt in frames:
            net.run_frame(stim, frame_dt)
        net.step(stim)
        assert net.rates.shape == (3, kernel.n)
        assert type(net.decode()) is float
        np.testing.assert_allclose(batch.rates[..., col], net.rates, rtol=0, atol=1e-12)
        assert abs(wrapped_deg(batch_decoded[col], net.decode())) < 1e-9


def test_batch_refuses_mismatched_stimulus(kernel):
    net = HDCNetwork(kernel)
    net.rates = np.repeat(settled_rates(kernel, 0.0)[..., np.newaxis], 2, axis=2)
    with pytest.raises(ValueError):
        net.run_frame(TurningStimulus(left=np.zeros(3)), 0.01)
    with pytest.raises(ValueError):
        net.step(TurningStimulus(right=np.zeros(kernel.n)))
    with pytest.raises(TypeError):  # a step has no default stimulus
        net.step()
    single = HDCNetwork(kernel)
    single.init_at(0.0)
    # A length-n stimulus would broadcast over the cells of a single network.
    with pytest.raises(ValueError):
        single.run_frame(TurningStimulus(left=np.zeros(kernel.n)), 0.01)
    with pytest.raises(ValueError):
        TurningStimulus(left=np.array([0.01, -0.01]))
    with pytest.raises(ValueError):
        TurningStimulus(right=np.array([0.01, np.inf]))
    # init_at takes one finite heading; a batch comes only from rates.
    with pytest.raises(ValueError):
        single.init_at(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        single.init_at(np.array([0.0, np.nan]))
    with pytest.raises(ValueError):   # length n would broadcast over the cells
        single.init_at(np.zeros(kernel.n))
    assert single.rates.shape == (3, kernel.n)


def test_init_at_grid_consistency(kernel):
    for i in range(0, 100, 10):
        heading = 2 * np.pi * i / 100
        net = HDCNetwork(kernel)
        net.init_at(heading)
        assert abs(wrapped_deg(net.decode(), heading)) < 0.1


def test_settled_rates_bounded(settled):
    assert np.all(settled.rates > 0.0)
    assert np.all(settled.rates < 76.2)


def test_shift_layers_mirror_hdc_shape(settled):
    hdc, left, right = settled.rates
    np.testing.assert_allclose(left, right, atol=1e-9)
    # same peak location as the heading layer
    assert np.argmax(left) == np.argmax(hdc)
    # lower amplitude: phi(u/2) of the heading layer's recurrent drive
    ratio = left.max() / hdc.max()
    assert 0.4 < ratio < 0.75


# Level 1.0, and the 60 s zero-stimulus drift, are acceptance clauses c6
# and c3 (test_acceptance).
@pytest.mark.parametrize("level", [0.5, 2.0])
def test_equal_stimulus_cancellation(kernel, level):
    net = HDCNetwork(kernel)
    net.init_at(np.pi)
    h0 = net.decode()
    net.run_frame(TurningStimulus(left=level, right=level), 1.0)
    assert abs(wrapped_deg(net.decode(), h0)) < 0.05


@pytest.mark.parametrize("level", [0.02, 0.046])
def test_left_right_antisymmetry(kernel, level):
    speeds = {}
    for side in ("left", "right"):
        net = HDCNetwork(kernel)
        net.init_at(np.pi)
        net.run_frame(TurningStimulus(**{side: level}), 2.0)
        # displacement over the final second, past the spin-up transient
        h1 = net.decode()
        net.run_frame(TurningStimulus(**{side: level}), 1.0)
        speeds[side] = np.remainder(net.decode() - h1 + np.pi, 2 * np.pi) - np.pi
    assert speeds["left"] > 0.0
    assert speeds["right"] < 0.0
    assert abs(speeds["left"]) == pytest.approx(abs(speeds["right"]), rel=0.02)


def test_left_stimulus_moves_counterclockwise(kernel):
    net = HDCNetwork(kernel)
    net.init_at(1.0)
    net.run_frame(TurningStimulus(left=0.046), 1.0)
    assert wrapped_deg(net.decode(), 1.0) > 1.0


def test_run_frame_rejects_subresolution_interval(kernel):
    # Only an interval that is not positive and finite is refused; a short
    # one runs as a single sub-step (test_run_frame_short_interval_is_one_substep).
    net = HDCNetwork(kernel)
    for frame_dt in (0.0, -0.01, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="positive and finite"):
            net.run_frame(TurningStimulus(), frame_dt)


def test_dt_is_fixed_at_default_dt(kernel):
    # The one step is inside the neuron model's stable range; a finer step
    # is a shorter frame, not an option.
    assert 0.0 < DEFAULT_DT <= NEURON.max_dt
    net = HDCNetwork(kernel)
    assert net.dt == DEFAULT_DT
    with pytest.raises(AttributeError):
        net.dt = DEFAULT_DT / 2
    with pytest.raises(TypeError):
        HDCNetwork(kernel, dt=DEFAULT_DT / 2)


def test_state_round_trip(kernel):
    # Putting saved rates back replays the same frame from the same state.
    net = HDCNetwork(kernel)
    net.init_at(2.0)
    saved, heading = net.rates.copy(), net.decode()
    net.run_frame(TurningStimulus(left=0.03), 0.5)
    moved = net.rates.copy()
    net.rates = saved.copy()
    assert net.decode() == heading
    net.run_frame(TurningStimulus(left=0.03), 0.5)
    np.testing.assert_array_equal(net.rates, moved)


def run_sliced(net, stim, frame_dt, step):
    """``run_frame`` at Euler step ``step`` <= DEFAULT_DT: one slice per step."""
    slices = max(1, int(np.ceil(frame_dt / step - 1e-9)))
    for _ in range(slices):
        net.run_frame(stim, frame_dt / slices)


@functools.cache
def maze_final_heading(kernel, gain, dt):
    """Final decoded heading of the 30 s balanced maze at Euler step ``dt``,
    computed once per session for each step.

    The settle of ``init_at`` and every frame are cut into slices of at
    most that step.
    """
    records = generate(SyntheticProfile("balanced_maze", np.radians(30), 30.0))
    t, omega = records.t.tolist(), records.omega.tolist()
    curve = kernel.curve
    profile = curve.evaluate(curve.preferred_directions)
    net = HDCNetwork(kernel)
    net.rates = np.stack((profile, profile / 2.0, profile / 2.0))
    run_sliced(net, TurningStimulus(), SETTLE_SECONDS, dt)
    for k in range(1, len(t)):
        run_sliced(net, gain.stimulus(omega[k]), t[k] - t[k - 1], dt)
    return net.decode()


def test_halving_dt_changes_little(kernel, gain):
    first, second = (maze_final_heading(kernel, gain, dt) for dt in (0.0005, 0.00025))
    assert abs(wrapped_deg(first, second)) < 0.1


def test_halving_default_dt_changes_little(kernel, gain):
    first, second = (maze_final_heading(kernel, gain, dt)
                     for dt in (DEFAULT_DT, DEFAULT_DT / 2))
    assert abs(wrapped_deg(first, second)) < 0.1


def test_kernel_with_strong_inhibition_settles_without_overflow():
    # lam = 0.001 and gamma = 50 drive some synaptic inputs far below -860,
    # where exp(-beta * (x - h0)) overflowed; warnings are errors here.
    net = HDCNetwork(build_kernel(lam=0.001, gamma=50))
    net.init_at(0.0)
    assert np.all(net.rates > 0.0) and np.all(net.rates < 76.2)
    assert np.all(transfer(np.array([-1.7e308, -1e4, -870.0])) > 0.0)


@pytest.mark.parametrize("frame_dt, jitter", [(0.0103, 0.0), (0.0104, 0.0),
                                              (0.010, 0.1)])
def test_off_grid_frames_keep_lap_accuracy(kernel, gain, frame_dt, jitter):
    # Frames that are not a multiple of dt, fixed or jittered by +-10%,
    # must integrate exactly their own length.
    omega = math.radians(20)
    n_frames = int(round(2 * math.pi / omega / frame_dt))
    rng = np.random.default_rng(7)
    t = np.concatenate(([0.0], np.cumsum(
        frame_dt * (1.0 + rng.uniform(-jitter, jitter, n_frames)))))
    report = track(Trajectory(t, np.full(len(t), omega)), kernel, gain)
    decoded = np.unwrap(report.decoded)
    accumulated = math.degrees(decoded[-1] - decoded[0] - t[-1] * omega)
    assert abs(accumulated) < 1.0


def _ring(weights):
    """n x n ring connectivity from a distance-indexed kernel, no self-weight."""
    n = len(weights)
    mat = weights[(np.arange(n)[None, :] - np.arange(n)[:, None]) % n]
    np.fill_diagonal(mat, 0.0)
    return mat


# -- oracles: the step as plain expressions, each making a new array ----

def _n_steps(frame_dt):
    return max(1, int(np.ceil(frame_dt / DEFAULT_DT - 1e-9)))


def _expression_frame(kernel, rates, stim, frame_dt):
    """``run_frame`` with the inputs, the sigmoid and the update as whole
    expressions in the tanh form r_max / 2 (1 - tanh(z)), z = -beta (u - h0) / 2:
    -beta/2 folded into the rings and beta h0 / 2 into a last shift column
    that meets a one below f_L - f_R.

    Same operations in the same order, on matrices in the same memory
    order, as the buffered step, so the two must agree bit for bit.
    """
    p = NEURON
    bias = p.beta * p.h0
    recurrent = np.asfortranarray(_ring(kernel.h_to_h) * (-p.beta / 2))
    shift = np.asfortranarray(np.column_stack((_ring(kernel.s_to_h) * (-p.beta / 2),
                                               np.full(kernel.n, bias / 2))))
    n_steps = _n_steps(frame_dt)
    dt_tau = frame_dt / n_steps / p.tau
    c = dt_tau * p.r_max / 2
    offset_left = (bias - p.beta * stim.left) / 2
    offset_right = (bias - p.beta * stim.right) / 2
    for _ in range(n_steps):
        hdc, left, right = rates
        drive = recurrent @ hdc
        half = drive * 0.5
        diff = np.concatenate((left - right, np.ones((1,) + left.shape[1:])))
        z = np.array((drive + shift @ diff, half + offset_left, half + offset_right))
        rates = (1.0 - dt_tau) * rates + c - c * np.tanh(z)
    return rates


def _exp_form_frame(kernel, rates, stim, frame_dt):
    """``run_frame`` in the model's own terms: the inputs u, the transfer
    r_max / (1 + exp(-beta (u - h0))) and rates += dt/tau (transfer - rates).
    Rounds differently from the tanh step."""
    p = NEURON
    recurrent, shift = _ring(kernel.h_to_h), _ring(kernel.s_to_h)
    n_steps = _n_steps(frame_dt)
    dt_tau = frame_dt / n_steps / p.tau
    for _ in range(n_steps):
        hdc, left, right = rates
        drive = recurrent @ hdc
        half = drive / 2.0
        inputs = np.array((drive + shift @ (left - right),
                           half + stim.left, half + stim.right))
        rate = p.r_max / (1.0 + np.exp(np.minimum(-p.beta * (inputs - p.h0), 709.0)))
        rates = rates + dt_tau * (rate - rates)
    return rates


def _init(frame, kernel, headings):
    """``init_at`` by ``frame`` from each heading, the settled states stacked
    on a last axis, or the single state of a scalar heading."""
    curve = kernel.curve
    states = []
    for heading in np.atleast_1d(headings):
        profile = curve.evaluate(curve.preferred_directions - heading)
        states.append(frame(kernel, np.stack((profile, profile / 2.0, profile / 2.0)),
                            TurningStimulus(), SETTLE_SECONDS))
    return np.stack(states, axis=-1) if np.ndim(headings) else states[0]


def test_run_frame_is_bit_identical_to_the_expression_step(kernel):
    # One network through single -> batch -> single states by init_at (the
    # batch stacks the settled states of its headings), then rates assigned
    # directly (a new batch size, then single twice); each state runs 1,
    # 1.05 and 10 ms frames with both stimuli non-zero. The exp-form step
    # agrees to rounding, from init_at's 0.5 s settle on.
    rng = np.random.default_rng(21)
    single = TurningStimulus(left=0.03, right=0.012)
    net = HDCNetwork(kernel)
    for start in (1.0, np.array([0.5, 2.0, 4.0]), 4.0, (2,), (), ()):
        if isinstance(start, tuple):
            net.rates = rng.uniform(0.0, 76.2, (3, kernel.n) + start)
            expected = reference = net.rates.copy()
        else:
            if np.ndim(start):
                net.rates = np.stack([settled_rates(kernel, h) for h in start], axis=-1)
            else:
                net.init_at(start)
            expected = _init(_expression_frame, kernel, start)
            reference = _init(_exp_form_frame, kernel, start)
            assert np.array_equal(net.rates, expected)
            np.testing.assert_allclose(net.rates, reference, rtol=1e-12, atol=0)
        batch = net.rates.shape[2:]
        stim = (TurningStimulus(rng.uniform(0.01, 0.05, batch), rng.uniform(0.01, 0.05, batch))
                if batch else single)
        for frame_dt in (0.001, 0.00105, 0.010):
            net.run_frame(stim, frame_dt)
            expected = _expression_frame(kernel, expected, stim, frame_dt)
            reference = _exp_form_frame(kernel, reference, stim, frame_dt)
            assert np.array_equal(net.rates, expected)
            np.testing.assert_allclose(net.rates, reference, rtol=1e-12, atol=0)


def test_run_frame_allocates_no_array(kernel):
    # Python's allocator sees every numpy array. A frame's traced peak stays
    # below one (3, n) input array and does not grow with the batch size.
    peaks = []
    single = settled_rates(kernel, 0.0)
    for rates in (single, np.repeat(single[..., np.newaxis], 20, axis=2)):
        net = HDCNetwork(kernel)
        net.rates = rates
        stim = TurningStimulus(left=0.03, right=0.01)
        net.run_frame(stim, 0.01)
        tracemalloc.start()
        try:
            net.run_frame(stim, 0.01)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 3 * 8 * kernel.n
    assert peaks[1] < peaks[0] + 8 * kernel.n


# -- oracle: the 3n x 3n block-matrix form of the same dynamics ---------

def _block_matrix(kernel):
    """Connectivity over the stacked state [hdc, shift_left, shift_right]."""
    n = kernel.n
    w, w_shift = _ring(kernel.h_to_h), _ring(kernel.s_to_h)
    half, zero = _ring(kernel.h_to_h / 2.0), np.zeros((n, n))
    return np.block([[w, w_shift, -w_shift],
                     [half, zero, zero],
                     [half, zero, zero]])


def _block_step(block, rates, stim, dt):
    """One Euler step of the stacked state, written out: a sub-step that
    ``run_frame`` cuts from a frame may be an ulp over ``NEURON.max_dt``,
    which ``neuron.euler_step`` refuses."""
    n = len(rates) // 3
    drive = np.concatenate((np.zeros(n), np.full(n, stim.left),
                            np.full(n, stim.right)))
    return rates + dt / NEURON.tau * (transfer(block @ rates + drive) - rates)


def test_step_matches_block_oracle(kernel):
    block = _block_matrix(kernel)
    rng = np.random.default_rng(11)
    net = HDCNetwork(kernel)
    for _ in range(10):
        rates = rng.uniform(0.0, 76.2, 3 * kernel.n)
        stim = TurningStimulus(*rng.uniform(0.0, 1.0, 2))
        net.rates = rates.reshape(3, kernel.n).copy()
        net.step(stim)
        # The stacked state [hdc, shift_left, shift_right] is rates.ravel().
        np.testing.assert_allclose(net.rates.ravel(),
                                   _block_step(block, rates, stim, net.dt),
                                   rtol=1e-12)


def test_run_frame_substep_count(kernel):
    # A 10 ms frame is 5 steps of DEFAULT_DT (2 ms); cut into 20 slices it
    # is 20 steps of 0.5 ms.
    block, stim = _block_matrix(kernel), TurningStimulus(left=0.03)
    net = HDCNetwork(kernel)
    net.init_at(0.0)
    for slices, step in ((1, DEFAULT_DT), (20, 0.0005)):
        expected = net.rates.ravel()
        for _ in range(round(0.010 / step)):
            expected = _block_step(block, expected, stim, step)
        for _ in range(slices):
            net.run_frame(stim, 0.010 / slices)
        np.testing.assert_allclose(net.rates.ravel(), expected, rtol=1e-12)


def test_run_frame_short_interval_is_one_substep(kernel):
    # A 0.3 ms frame is one Euler step of 0.3 ms.
    stim = TurningStimulus(left=0.03)
    net = HDCNetwork(kernel)
    net.init_at(0.0)
    expected = _block_step(_block_matrix(kernel), net.rates.ravel(), stim, 0.0003)
    net.run_frame(stim, 0.0003)
    np.testing.assert_allclose(net.rates.ravel(), expected, rtol=1e-12)


def test_run_frame_frame_under_the_step_is_one_substep(kernel):
    # A 1.9 ms frame, just under DEFAULT_DT, is one Euler step of 1.9 ms,
    # not two of 0.95 ms.
    stim = TurningStimulus(left=0.03)
    net = HDCNetwork(kernel)
    net.init_at(0.0)
    expected = _block_step(_block_matrix(kernel), net.rates.ravel(), stim, 0.0019)
    net.run_frame(stim, 0.0019)
    np.testing.assert_allclose(net.rates.ravel(), expected, rtol=1e-12)


def test_maze_replay_matches_block_oracle(kernel, gain):
    records = generate(SyntheticProfile("balanced_maze", math.radians(30), 90.0))
    decoded = track(records, kernel, gain).decoded

    block = _block_matrix(kernel)

    def run(rates, stim, frame_dt):
        n_steps = int(np.ceil(frame_dt / DEFAULT_DT - 1e-9))
        for _ in range(n_steps):
            rates = _block_step(block, rates, stim, frame_dt / n_steps)
        return rates

    curve = kernel.curve
    profile = curve.evaluate(curve.preferred_directions)
    rates = run(np.concatenate((profile, profile / 2.0, profile / 2.0)),
                TurningStimulus(), SETTLE_SECONDS)
    # One network, never stepped, decodes each oracle state.
    readout = HDCNetwork(kernel)

    def heading(rates):
        readout.rates = rates.reshape(3, kernel.n)
        return readout.decode()

    oracle = [heading(rates)]
    for frame_dt, omega in zip(np.diff(records.t).tolist(), records.omega[1:].tolist()):
        level = gain.stimulus_for(omega)
        stim = (TurningStimulus(left=level) if omega >= 0.0
                else TurningStimulus(right=level))
        rates = run(rates, stim, frame_dt)
        oracle.append(heading(rates))
    assert np.max(np.abs(wrapped_deg(decoded, np.array(oracle)))) < 1e-9
