import math

import numpy as np
import pytest

from hdcnav.io import SyntheticProfile, generate
from hdcnav.network import (DEFAULT_DT, SETTLE_SECONDS, DegenerateActivityError,
                            HDCNetwork, NetworkState, TurningStimulus,
                            ZERO_STIMULUS, decode)
from hdcnav.neuron import euler_step
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
    with pytest.raises(ValueError):
        TurningStimulus(left=-0.1)
    with pytest.raises(ValueError):
        TurningStimulus(right=float("nan"))


def test_decode_of_synthetic_bump():
    n = 100
    theta = 2 * np.pi * np.arange(n) / n
    state = NetworkState(
        hdc_rates=10.0 + 60.0 * np.exp(5.0 * (np.cos(theta - 1.0) - 1.0)),
        shift_left_rates=np.zeros(n), shift_right_rates=np.zeros(n))
    assert decode(state) == pytest.approx(1.0, abs=1e-6)


def test_decode_rejects_flat_activity():
    n = 100
    state = NetworkState(hdc_rates=np.full(n, 10.0),
                         shift_left_rates=np.zeros(n),
                         shift_right_rates=np.zeros(n))
    with pytest.raises(DegenerateActivityError):
        decode(state)


def test_decode_maps_tiny_negative_angle_to_zero(kernel):
    # One cell at theta = 0 and a trace on cell n - 1: the population
    # vector's angle is a tiny negative number, which % 2*pi rounds to 2*pi.
    rates = np.zeros(kernel.n)
    rates[0], rates[-1] = 1000.0, 1e-17
    assert decode(NetworkState(rates, rates, rates)) == 0.0
    net = HDCNetwork(kernel)
    net.set_state(NetworkState(rates, rates, rates))
    assert net.decode() == 0.0
    batch = np.column_stack((rates, rates))
    assert decode(NetworkState(batch, batch, batch)).tolist() == [0.0, 0.0]


def test_batched_decode_reports_degenerate_columns():
    n = 100
    theta = 2 * np.pi * np.arange(n) / n
    bump = 10.0 + 60.0 * np.exp(5.0 * (np.cos(theta - 1.0) - 1.0))
    rates = np.column_stack((bump, np.full(n, 10.0), np.roll(bump, 25)))
    headings = decode(NetworkState(rates, rates, rates))
    assert headings.shape == (3,)
    assert np.isnan(headings[1])
    assert headings[0] == pytest.approx(1.0, abs=1e-6)
    assert headings[2] == pytest.approx(1.0 + np.pi / 2, abs=1e-6)


def test_batch_matches_single_networks(kernel):
    headings = np.array([0.5, 2.0, 4.0])
    left, right = np.array([0.03, 0.0, 0.05]), np.array([0.0, 0.04, 0.02])
    frames = (0.0103, 0.0097, 0.0104) * 10  # off the 0.5 ms Euler grid
    batch = HDCNetwork(kernel)
    batch.init_at(headings)
    for frame_dt in frames:
        batch.run_frame(TurningStimulus(left, right), frame_dt)
    batch.step(TurningStimulus(left, right))
    assert batch.state.hdc_rates.shape == (kernel.n, 3)
    decoded = batch.decode()
    for col in range(3):
        net = HDCNetwork(kernel)
        net.init_at(headings[col])
        stim = TurningStimulus(left[col], right[col])
        for frame_dt in frames:
            net.run_frame(stim, frame_dt)
        net.step(stim)
        single, batched = net.state, batch.state
        assert single.hdc_rates.shape == (kernel.n,)
        assert type(net.decode()) is float
        for layer in ("hdc_rates", "shift_left_rates", "shift_right_rates"):
            np.testing.assert_allclose(getattr(batched, layer)[:, col],
                                       getattr(single, layer), rtol=0, atol=1e-12)
        assert abs(wrapped_deg(decoded[col], net.decode())) < 1e-9


def test_batch_refuses_mismatched_stimulus(kernel):
    net = HDCNetwork(kernel)
    net.init_at(np.zeros(2))
    with pytest.raises(ValueError):
        net.run_frame(TurningStimulus(left=np.zeros(3)), 0.01)
    with pytest.raises(ValueError):
        net.step(TurningStimulus(right=np.zeros(kernel.n)))
    single = HDCNetwork(kernel)
    single.init_at(0.0)
    # A length-n stimulus would broadcast over the cells of a single network.
    with pytest.raises(ValueError):
        single.run_frame(TurningStimulus(left=np.zeros(kernel.n)), 0.01)
    with pytest.raises(ValueError):
        TurningStimulus(left=np.array([0.01, -0.01]))
    with pytest.raises(ValueError):
        TurningStimulus(right=np.array([0.01, np.inf]))
    with pytest.raises(ValueError):
        single.init_at(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        single.init_at(np.array([0.0, np.nan]))


def test_init_at_grid_consistency(kernel):
    for i in range(0, 100, 10):
        heading = 2 * np.pi * i / 100
        net = HDCNetwork(kernel)
        net.init_at(heading)
        assert abs(wrapped_deg(net.decode(), heading)) < 0.1


def test_settled_rates_bounded(settled):
    state = settled.state
    for rates in (state.hdc_rates, state.shift_left_rates,
                  state.shift_right_rates):
        assert np.all(rates > 0.0)
        assert np.all(rates < 76.2)


def test_shift_layers_mirror_hdc_shape(settled):
    state = settled.state
    np.testing.assert_allclose(state.shift_left_rates, state.shift_right_rates,
                               atol=1e-9)
    # same peak location as the heading layer
    assert np.argmax(state.shift_left_rates) == np.argmax(state.hdc_rates)
    # lower amplitude: phi(u/2) of the heading layer's recurrent drive
    ratio = state.shift_left_rates.max() / state.hdc_rates.max()
    assert 0.4 < ratio < 0.75


def test_zero_stimulus_drift(kernel):
    net = HDCNetwork(kernel)
    net.init_at(1.0)
    h0 = net.decode()
    net.run_frame(ZERO_STIMULUS, 60.0)
    assert abs(wrapped_deg(net.decode(), h0)) < 1.0


@pytest.mark.parametrize("level", [0.5, 1.0, 2.0])
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


def test_run_frame_substep_count(kernel):
    net = HDCNetwork(kernel, dt=0.0005)
    net.init_at(0.0)
    # 10 ms frame at 0.5 ms steps: 20 substeps; 50 ms: 100 substeps.
    assert int(np.ceil(0.010 / net.dt - 1e-9)) == 20
    assert int(np.ceil(0.050 / net.dt - 1e-9)) == 100
    t0 = net.sim_time
    net.run_frame(ZERO_STIMULUS, 0.010)
    assert net.sim_time - t0 == pytest.approx(0.010)


def test_run_frame_rejects_subresolution_interval(kernel):
    net = HDCNetwork(kernel)
    with pytest.raises(ValueError):
        net.run_frame(ZERO_STIMULUS, 1e-5)


def test_invalid_dt_rejected(kernel):
    with pytest.raises(ValueError):
        HDCNetwork(kernel, dt=0.01)  # above tau/10


def test_state_round_trip(kernel):
    net = HDCNetwork(kernel)
    net.init_at(2.0)
    saved = net.state
    net.run_frame(TurningStimulus(left=0.03), 0.5)
    net.set_state(saved)
    assert net.decode() == pytest.approx(decode(saved))


def test_state_to_json(tmp_path, settled):
    path = tmp_path / "state.json"
    settled.state.to_json(path)
    import json
    doc = json.loads(path.read_text())
    assert len(doc["hdc_rates"]) == 100
    assert set(doc) == {"sim_time", "hdc_rates", "shift_left_rates",
                        "shift_right_rates"}


def test_halving_dt_changes_little(kernel, gain):
    records = generate(SyntheticProfile("balanced_maze", np.radians(30), 30.0))
    finals = []
    for dt in (0.0005, 0.00025):
        net = HDCNetwork(kernel, dt=dt)
        net.init_at(0.0)
        for k in range(1, len(records)):
            omega = records[k].omega
            level = gain.stimulus_for(omega)
            stim = (TurningStimulus(left=level) if omega >= 0
                    else TurningStimulus(right=level))
            net.run_frame(stim, records[k].t - records[k - 1].t)
        finals.append(net.decode())
    assert abs(wrapped_deg(finals[0], finals[1])) < 0.1


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
    decoded = np.unwrap([s.decoded_heading for s in report.per_sample])
    accumulated = math.degrees(decoded[-1] - decoded[0] - t[-1] * omega)
    assert abs(accumulated) < 1.0


# -- oracle: the 3n x 3n block-matrix form of the same dynamics ---------

def _block_matrix(kernel):
    """Connectivity over the stacked state [hdc, shift_left, shift_right]."""
    n = kernel.n
    distance = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n

    def ring(weights):
        mat = weights[distance]
        np.fill_diagonal(mat, 0.0)
        return mat

    w, w_shift = ring(kernel.h_to_h), ring(kernel.s_to_h)
    half, zero = ring(kernel.h_to_h / 2.0), np.zeros((n, n))
    return np.block([[w, w_shift, -w_shift],
                     [half, zero, zero],
                     [half, zero, zero]])


def _block_step(block, rates, stim, dt):
    n = len(rates) // 3
    drive = np.concatenate((np.zeros(n), np.full(n, stim.left),
                            np.full(n, stim.right)))
    return euler_step(rates, block @ rates + drive, dt)


def _stacked(state):
    return np.concatenate((state.hdc_rates, state.shift_left_rates,
                           state.shift_right_rates))


def _unstacked(rates):
    hdc, left, right = np.split(rates, 3)
    return NetworkState(hdc, left, right)


def test_step_matches_block_oracle(kernel):
    block = _block_matrix(kernel)
    rng = np.random.default_rng(11)
    net = HDCNetwork(kernel)
    for _ in range(10):
        rates = rng.uniform(0.0, 76.2, 3 * kernel.n)
        stim = TurningStimulus(*rng.uniform(0.0, 1.0, 2))
        net.set_state(_unstacked(rates))
        net.step(stim)
        np.testing.assert_allclose(_stacked(net.state),
                                   _block_step(block, rates, stim, net.dt),
                                   rtol=1e-12)


def test_maze_replay_matches_block_oracle(kernel, gain):
    records = generate(SyntheticProfile("balanced_maze", math.radians(30), 90.0))
    decoded = [s.decoded_heading for s in track(records, kernel, gain).per_sample]

    block = _block_matrix(kernel)

    def run(rates, stim, frame_dt):
        n_steps = int(np.ceil(frame_dt / DEFAULT_DT - 1e-9))
        for _ in range(n_steps):
            rates = _block_step(block, rates, stim, frame_dt / n_steps)
        return rates

    curve = kernel.curve
    profile = curve.evaluate(curve.preferred_directions)
    rates = run(np.concatenate((profile, profile / 2.0, profile / 2.0)),
                ZERO_STIMULUS, SETTLE_SECONDS)
    oracle = [decode(_unstacked(rates))]
    for prev, rec in zip(records, records[1:]):
        level = gain.stimulus_for(rec.omega)
        stim = (TurningStimulus(left=level) if rec.omega >= 0.0
                else TurningStimulus(right=level))
        rates = run(rates, stim, rec.t - prev.t)
        oracle.append(decode(_unstacked(rates)))
    assert np.max(np.abs(wrapped_deg(np.array(decoded), np.array(oracle)))) < 1e-9
