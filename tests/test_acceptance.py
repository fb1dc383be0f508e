"""Acceptance suite: one test per published performance claim.

Three clauses are marked strict-xfail because they are unattainable with
this model configuration; the README's "Known limitations" section
documents the measurements behind each.
"""

import math
import os

import numpy as np
import pytest

from hdcnav.io import SyntheticProfile, generate, read_oxts
from hdcnav.kernel import TuningCurve, synthesize_recurrent
from hdcnav.network import HDCNetwork, TurningStimulus
from hdcnav.neuron import NeuronParams, inverse_transfer, transfer
from hdcnav.tracker import benchmark, track


def wrapped_deg(a, b):
    return np.degrees(np.remainder(a - b + np.pi, 2 * np.pi) - np.pi)


# 1. Baseline firing rate ----------------------------------------------

def test_c1_baseline_firing_rate():
    assert transfer(0.0) == pytest.approx(8.947, abs=0.01)


# 2. Kernel oracle equivalence -----------------------------------------

def test_c2_ridge_oracle_equivalence():
    # Independent spatial-domain ridge solution, no FFT involved.
    p = NeuronParams()
    curve = TuningCurve()
    f = np.clip(curve.evaluate(curve.preferred_directions), 1e-9, p.r_max - 1e-9)
    u = inverse_transfer(f, p)
    n = len(f)
    idx = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    a = f[idx]
    oracle = np.linalg.solve(a.T @ a + 25824.0 * np.eye(n), a.T @ u)
    np.testing.assert_allclose(synthesize_recurrent(curve, 25824.0),
                               oracle, atol=1e-9)


# 3. Attractor stationarity --------------------------------------------

@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the settled bump deviates ~12.4 Hz from the analytic tuning profile at "
    "the flanks; no (regularization, amplitude-margin) setting brings the "
    "ridge-synthesized attractor within 2 Hz — see README known limitations"))
def test_c3_settled_profile_matches_target(kernel):
    net = HDCNetwork(kernel)
    net.init_at(np.pi)
    target = kernel.curve.evaluate(kernel.curve.preferred_directions - np.pi)
    worst = 0.0
    for _ in range(10):  # sampled over 5 simulated seconds
        net.run_frame(TurningStimulus(), 0.5)
        worst = max(worst, float(np.max(np.abs(net.rates[0] - target))))
    assert worst <= 2.0


def test_c3_zero_stimulus_drift(kernel):
    net = HDCNetwork(kernel)
    net.init_at(1.0)
    h0 = net.decode()
    net.run_frame(TurningStimulus(), 60.0)
    assert abs(wrapped_deg(net.decode(), h0)) < 1.0


# 4. Constant-rotation accuracy ----------------------------------------

@pytest.mark.parametrize("omega_deg", [10, 20, 30, 40])
def test_c4_constant_rotation_error_per_lap(kernel, gain, omega_deg):
    omega = math.radians(omega_deg)
    laps = 5
    records = generate(SyntheticProfile("constant_rotation", omega,
                                        laps * 2 * math.pi / omega))
    report = track(records, kernel, gain)
    decoded = np.unwrap(report.decoded)
    accumulated = math.degrees(
        decoded[-1] - decoded[0] - records[-1].t * omega)
    assert abs(accumulated) / laps < 1.0


def test_c4_single_lap_at_20(kernel, gain):
    omega = math.radians(20)
    records = generate(SyntheticProfile("constant_rotation", omega,
                                        2 * math.pi / omega))
    report = track(records, kernel, gain)
    decoded = np.unwrap(report.decoded)
    accumulated = math.degrees(
        decoded[-1] - decoded[0] - records[-1].t * omega)
    assert abs(accumulated) < 1.0


# 5. Balanced-maze accuracy --------------------------------------------

def test_c5_balanced_maze_error_bound(kernel, gain):
    records = generate(SyntheticProfile("balanced_maze",
                                        math.radians(30), 210.0))
    total_turn = math.degrees(np.sum(np.abs(records.omega[1:])) * 0.01)
    assert total_turn >= 4000.0
    report = track(records, kernel, gain)
    assert report.max_error_deg <= 1.5


# 6. Shift-mechanism properties ----------------------------------------

def test_c6_equal_stimulus_cancellation(kernel):
    net = HDCNetwork(kernel)
    net.init_at(np.pi)
    h0 = net.decode()
    net.run_frame(TurningStimulus(left=1.0, right=1.0), 1.0)
    assert abs(wrapped_deg(net.decode(), h0)) < 0.05


def test_c6_left_right_antisymmetry(kernel):
    level = 0.046  # ~30 deg/s
    speeds = {}
    for side in ("left", "right"):
        net = HDCNetwork(kernel)
        net.init_at(np.pi)
        net.run_frame(TurningStimulus(**{side: level}), 2.0)
        h1 = net.decode()
        net.run_frame(TurningStimulus(**{side: level}), 1.0)
        speeds[side] = np.remainder(net.decode() - h1 + np.pi,
                                    2 * np.pi) - np.pi
    assert abs(speeds["left"]) == pytest.approx(abs(speeds["right"]),
                                                rel=0.02)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the moving bump at 20 deg/s reads ~3.37 Hz from the reference that "
    "init_at's 0.5 s settle leaves, which is itself still settling (0.87 Hz "
    "against one relaxed 20 s more) — see README known limitations"))
def test_c6_shape_preservation_during_rotation(kernel, gain):
    net = HDCNetwork(kernel)
    net.init_at(np.pi)
    h0 = net.decode()
    settled = net.rates[0].copy()
    n = kernel.n
    freqs = np.fft.fftfreq(n, 1.0 / n)
    stim = gain.stimulus(math.radians(20))
    net.run_frame(stim, 1.0)  # spin-up
    worst = 0.0
    for _ in range(100):  # one second of frames
        net.run_frame(stim, 0.01)
        shift = (net.decode() - h0) * n / (2 * np.pi)
        recentered = np.real(np.fft.ifft(
            np.fft.fft(net.rates[0])
            * np.exp(2j * np.pi * freqs * shift / n)))
        worst = max(worst, float(np.max(np.abs(recentered - settled))))
    assert worst <= 3.0


# 7. Calibration linearity ---------------------------------------------

def test_c7_calibration_linearity(gain):
    assert gain.fit_r2 >= 0.99
    assert gain.alpha > 0.0
    assert math.degrees(gain.max_velocity) >= 40.0


# 8. Noise robustness --------------------------------------------------

@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "both the network and the trapezoid baseline integrate zero-mean white "
    "gyro noise with unit DC gain, so their mean errors differ only by the "
    "network's small systematic bias and the comparison is a coin flip "
    "(12/20 seeds measured) — see README known limitations"))
def test_c8_noise_robustness(kernel, gain):
    wins = 0
    seeds = 20
    for seed in range(seeds):
        records = generate(SyntheticProfile(
            "balanced_maze", math.radians(30), 120.0, noise_sigma=0.05, seed=seed))
        report = track(records, kernel, gain)
        baseline = float(np.mean(np.abs(report.baseline_error_deg)))
        if report.mean_error_deg <= baseline:
            wins += 1
    assert wins >= 0.7 * seeds


# 9. Real-time budget --------------------------------------------------

def test_c9_realtime_budget(kernel, gain):
    records = generate(SyntheticProfile("constant_rotation",
                                        math.radians(20), 30.0))
    stats = benchmark(records, kernel, gain)
    assert stats.frame_count == 3000
    assert stats.mean_ms < 10.0


# 10. KITTI replay (conditional) ---------------------------------------

def test_c10_kitti_replay(kernel, gain):
    root = os.environ.get("KITTI_OXTS_DIR")
    if not root or not os.path.isdir(root):
        pytest.skip("KITTI oxts data not available (set KITTI_OXTS_DIR)")
    records = read_oxts(root)
    initial = float(np.nan_to_num(records[0].truth))
    report = track(records, kernel, gain, initial_heading=initial)
    assert report.mean_error_deg <= 3.0
