import numpy as np
import pytest

from hdcnav import calibration
from hdcnav.calibration import (SWEEP_FRAME_DT, CalibrationMismatchError,
                                GainFitError, StimulusGain, SweepSample,
                                fit_gain, load_calibration, save_calibration,
                                sweep)
from hdcnav.kernel import build_kernel
from hdcnav.network import DegenerateActivityError, HDCNetwork, TurningStimulus


def synthetic_samples(slope, levels=(0.01, 0.02, 0.03, 0.04, 0.05, 0.06)):
    return [(s, slope * s) for s in levels]


def test_fit_recovers_exact_line():
    gain = fit_gain(synthetic_samples(12.0), gamma=1.0)
    assert gain.alpha == pytest.approx(1.0 / 12.0, rel=1e-12)
    assert gain.fit_r2 == pytest.approx(1.0)
    assert gain.max_velocity == pytest.approx(12.0 * 0.06)


def test_fit_matches_normal_equation_oracle(rng):
    levels = np.linspace(0.01, 0.08, 8)
    v = 11.0 * levels + rng.normal(0.0, 0.002, len(levels))
    gain = fit_gain(list(zip(levels, v)), gamma=1.0)
    slope_oracle = float(levels @ v / (levels @ levels))
    assert gain.alpha == pytest.approx(1.0 / slope_oracle, rel=1e-12)


def test_fit_rejects_nonlinear_sweep():
    levels = np.linspace(0.01, 0.08, 8)
    v = 5.0 * np.sqrt(levels)  # clearly not through-origin linear
    with pytest.raises(GainFitError):
        fit_gain(list(zip(levels, v)), gamma=1.0)


def test_fit_rejects_negative_slope():
    with pytest.raises(GainFitError):
        fit_gain(synthetic_samples(-3.0), gamma=1.0)


def test_fit_requires_enough_samples():
    with pytest.raises(GainFitError):
        fit_gain(synthetic_samples(12.0, levels=(0.01, 0.02, 0.03)), gamma=1.0)


def test_fit_skips_degenerate_samples():
    samples = [SweepSample(s, 12.0 * s) for s in
               (0.01, 0.02, 0.03, 0.04, 0.05)]
    samples.append(SweepSample(0.5, float("nan"), degenerate=True))
    gain = fit_gain(samples, gamma=1.0)
    assert gain.alpha == pytest.approx(1.0 / 12.0, rel=1e-12)


def test_sweep_marks_reversed_bump_degenerate(kernel):
    # At 5.0 the bump runs backwards (about -9.8 rad/s) instead of collapsing.
    samples = sweep(kernel, [0.0, 0.02, 0.04, 3.0, 5.0], duration=2.0)
    assert [s.degenerate for s in samples] == [False, False, False, True, True]
    assert samples[4].velocity < 0.0
    with pytest.raises(GainFitError, match=r"excluded levels: 0 \(not positive\), "
                       r"3 \(degenerate, velocity nan rad/s\), 5 \(degenerate"):
        fit_gain(samples, kernel=kernel)


def test_stimulus_for_uses_absolute_velocity():
    gain = StimulusGain(alpha=0.1, fit_r2=1.0, max_velocity=1.0,
                        gamma=1.0, kernel_hash="")
    assert gain.stimulus_for(-0.5) == pytest.approx(0.05)
    assert gain.stimulus_for(0.5) == pytest.approx(0.05)


def test_sweep_input_validation(kernel):
    with pytest.raises(ValueError):
        sweep(kernel, [0.02, 0.01])  # not ascending
    with pytest.raises(ValueError):
        sweep(kernel, [-0.01, 0.02])
    with pytest.raises(ValueError):
        sweep(kernel, [0.01, 0.02], duration=1.0)


@pytest.mark.parametrize("levels", [[], [0.01, float("nan")],
                                    [0.01, float("inf")]])
def test_sweep_refuses_bad_levels_before_simulating(kernel, monkeypatch, levels):
    def no_network(*args, **kwargs):
        raise AssertionError("sweep built a network before validating its levels")

    monkeypatch.setattr(calibration, "HDCNetwork", no_network)
    with pytest.raises(ValueError):
        sweep(kernel, levels)


def _sequential_sweep(kernel, levels, duration):
    """One network per level, as sweeps were run before batching."""
    velocities = []
    for level in levels:
        net = HDCNetwork(kernel)
        net.init_at(np.pi)
        n_frames = int(round(duration / SWEEP_FRAME_DT))
        try:
            headings = [net.decode()]
            for _ in range(n_frames):
                net.run_frame(TurningStimulus(left=level), SWEEP_FRAME_DT)
                headings.append(net.decode())
        except DegenerateActivityError:
            velocities.append(float("nan"))
            continue
        times = SWEEP_FRAME_DT * np.arange(n_frames + 1)
        half = len(times) // 2
        velocities.append(np.polyfit(times[half:], np.unwrap(headings)[half:], 1)[0])
    return np.array(velocities)


def test_sweep_matches_sequential_reference(kernel):
    levels = [0.02, 0.04, 2.0]   # the bump collapses at 2.0
    samples = sweep(kernel, levels, duration=2.0)
    reference = _sequential_sweep(kernel, levels, 2.0)
    assert [s.stimulus for s in samples] == levels
    assert [s.degenerate for s in samples] == [False, False, True]
    assert np.isnan(samples[2].velocity) and np.isnan(reference[2])
    np.testing.assert_allclose([s.velocity for s in samples[:2]], reference[:2],
                               rtol=0, atol=1e-12)


def test_sweep_velocities_increase(kernel):
    samples = sweep(kernel, [0.02, 0.04, 0.06], duration=2.0)
    velocities = [s.velocity for s in samples]
    assert all(not s.degenerate for s in samples)
    assert velocities[0] > 0.0
    assert np.all(np.diff(velocities) > 0.0)


def test_save_load_round_trip(tmp_path, kernel, gain):
    path = tmp_path / "calibration.json"
    save_calibration(gain, path)
    loaded = load_calibration(path, kernel=kernel)
    assert loaded == gain


def test_load_refuses_mismatched_kernel(tmp_path, gain):
    path = tmp_path / "calibration.json"
    save_calibration(gain, path)
    other = build_kernel(gamma=0.7)
    with pytest.raises(CalibrationMismatchError):
        load_calibration(path, kernel=other)
