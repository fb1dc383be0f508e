import json

import numpy as np
import pytest

from hdcnav import calibration
from hdcnav.calibration import (SWEEP_FRAME_DT, CalibrationMismatchError,
                                GainFitError, StimulusGain, SweepSample,
                                fit_gain, load_calibration, save_calibration,
                                sweep)
from hdcnav.kernel import build_kernel
from hdcnav.network import (DEFAULT_DT, DegenerateActivityError, HDCNetwork,
                            TurningStimulus)


def synthetic_samples(slope, levels=(0.01, 0.02, 0.03, 0.04, 0.05, 0.06)):
    return [SweepSample(s, slope * s) for s in levels]


def test_fit_recovers_exact_line(kernel):
    gain = fit_gain(synthetic_samples(12.0), kernel)
    assert gain.alpha == pytest.approx(1.0 / 12.0, rel=1e-12)
    assert gain.fit_r2 == pytest.approx(1.0)
    assert gain.max_velocity == pytest.approx(12.0 * 0.06)


def test_fit_matches_normal_equation_oracle(rng, kernel):
    levels = np.linspace(0.01, 0.08, 8)
    v = 11.0 * levels + rng.normal(0.0, 0.002, len(levels))
    gain = fit_gain([SweepSample(s, u) for s, u in zip(levels, v)], kernel)
    slope_oracle = float(levels @ v / (levels @ levels))
    assert gain.alpha == pytest.approx(1.0 / slope_oracle, rel=1e-12)


def test_fit_rejects_nonlinear_sweep(kernel):
    levels = np.linspace(0.01, 0.08, 8)
    v = 5.0 * np.sqrt(levels)  # clearly not through-origin linear
    with pytest.raises(GainFitError):
        fit_gain([SweepSample(s, u) for s, u in zip(levels, v)], kernel)


def test_fit_rejects_negative_slope(kernel):
    with pytest.raises(GainFitError):
        fit_gain(synthetic_samples(-3.0), kernel)


def test_fit_requires_enough_samples(kernel):
    with pytest.raises(GainFitError):
        fit_gain(synthetic_samples(12.0, levels=(0.01, 0.02, 0.03)), kernel)


def test_fit_skips_degenerate_samples(kernel):
    samples = [SweepSample(s, 12.0 * s) for s in
               (0.01, 0.02, 0.03, 0.04, 0.05)]
    # A collapsed level and a positive level that ran the bump backwards.
    samples += [SweepSample(0.5, float("nan")), SweepSample(0.06, -0.1)]
    gain = fit_gain(samples, kernel)
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
    gain = StimulusGain(alpha=0.1, fit_r2=1.0, max_velocity=1.0, kernel_hash="")
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


def test_calibration_with_gamma_loads_to_the_same_gain(tmp_path, kernel, gain):
    # Files written before the gain dropped gamma still hold it; the kernel
    # hash already pins gamma, so the key is ignored.
    path = tmp_path / "calibration.json"
    save_calibration(gain, path)
    doc = json.loads(path.read_text())
    assert set(doc) == {"alpha", "fit_r2", "max_velocity", "kernel_hash", "dt"}
    path.write_text(json.dumps({**doc, "gamma": kernel.gamma}, indent=1))
    assert load_calibration(path, kernel) == gain


def test_calibration_records_its_step(tmp_path, kernel, gain):
    path = tmp_path / "calibration.json"
    save_calibration(gain, path)
    assert json.loads(path.read_text())["dt"] == DEFAULT_DT
    assert load_calibration(path, kernel) == gain


@pytest.mark.parametrize("dt, made_at", [(None, "0.5 ms"), (0.0005, "0.5 ms"),
                                         (0.002, "2 ms")],
                         ids=["unrecorded", "0.5ms", "2ms"])
def test_load_refuses_calibration_of_another_step(tmp_path, kernel, gain, dt, made_at):
    # A file without "dt" predates the field and was made at 0.5 ms steps.
    path = tmp_path / "calibration.json"
    save_calibration(gain, path)
    doc = json.loads(path.read_text())
    del doc["dt"]
    path.write_text(json.dumps(doc if dt is None else {**doc, "dt": dt}))
    with pytest.raises(CalibrationMismatchError) as info:
        load_calibration(path, kernel)
    message = str(info.value)
    assert f"Euler step of {made_at}" in message
    assert f"steps at {DEFAULT_DT * 1e3:g} ms" in message
    assert "hdcnav calibrate" in message


def test_load_refuses_mistyped_step(tmp_path, kernel, gain):
    path = tmp_path / "calibration.json"
    save_calibration(gain, path)
    path.write_text(json.dumps({**json.loads(path.read_text()), "dt": "1 ms"}))
    with pytest.raises(ValueError, match="'dt' must be of type float, got '1 ms'"):
        load_calibration(path, kernel)


@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda d: [d], "expected a JSON object, got list", id="array"),
    pytest.param(lambda d: {k: v for k, v in d.items() if k != "alpha"},
                 "missing 'alpha'$", id="no-alpha"),
    pytest.param(lambda d: {},
                 "missing 'alpha', 'fit_r2', 'max_velocity', 'kernel_hash'",
                 id="empty"),
    pytest.param(lambda d: {**d, "alpha": "x"},
                 "'alpha' must be of type float, got 'x'", id="string-alpha"),
    pytest.param(lambda d: {**d, "alpha": None},
                 "'alpha' must be of type float, got None", id="null-alpha"),
    pytest.param(lambda d: {**d, "alpha": True},
                 "'alpha' must be of type float, got True", id="bool-alpha"),
    pytest.param(lambda d: {**d, "max_velocity": "x"},
                 "'max_velocity' must be of type float, got 'x'", id="string-max_velocity"),
    pytest.param(lambda d: {**d, "fit_r2": float("nan")},
                 "'fit_r2' must be of type float, got nan", id="nan-fit_r2"),
    pytest.param(lambda d: {**d, "kernel_hash": 5},
                 "'kernel_hash' must be of type str, got 5", id="int-kernel_hash"),
    pytest.param(lambda d: {**d, "alpha": 0.0},
                 "'alpha' must be positive, got 0.0", id="zero-alpha"),
    pytest.param(lambda d: {**d, "alpha": -d["alpha"]},
                 "'alpha' must be positive, got -0.0877", id="negative-alpha"),
    pytest.param(lambda d: {**d, "max_velocity": -1.0},
                 "'max_velocity' must be >= 0, got -1.0", id="negative-max_velocity"),
])
def test_load_rejects_malformed_file(tmp_path, kernel, gain, edit, message):
    path = tmp_path / "calibration.json"
    save_calibration(gain, path)
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    with pytest.raises(ValueError, match=message) as info:
        load_calibration(path, kernel)
    assert str(info.value).startswith(str(path))
