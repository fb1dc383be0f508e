import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, seed, settings, strategies as st

from hdcnav import calibration
from hdcnav.calibration import (SWEEP_FRAME_DT, CalibrationMismatchError,
                                GainFitError, StimulusGain, SweepSample,
                                fit_gain, load_calibration, save_calibration,
                                sweep)
from hdcnav.kernel import build_kernel, kernel_hash
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


# Velocities so small that every s * v underflows (slope 0), or that the
# slope inverts to an infinite alpha.
@example([(1e-4, 5e-324)] * 5)
@example([(s, 1e-320) for s in (1e-4, 2e-4, 3e-4, 4e-4, 5e-4)])
@seed(1234)
@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.floats(1e-4, 1.0),
                          st.one_of(st.floats(-1e3, 1e3), st.just(math.nan))),
                max_size=12))
def test_fit_gives_a_valid_gain_or_gain_fit_error(kernel, pairs):
    try:
        gain = fit_gain([SweepSample(s, v) for s, v in pairs], kernel)
    except GainFitError:
        return
    assert 0.0 < gain.alpha < math.inf


def test_fit_requires_enough_samples(kernel):
    with pytest.raises(GainFitError):
        fit_gain(synthetic_samples(12.0, levels=(0.01, 0.02, 0.03)), kernel)


def test_fit_skips_degenerate_samples(kernel):
    samples = [SweepSample(s, 12.0 * s) for s in
               (0.01, 0.02, 0.03, 0.04, 0.05)]
    # A collapsed level, a positive level that ran the bump backwards and
    # one whose velocity is infinite.
    samples += [SweepSample(0.5, float("nan")), SweepSample(0.06, -0.1),
                SweepSample(0.07, math.inf)]
    gain = fit_gain(samples, kernel)
    assert gain.alpha == pytest.approx(1.0 / 12.0, rel=1e-12)


@pytest.mark.parametrize("samples, message", [
    # Every usable velocity equal: the sweep has no R^2.
    pytest.param([SweepSample(s, 0.5) for s in (0.01, 0.02, 0.03, 0.04, 0.05)]
                 + [SweepSample(0.07, math.inf)],
                 r"R\^2 nan\): .*; excluded levels: 0\.07 \(velocity inf rad/s\)$", id="flat"),
    # Repeated levels count once.
    pytest.param([SweepSample(0.03, 0.36)] * 5, r"usable levels, got 1$", id="one-level"),
    pytest.param([SweepSample(0.02, 0.228)] * 3 + [SweepSample(0.04, 0.4561)] * 2,
                 r"usable levels, got 2$", id="two-levels"),
    pytest.param([SweepSample(s, 5.0 * math.sqrt(s)) for s in np.linspace(0.01, 0.08, 8)],
                 r"R\^2 0\.50\d\d\): 'fit_r2' must be in \[0\.99, 1\]", id="non-linear"),
])
def test_fit_refuses_a_gain_the_sweep_does_not_support(kernel, samples, message):
    with pytest.raises(GainFitError, match=message):
        fit_gain(samples, kernel)


def test_sweep_marks_reversed_bump_degenerate(kernel):
    # At 5.0 the bump runs backwards (about -9.8 rad/s) instead of collapsing.
    samples = sweep(kernel, [0.0, 0.02, 0.04, 3.0, 5.0], duration=2.0)
    assert [s.degenerate for s in samples] == [False, False, False, True, True]
    assert samples[4].velocity < 0.0
    with pytest.raises(GainFitError, match=r"excluded levels: 0 \(not positive\), "
                       r"3 \(degenerate, velocity nan rad/s\), 5 \(degenerate"):
        fit_gain(samples, kernel=kernel)


@pytest.mark.parametrize("fields, message", [
    # Each field out of range at once: alpha, the first checked, is named.
    pytest.param(dict(alpha=-0.08, fit_r2=-5.0, max_velocity=-1.0),
                 "'alpha' must be positive, got -0.08", id="all-out-of-range"),
    pytest.param(dict(alpha=-0.08), "'alpha' must be positive, got -0.08", id="alpha-negative"),
    pytest.param(dict(alpha=0.0), "'alpha' must be positive, got 0.0", id="alpha-zero"),
    pytest.param(dict(alpha=math.nan), "'alpha' must be positive, got nan", id="alpha-nan"),
    pytest.param(dict(alpha=math.inf), "'alpha' must be positive, got inf", id="alpha-inf"),
    pytest.param(dict(fit_r2=0.5), r"'fit_r2' must be in \[0.99, 1\], got 0.5", id="fit_r2-low"),
    pytest.param(dict(fit_r2=1.5), r"'fit_r2' must be in \[0.99, 1\], got 1.5", id="fit_r2-high"),
    pytest.param(dict(fit_r2=math.nan), r"'fit_r2' must be in \[0.99, 1\], got nan",
                 id="fit_r2-nan"),
    pytest.param(dict(max_velocity=-1.0), "'max_velocity' must be >= 0, got -1.0",
                 id="max_velocity-negative"),
    pytest.param(dict(max_velocity=math.inf), "'max_velocity' must be >= 0, got inf",
                 id="max_velocity-inf"),
    pytest.param(dict(kernel_hash=None), "'kernel_hash' must be a str, got None",
                 id="kernel_hash-none"),
    pytest.param(dict(kernel_hash=123), "'kernel_hash' must be a str, got 123",
                 id="kernel_hash-int"),
])
def test_gain_built_in_code_is_refused_when_built(kernel, fields, message):
    valid = dict(alpha=0.0877, fit_r2=1.0, max_velocity=1.0, kernel_hash=kernel_hash(kernel))
    with pytest.raises(ValueError, match=message):
        StimulusGain(**{**valid, **fields})


def test_stimulus_for_uses_absolute_velocity():
    gain = StimulusGain(alpha=0.1, fit_r2=1.0, max_velocity=1.0, kernel_hash="")
    assert gain.stimulus_for(-0.5) == pytest.approx(0.05)
    assert gain.stimulus_for(0.5) == pytest.approx(0.05)


@pytest.mark.parametrize("omega, side", [(0.3, "left"), (-0.3, "right"),
                                         (0.0, "left"), (-0.0, "left")])
def test_stimulus_drives_the_layer_of_the_turn(omega, side):
    # The sweep measures left drive as positive velocity, so omega >= 0
    # (-0.0 too) drives the left layer and the other layer gets exactly 0.0.
    gain = StimulusGain(alpha=0.0877, fit_r2=1.0, max_velocity=1.0, kernel_hash="")
    stim = gain.stimulus(omega)
    other = "right" if side == "left" else "left"
    assert getattr(stim, side) == gain.stimulus_for(omega)
    assert getattr(stim, other) == 0.0
    assert type(stim) is TurningStimulus


def test_sweep_input_validation(kernel):
    with pytest.raises(ValueError):
        sweep(kernel, [0.02, 0.01])  # not ascending
    with pytest.raises(ValueError):
        sweep(kernel, [-0.01, 0.02])
    with pytest.raises(ValueError):
        sweep(kernel, [0.01, 0.02], duration=1.0)


@pytest.mark.parametrize("levels, duration", [
    pytest.param([], 4.0, id="levels0"),
    pytest.param([0.01, float("nan")], 4.0, id="levels1"),
    pytest.param([0.01, float("inf")], 4.0, id="levels2"),
    pytest.param([-0.01, 0.02], 4.0, id="levels3"),
    pytest.param([0.02, 0.02, 0.03], 4.0, id="levels-repeated"),
    pytest.param([0.01, 0.02], float("inf"), id="duration-inf"),
    pytest.param([0.01, 0.02], float("nan"), id="duration-nan"),
])
def test_sweep_refuses_bad_levels_before_simulating(kernel, monkeypatch, levels,
                                                    duration):
    def no_network(*args, **kwargs):
        raise AssertionError("sweep built a network before validating its levels")

    monkeypatch.setattr(calibration, "HDCNetwork", no_network)
    with pytest.raises(ValueError):
        sweep(kernel, levels, duration=duration)


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


@pytest.mark.parametrize("dt, made_at", [(None, None), (0.0005, "0.5 ms"),
                                         (0.001, "1 ms")],
                         ids=["unrecorded", "0.5ms", "1ms"])
def test_load_refuses_calibration_of_another_step(tmp_path, kernel, gain, dt, made_at):
    # A file without "dt" records no step, so it is refused as malformed.
    path = tmp_path / "calibration.json"
    save_calibration(gain, path)
    doc = json.loads(path.read_text())
    del doc["dt"]
    path.write_text(json.dumps(doc if dt is None else {**doc, "dt": dt}))
    if dt is None:
        with pytest.raises(ValueError, match=re.escape(f"{path}: missing 'dt'") + "$"):
            load_calibration(path, kernel)
        return
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
    pytest.param(lambda d: {**d, "fit_r2": 0.5},
                 r"'fit_r2' must be in \[0.99, 1\], got 0.5", id="low-fit_r2"),
    pytest.param(lambda d: {**d, "fit_r2": 1.5},
                 r"'fit_r2' must be in \[0.99, 1\], got 1.5", id="high-fit_r2"),
    pytest.param(lambda d: {**d, "fit_r2": -5.0},
                 r"'fit_r2' must be in \[0.99, 1\], got -5.0", id="negative-fit_r2"),
])
def test_load_rejects_malformed_file(tmp_path, kernel, gain, edit, message):
    path = tmp_path / "calibration.json"
    save_calibration(gain, path)
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    with pytest.raises(ValueError, match=message) as info:
        load_calibration(path, kernel)
    assert str(info.value).startswith(str(path))
