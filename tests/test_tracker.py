import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hdcnav import tracker
from hdcnav.calibration import CalibrationMismatchError
from hdcnav.io import SyntheticProfile, Trajectory, generate
from hdcnav.kernel import build_kernel
from hdcnav.network import HDCNetwork, TurningStimulus
from hdcnav.tracker import (SampleResult, TimingStats, baseline_integrate,
                            benchmark, track, wrapped_error)


@pytest.mark.parametrize("a,b,expected", [
    (0.0, 0.0, 0.0),
    (math.radians(10), 0.0, 10.0),
    (0.0, math.radians(10), -10.0),
    (math.radians(350), math.radians(10), -20.0),
    (math.radians(10), math.radians(350), 20.0),
    (math.pi, 0.0, 180.0),       # tie maps to +180, not -180
    (0.0, math.pi, 180.0),
    (5 * math.pi, 0.0, 180.0),   # multiple wraps
])
def test_wrapped_error_cases(a, b, expected):
    assert wrapped_error(a, b) == pytest.approx(expected, abs=1e-9)


def test_wrapped_error_rejects_non_finite():
    with pytest.raises(ValueError):
        wrapped_error(float("nan"), 0.0)


def test_record_validation():
    with pytest.raises(ValueError):
        Trajectory([0.0], [float("inf")])
    with pytest.raises(ValueError):
        Trajectory([0.0], [0.0], [float("inf")])


def test_baseline_matches_manual_trapezoid():
    ts = np.array([0.0, 0.1, 0.25, 0.5])
    omegas = np.array([0.0, 0.2, -0.1, 0.4])
    records = Trajectory(ts, omegas)
    headings = baseline_integrate(records, initial_heading=1.0)
    expected = 1.0 + np.concatenate(
        [[0.0], np.cumsum(np.diff(ts) * (omegas[1:] + omegas[:-1]) / 2.0)])
    np.testing.assert_allclose(headings, expected % (2 * np.pi), atol=1e-12)


def test_baseline_maps_tiny_negative_total_to_zero():
    # -1e-20 rad % 2*pi rounds to exactly 2*pi, outside [0, 2*pi).
    records = Trajectory([0.0, 1.0], [-1e-20, -1e-20])
    assert baseline_integrate(records).tolist() == [0.0, 0.0]
    one = Trajectory([0.0], [-1e-20])
    assert baseline_integrate(one, initial_heading=-1e-300).tolist() == [0.0]


def test_baseline_exact_on_clean_constant_profile():
    records = generate(SyntheticProfile("constant_rotation",
                                        math.radians(20), 18.0))
    headings = baseline_integrate(records)
    truth = np.array([r.truth for r in records])
    err = np.abs(np.remainder(headings - truth + np.pi, 2 * np.pi) - np.pi)
    assert err.max() < 1e-9


def test_baseline_rejects_non_monotonic():
    with pytest.raises(ValueError):
        baseline_integrate(Trajectory([0.0, 0.0], [0.0, 0.0]))


def test_track_zero_omega_holds_heading(kernel, gain):
    records = Trajectory([0.01 * i for i in range(601)], [0.0] * 601,
                         [math.pi / 2] * 601)  # 6 s at 100 Hz
    report = track(records, kernel, gain, initial_heading=math.pi / 2)
    assert report.max_error_deg < 1.0


def test_track_flags_out_of_range_velocity(kernel, gain):
    fast = gain.max_velocity * 1.5
    records = Trajectory([0.0, 0.01, 0.02], [0.0, fast, 0.1])
    report = track(records, kernel, gain)
    assert report.omega_out_of_range.tolist() == [False, True, False]


def test_track_without_truth_leaves_errors_unset(kernel, gain):
    records = Trajectory([0.01 * i for i in range(20)], [0.1] * 20)
    report = track(records, kernel, gain)
    assert report.mean_error_deg is None
    assert np.isnan(report.error_deg).all()
    assert np.isfinite(report.decoded).all()


def test_report_outputs(tmp_path, kernel, gain):
    records = generate(SyntheticProfile("constant_rotation",
                                        math.radians(20), 2.0))
    report = track(records, kernel, gain)
    jpath, cpath = tmp_path / "report.json", tmp_path / "samples.csv"
    report.to_json(jpath)
    report.to_csv(cpath)
    doc = json.loads(jpath.read_text())
    assert doc["samples"] == len(records)
    assert doc["timing"]["frame_count"] == len(records) - 1
    assert doc["mean_error_deg"] == pytest.approx(report.mean_error_deg)
    with open(cpath) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "omega", "decoded", "baseline", "truth",
                       "err_hdc", "err_baseline"]
    assert len(rows) == len(records) + 1


def test_timing_stats_accounting():
    stats = TimingStats.from_samples([0.001, 0.002, 0.015, 0.002])
    assert stats.mean_ms == pytest.approx(5.0)
    assert stats.median_ms == pytest.approx(2.0)
    assert stats.max_ms == pytest.approx(15.0)
    assert stats.pct_over_10ms == pytest.approx(25.0)
    assert stats.frame_count == 4


def test_benchmark_aggregates_repetitions(kernel, gain):
    records = generate(SyntheticProfile("constant_rotation",
                                        math.radians(20), 1.0))
    stats = benchmark(records, kernel, gain, repetitions=2)
    assert stats.frame_count == 2 * (len(records) - 1)
    for repetitions in (0, 2.0, True, "2"):
        with pytest.raises(ValueError, match="repetitions must be an integer >= 1"):
            benchmark(records, kernel, gain, repetitions=repetitions)


# -- columnar report ----------------------------------------------------

TWO_PI = 2 * math.pi


def _reference_wrapped(a, b):
    """Scalar wrapped error, as one sample at a time computes it."""
    d = math.degrees(math.remainder(a - b, TWO_PI))
    return d + 360.0 if d <= -180.0 else d


def _reference_baseline(records, initial_heading):
    """Trapezoid baseline, one wrapped step per sample."""
    h = initial_heading % TWO_PI
    headings = [h]
    rows = list(records)
    for prev, rec in zip(rows, rows[1:]):
        h = (h + (rec.t - prev.t) * (rec.omega + prev.omega) / 2.0) % TWO_PI
        headings.append(h)
    return np.array(headings)


def _wrapped_rad(a, b):
    return np.abs(np.remainder(np.asarray(a) - b + math.pi, TWO_PI) - math.pi)


angles = st.one_of(st.floats(-1e3, 1e3),
                   st.sampled_from([0.0, math.pi, -math.pi, TWO_PI, 3 * math.pi]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(angles, angles), min_size=1, max_size=20))
def test_wrapped_error_matches_remainder_reference(pairs):
    a, b = (np.array(col) for col in zip(*pairs))
    got = wrapped_error(a, b)
    expected = [_reference_wrapped(x, y) for x, y in pairs]
    assert got.shape == a.shape
    assert got.tolist() == pytest.approx(expected, abs=1e-9)
    assert np.all((got > -180.0) & (got <= 180.0))
    scalar = wrapped_error(*pairs[0])
    assert isinstance(scalar, float) and scalar == pytest.approx(expected[0], abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.floats(1e-3, 1.0), st.floats(-10.0, 10.0)),
                min_size=1, max_size=200),
       st.floats(-10.0, 10.0))
def test_baseline_matches_stepwise_reference(steps, initial):
    t = np.cumsum([dt for dt, _ in steps])
    records = Trajectory(t, [w for _, w in steps])
    got = baseline_integrate(records, initial)
    assert _wrapped_rad(got, _reference_baseline(records, initial)).max() <= 1e-9


def test_track_refuses_gain_of_another_kernel(gain, monkeypatch):
    # The default kernel's gain would run this kernel's default lap to a 90
    # degree mean error, so the pairing is refused before a network is built.
    def no_network(*args, **kwargs):
        raise AssertionError("track built a network before checking the gain")

    monkeypatch.setattr(tracker, "HDCNetwork", no_network)
    records = generate(SyntheticProfile(duration=1.0))
    with pytest.raises(CalibrationMismatchError,
                       match="calibration was produced for a different kernel"):
        track(records, build_kernel(gamma=0.7), gain)
    with pytest.raises(CalibrationMismatchError):
        benchmark(records, build_kernel(gamma=0.7), gain)


def test_track_refuses_single_sample(kernel, gain):
    with pytest.raises(ValueError, match="at least two samples"):
        track(Trajectory([0.0], [0.1], [0.0]), kernel, gain)


def test_track_runs_interval_shorter_than_dt(kernel, gain):
    # 2 s of a 100 Hz 20 deg/s rotation with one extra sample 0.3 ms after t = 1 s.
    t = [0.01 * i for i in range(201)]
    t.insert(101, 1.0003)
    omega = [math.radians(20)] * len(t)
    report = track(Trajectory(t, omega), kernel, gain)
    assert np.isfinite(report.decoded).all()
    regular = track(Trajectory(t[:101] + t[102:], omega[1:]), kernel, gain)
    # Skipping the 0.3 ms or stepping a full dt moves it by about 1e-4 rad.
    assert _wrapped_rad(report.decoded[-1], regular.decoded[-1]) < 1e-6


def test_track_columns_match_per_frame_reference(kernel, gain):
    records = generate(SyntheticProfile("balanced_maze", math.radians(30), 10.0))
    report = track(records, kernel, gain, initial_heading=0.2)
    net = HDCNetwork(kernel)
    net.init_at(0.2)
    decoded = [net.decode()]
    for frame_dt, omega in zip(np.diff(records.t).tolist(), records.omega[1:].tolist()):
        level = gain.stimulus_for(omega)
        net.run_frame(TurningStimulus(left=level, right=0.0) if omega >= 0.0
                      else TurningStimulus(left=0.0, right=level), frame_dt)
        decoded.append(net.decode())
    truth = [r.truth for r in records]
    baseline = _reference_baseline(records, 0.2)

    assert report.decoded.tolist() == decoded
    assert report.t.tolist() == [r.t for r in records]
    assert report.omega.tolist() == [r.omega for r in records]
    assert report.truth.tolist() == truth
    assert np.degrees(_wrapped_rad(report.baseline, baseline)).max() <= 1e-9
    np.testing.assert_allclose(
        report.error_deg, [_reference_wrapped(d, h) for d, h in zip(decoded, truth)],
        rtol=0, atol=1e-9)
    np.testing.assert_allclose(
        report.baseline_error_deg,
        [_reference_wrapped(b, h) for b, h in zip(baseline, truth)], rtol=0, atol=1e-9)
    assert report.omega_out_of_range.tolist() == \
        [abs(r.omega) > gain.max_velocity for r in records]
    assert report.frame_s.shape == (len(records) - 1,)


def test_track_with_truth_on_some_rows(tmp_path, kernel, gain):
    records = Trajectory([0.01 * i for i in range(30)], [0.2] * 30,
                         [math.nan if i % 3 == 1 else 0.003 * i for i in range(30)])
    known = [not math.isnan(r.truth) for r in records]
    report = track(records, kernel, gain)

    for column in (report.truth, report.error_deg, report.baseline_error_deg):
        assert (~np.isnan(column)).tolist() == known
    samples = list(report.per_sample)
    for s, has_truth in zip(samples, known):
        assert (s.truth_heading is not None) == has_truth
        assert (s.error_deg is not None) == has_truth
        assert (s.baseline_error_deg is not None) == has_truth
    errors = [abs(_reference_wrapped(s.decoded_heading, s.truth_heading))
              for s in samples if s.truth_heading is not None]
    assert report.mean_error_deg == pytest.approx(np.mean(errors), abs=1e-9)
    assert report.max_error_deg == pytest.approx(max(errors), abs=1e-9)
    assert report.min_error_deg == pytest.approx(min(errors), abs=1e-9)

    cpath = tmp_path / "samples.csv"
    report.to_csv(cpath)
    with open(cpath) as fh:
        rows = list(csv.reader(fh))[1:]
    for row, has_truth in zip(rows, known):
        assert [cell != "" for cell in row] == [True] * 4 + [has_truth] * 3


def test_per_sample_streams_the_columns_in_chunks(kernel, gain):
    # 10k samples span three chunks; each row matches the columns, with
    # None where a sample has no truth.
    n = 10_001
    t = 0.001 * np.arange(n)
    truth = np.where(np.arange(n) % 5 == 0, np.nan, 0.2 * t)
    report = track(Trajectory(t, np.full(n, 0.2), truth), kernel, gain)
    rows = report.per_sample
    assert iter(rows) is rows
    expected = [SampleResult(
        float(report.t[k]), float(report.decoded[k]), float(report.baseline[k]),
        *(None if math.isnan(c[k]) else float(c[k])
          for c in (report.truth, report.error_deg, report.baseline_error_deg)),
        bool(report.omega_out_of_range[k])) for k in range(n)]
    assert list(rows) == expected
    assert list(rows) == []   # single-pass
    assert list(report.per_sample) == expected
