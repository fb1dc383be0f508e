"""Heading tracker: replay angular-velocity trajectories through the ring
network, decode headings, and compare against ground truth and the
trapezoid-rule integration baseline.

A replay reads a ``Trajectory`` (``io``): the frame loop indexes its
``t`` and ``omega`` columns as plain lists and fills the decoded headings
and frame times. The report is a set of per-sample numpy columns; the
baseline, errors and summaries are computed once over whole columns.
``TrackingReport.per_sample`` gives the same rows as objects, built a
chunk at a time by a single-pass iterator.
"""

import math
import time
from collections.abc import Iterator
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .calibration import StimulusGain
from .io import (ROWS_PER_CHUNK, TWO_PI, Trajectory, cumulative_trapezoid,
                 wrap_heading, write_json, write_table)
from .kernel import WeightKernel
from .network import HDCNetwork

__all__ = ["SampleResult", "TimingStats", "TrackingReport", "track",
           "baseline_integrate", "wrapped_error", "benchmark"]

# 100 Hz real-time budget per frame.
_FRAME_BUDGET_MS = 10.0


@dataclass(frozen=True, slots=True)
class SampleResult:
    t: float
    decoded_heading: float
    baseline_heading: float
    truth_heading: float = None
    error_deg: float = None           # decoded vs truth, wrapped
    baseline_error_deg: float = None  # baseline vs truth, wrapped
    omega_out_of_range: bool = False


@dataclass(frozen=True)
class TimingStats:
    mean_ms: float
    median_ms: float
    max_ms: float
    pct_over_10ms: float
    frame_count: int

    @staticmethod
    def from_samples(frame_times_s) -> "TimingStats":
        ms = np.asarray(frame_times_s) * 1e3
        return TimingStats(
            mean_ms=float(ms.mean()),
            median_ms=float(np.median(ms)),
            max_ms=float(ms.max()),
            pct_over_10ms=float(np.mean(ms > _FRAME_BUDGET_MS) * 100.0),
            frame_count=len(ms),
        )


@dataclass(frozen=True)
class TrackingReport:
    t: np.ndarray
    omega: np.ndarray
    decoded: np.ndarray
    baseline: np.ndarray
    truth: np.ndarray                 # NaN where a sample has no ground truth
    error_deg: np.ndarray             # decoded vs truth, wrapped; NaN likewise
    baseline_error_deg: np.ndarray    # baseline vs truth, wrapped; NaN likewise
    omega_out_of_range: np.ndarray
    frame_s: np.ndarray               # one per frame, len(t) - 1
    mean_error_deg: float             # of |error_deg|; None without truth
    max_error_deg: float
    min_error_deg: float
    timing: TimingStats

    @property
    def per_sample(self) -> Iterator[SampleResult]:
        """The columns as one SampleResult per sample (None for NaN).

        A single-pass iterator that builds the rows a bounded chunk at a
        time; take ``list(report.per_sample)`` to walk them twice.
        """
        for start in range(0, len(self.t), ROWS_PER_CHUNK):
            part = slice(start, start + ROWS_PER_CHUNK)
            yield from map(SampleResult, self.t[part].tolist(),
                           self.decoded[part].tolist(), self.baseline[part].tolist(),
                           _or_none(self.truth[part]), _or_none(self.error_deg[part]),
                           _or_none(self.baseline_error_deg[part]),
                           self.omega_out_of_range[part].tolist())

    def to_json(self, path):
        write_json({
            "mean_error_deg": self.mean_error_deg,
            "max_error_deg": self.max_error_deg,
            "min_error_deg": self.min_error_deg,
            "timing": vars(self.timing),
            "samples": len(self.t),
        }, path)

    def to_csv(self, path):
        write_table(path, ("t", "omega", "decoded", "baseline", "truth",
                           "err_hdc", "err_baseline"),
                    (self.t, self.omega, self.decoded, self.baseline,
                     self.truth, self.error_deg, self.baseline_error_deg),
                    ("{:.9g}",) * 7)


def _or_none(column) -> list:
    return [None if math.isnan(v) else v for v in column.tolist()]


def wrapped_error(a, b):
    """Shortest signed angular difference a - b, in degrees in (-180, 180],
    elementwise; two scalars give a float."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("wrapped_error requires finite angles")
    # fmod and one exact +-2*pi step give math.remainder(a - b, 2*pi).
    d = np.fmod(a - b, TWO_PI)
    d = np.where(d > math.pi, d - TWO_PI, np.where(d < -math.pi, d + TWO_PI, d))
    d = np.degrees(d)
    d = np.where(d <= -180.0, d + 360.0, d)
    return float(d) if d.ndim == 0 else d


def baseline_integrate(trajectory: Trajectory,
                       initial_heading: float = 0.0) -> np.ndarray:
    """Trapezoid-rule integration of the yaw rate, wrapped to [0, 2*pi)."""
    turns = cumulative_trapezoid(trajectory.t, trajectory.omega)
    return wrap_heading(initial_heading % TWO_PI + turns)


def track(trajectory: Trajectory, kernel: WeightKernel, gain: StimulusGain,
          initial_heading: float = 0.0) -> TrackingReport:
    """Replay a trajectory through the network and collect the report.

    Each inter-sample interval runs ``gain.stimulus`` of the yaw rate of
    the sample closing it. Per-frame wall-clock times of ``run_frame``
    plus ``decode`` are recorded alongside the decoded headings. A replay
    needs at least two samples, so that it has one frame to time, and a
    gain fit for ``kernel`` (else CalibrationMismatchError).
    """
    n = len(trajectory)
    if n < 2:
        raise ValueError(f"track needs at least two samples (one frame), got {n}")
    gain.check_kernel(kernel)
    net = HDCNetwork(kernel)
    net.init_at(initial_heading)

    # Python floats: numpy scalars would slow every frame's arithmetic.
    t, omega = trajectory.t.tolist(), trajectory.omega.tolist()
    decoded = np.empty(n)
    frame_s = np.empty(n - 1)
    decoded[0] = net.decode()
    for k in range(1, n):
        stim = gain.stimulus(omega[k])
        start = time.perf_counter()
        net.run_frame(stim, t[k] - t[k - 1])
        heading = net.decode()
        frame_s[k - 1] = time.perf_counter() - start
        decoded[k] = heading

    truth = trajectory.truth
    baseline = baseline_integrate(trajectory, initial_heading)
    known = ~np.isnan(truth)
    error_deg, baseline_error_deg = np.full(n, math.nan), np.full(n, math.nan)
    error_deg[known] = wrapped_error(decoded[known], truth[known])
    baseline_error_deg[known] = wrapped_error(baseline[known], truth[known])
    abs_error = np.abs(error_deg[known])
    summary = [float(f(abs_error)) if abs_error.size else None
               for f in (np.mean, np.max, np.min)]
    return TrackingReport(trajectory.t, trajectory.omega, decoded, baseline, truth,
                          error_deg, baseline_error_deg,
                          np.abs(trajectory.omega) > gain.max_velocity,
                          frame_s, *summary, TimingStats.from_samples(frame_s))


def benchmark(trajectory: Trajectory, kernel: WeightKernel, gain: StimulusGain,
              repetitions: int = 1) -> TimingStats:
    """Aggregate per-frame compute times over repeated replays."""
    if isinstance(repetitions, bool) or not isinstance(repetitions, Integral) or repetitions < 1:
        raise ValueError(f"repetitions must be an integer >= 1, got {repetitions!r}")
    return TimingStats.from_samples(np.concatenate(
        [track(trajectory, kernel, gain).frame_s
         for _ in range(repetitions)]))
