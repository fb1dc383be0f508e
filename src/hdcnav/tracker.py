"""Heading tracker: replay angular-velocity trajectories through the ring
network, decode headings, and compare against ground truth and the
trapezoid-rule integration baseline.

A replay reads a ``Trajectory`` (``io``): the frame loop indexes its
``t`` and ``omega`` columns as plain lists and fills the decoded headings
and frame times. The report is a set of per-sample numpy columns; the
baseline, errors and summaries are computed once over whole columns.
"""

import csv
import json
import math
import time
from dataclasses import dataclass

import numpy as np

from .calibration import StimulusGain
from .io import Trajectory
from .kernel import WeightKernel
from .network import HDCNetwork, TurningStimulus, wrap_heading
from .neuron import NeuronParams

__all__ = ["SampleResult", "TimingStats", "TrackingReport", "track",
           "baseline_integrate", "wrapped_error", "benchmark"]

TWO_PI = 2.0 * math.pi

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
    def per_sample(self) -> list:
        """The columns as one SampleResult per sample (None for NaN)."""
        return [SampleResult(*row) for row in zip(
            self.t.tolist(), self.decoded.tolist(), self.baseline.tolist(),
            _or_none(self.truth), _or_none(self.error_deg),
            _or_none(self.baseline_error_deg), self.omega_out_of_range.tolist())]

    def to_json(self, path):
        doc = {
            "mean_error_deg": self.mean_error_deg,
            "max_error_deg": self.max_error_deg,
            "min_error_deg": self.min_error_deg,
            "timing": vars(self.timing),
            "samples": len(self.t),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")

    def to_csv(self, path):
        rows = np.column_stack((self.t, self.omega, self.decoded, self.baseline,
                                self.truth, self.error_deg, self.baseline_error_deg))
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["t", "omega", "decoded", "baseline", "truth",
                             "err_hdc", "err_baseline"])
            for row in rows:
                writer.writerow(["" if math.isnan(v) else f"{v:.9g}"
                                 for v in row.tolist()])


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
    t, omega = trajectory.t, trajectory.omega
    turns = np.concatenate(([0.0], np.cumsum(np.diff(t) * (omega[1:] + omega[:-1]) / 2.0)))
    return wrap_heading(initial_heading % TWO_PI + turns)


def track(trajectory: Trajectory, kernel: WeightKernel, gain: StimulusGain,
          initial_heading: float = 0.0,
          params: NeuronParams = NeuronParams()) -> TrackingReport:
    """Replay a trajectory through the network and collect the report.

    The stimulus for each inter-sample interval is alpha * |omega| of the
    sample closing the interval, applied to the shift layer matching the
    turn direction; the other layer receives zero. Per-frame wall-clock
    compute times are recorded alongside the decoded headings. A replay
    needs at least two samples, so that it has one frame to time.
    """
    n = len(trajectory)
    if n < 2:
        raise ValueError(f"track needs at least two samples (one frame), got {n}")
    net = HDCNetwork(kernel, params)
    net.init_at(initial_heading)

    # Python floats: numpy scalars would slow every frame's arithmetic.
    t, omega = trajectory.t.tolist(), trajectory.omega.tolist()
    decoded = np.empty(n)
    frame_s = np.empty(n - 1)
    decoded[0] = net.decode()
    for k in range(1, n):
        w = omega[k]
        level = gain.stimulus_for(w)
        stim = (TurningStimulus(left=level, right=0.0) if w >= 0.0
                else TurningStimulus(left=0.0, right=level))
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
              repetitions: int = 1,
              params: NeuronParams = NeuronParams()) -> TimingStats:
    """Aggregate per-frame compute times over repeated replays."""
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    return TimingStats.from_samples(np.concatenate(
        [track(trajectory, kernel, gain, params=params).frame_s
         for _ in range(repetitions)]))
