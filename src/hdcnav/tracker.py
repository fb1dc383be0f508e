"""Heading tracker: replay angular-velocity trajectories through the ring
network, decode headings, and compare against ground truth and the
trapezoid-rule integration baseline.
"""

import csv
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .calibration import StimulusGain
from .kernel import WeightKernel
from .network import HDCNetwork, TurningStimulus
from .neuron import NeuronParams

__all__ = ["TrajectoryRecord", "SampleResult", "TimingStats", "TrackingReport",
           "track", "baseline_integrate", "wrapped_error", "benchmark"]

TWO_PI = 2.0 * math.pi

# 100 Hz real-time budget per frame.
_FRAME_BUDGET_MS = 10.0


@dataclass(frozen=True)
class TrajectoryRecord:
    """One timestamped yaw-rate sample, with optional ground-truth yaw."""

    t: float
    omega: float              # [rad/s]
    truth_heading: float = None   # [rad] or None

    def __post_init__(self):
        if not math.isfinite(self.t) or not math.isfinite(self.omega):
            raise ValueError(f"non-finite trajectory sample at t={self.t!r}")
        if self.truth_heading is not None and not math.isfinite(self.truth_heading):
            raise ValueError(f"non-finite truth heading at t={self.t!r}")


@dataclass(frozen=True)
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


@dataclass
class TrackingReport:
    per_sample: list = field(default_factory=list)
    mean_error_deg: float = None
    max_error_deg: float = None
    min_error_deg: float = None
    timing: TimingStats = None

    def finalize(self):
        errors = [abs(s.error_deg) for s in self.per_sample if s.error_deg is not None]
        if errors:
            self.mean_error_deg = float(np.mean(errors))
            self.max_error_deg = float(np.max(errors))
            self.min_error_deg = float(np.min(errors))
        return self

    def to_json(self, path):
        doc = {
            "mean_error_deg": self.mean_error_deg,
            "max_error_deg": self.max_error_deg,
            "min_error_deg": self.min_error_deg,
            "timing": None if self.timing is None else vars(self.timing),
            "samples": len(self.per_sample),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["t", "omega", "decoded", "baseline", "truth",
                             "err_hdc", "err_baseline"])
            for s, omega in zip(self.per_sample, self._omegas):
                writer.writerow([
                    f"{s.t:.9g}", f"{omega:.9g}",
                    f"{s.decoded_heading:.9g}", f"{s.baseline_heading:.9g}",
                    "" if s.truth_heading is None else f"{s.truth_heading:.9g}",
                    "" if s.error_deg is None else f"{s.error_deg:.9g}",
                    "" if s.baseline_error_deg is None else f"{s.baseline_error_deg:.9g}",
                ])

    _omegas: list = field(default_factory=list)
    _frame_s: np.ndarray = None


def wrapped_error(a: float, b: float) -> float:
    """Shortest signed angular difference a - b, in degrees in (-180, 180]."""
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("wrapped_error requires finite angles")
    d = math.degrees(math.remainder(a - b, TWO_PI))
    if d <= -180.0:
        d += 360.0
    return d


def _check_monotonic(records):
    if not records:
        raise ValueError("trajectory is empty")
    for k in range(1, len(records)):
        if records[k].t <= records[k - 1].t:
            raise ValueError(
                f"non-monotonic timestamps: t[{k}]={records[k].t} after "
                f"t[{k - 1}]={records[k - 1].t}")


def baseline_integrate(records, initial_heading: float = 0.0) -> np.ndarray:
    """Trapezoid-rule integration of the yaw rate, wrapped to [0, 2*pi)."""
    _check_monotonic(records)
    headings = np.empty(len(records))
    h = initial_heading % TWO_PI
    headings[0] = h
    for k in range(1, len(records)):
        dt = records[k].t - records[k - 1].t
        h = (h + dt * (records[k].omega + records[k - 1].omega) / 2.0) % TWO_PI
        headings[k] = h
    return headings


def track(records, kernel: WeightKernel, gain: StimulusGain,
          initial_heading: float = 0.0,
          params: NeuronParams = NeuronParams()) -> TrackingReport:
    """Replay a trajectory through the network and collect the report.

    The stimulus for each inter-sample interval is alpha * |omega| of the
    sample closing the interval, applied to the shift layer matching the
    turn direction; the other layer receives zero. Per-frame wall-clock
    compute times are recorded alongside the decoded headings.
    """
    _check_monotonic(records)
    net = HDCNetwork(kernel, params)
    net.init_at(initial_heading)
    baseline = baseline_integrate(records, initial_heading)

    report = TrackingReport()
    report._omegas = [r.omega for r in records]
    frame_times = []

    def emit(k, decoded):
        rec = records[k]
        err = base_err = None
        if rec.truth_heading is not None:
            err = wrapped_error(decoded, rec.truth_heading)
            base_err = wrapped_error(baseline[k], rec.truth_heading)
        report.per_sample.append(SampleResult(
            t=rec.t,
            decoded_heading=decoded,
            baseline_heading=float(baseline[k]),
            truth_heading=rec.truth_heading,
            error_deg=err,
            baseline_error_deg=base_err,
            omega_out_of_range=abs(rec.omega) > gain.max_velocity,
        ))

    emit(0, net.decode())
    for k in range(1, len(records)):
        rec = records[k]
        frame_dt = rec.t - records[k - 1].t
        level = gain.stimulus_for(rec.omega)
        if rec.omega >= 0.0:
            stim = TurningStimulus(left=level, right=0.0)
        else:
            stim = TurningStimulus(left=0.0, right=level)
        start = time.perf_counter()
        net.run_frame(stim, frame_dt)
        decoded = net.decode()
        frame_times.append(time.perf_counter() - start)
        emit(k, decoded)

    report.timing = TimingStats.from_samples(frame_times)
    report._frame_s = np.asarray(frame_times)
    return report.finalize()


def benchmark(records, kernel: WeightKernel, gain: StimulusGain,
              repetitions: int = 1,
              params: NeuronParams = NeuronParams()) -> TimingStats:
    """Aggregate per-frame compute times over repeated replays."""
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    frame_times = []
    for _ in range(repetitions):
        report = track(records, kernel, gain, params=params)
        frame_times.append(report._frame_s)
    return TimingStats.from_samples(np.concatenate(frame_times))
