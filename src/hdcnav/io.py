"""Trajectory ingestion and synthetic trajectory generation.

The canonical interchange format is a small CSV ("t,omega[,truth]"); a
KITTI-style oxts directory adapter maps raw IMU logs onto it. Synthetic
profiles reproduce the simulation experiments: constant rotation, a
balanced maze-like turn sequence, and a noisy variant of the latter.
"""

import csv
import math
import os
from dataclasses import dataclass
from datetime import datetime

import numpy as np

__all__ = ["TrajectoryRecord", "OxtsLayout", "SyntheticProfile", "read_csv",
           "write_csv", "read_oxts", "generate", "TrajectoryFormatError"]

TWO_PI = 2.0 * math.pi


class TrajectoryFormatError(ValueError):
    """Malformed trajectory input (with file/line context where known)."""


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
class OxtsLayout:
    """Column layout of whitespace-separated oxts records."""

    yaw_column: int = 5
    yaw_rate_column: int = 19
    sample_rate_hz: float = 100.0

    def __post_init__(self):
        if self.yaw_column < 0 or self.yaw_rate_column < 0:
            raise ValueError("column indices must be non-negative")
        if self.yaw_column == self.yaw_rate_column:
            raise ValueError("yaw and yaw-rate columns must be distinct")


@dataclass(frozen=True)
class SyntheticProfile:
    """Parameters of a generated test trajectory."""

    kind: str                      # constant_rotation | balanced_maze | noisy
    omega_max: float               # [rad/s]
    duration: float                # [s]
    frame_dt: float = 0.01
    noise_sigma: float = 0.0       # [rad/s], noisy kind only
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("constant_rotation", "balanced_maze", "noisy"):
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if self.frame_dt <= 0 or self.duration <= 0:
            raise ValueError("duration and frame_dt must be positive")
        if self.omega_max <= 0:
            raise ValueError("omega_max must be positive")


# -- CSV ----------------------------------------------------------------

def read_csv(path):
    """Read a "t,omega[,truth]" CSV into a list of TrajectoryRecords."""
    records = []
    with open(path, encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise TrajectoryFormatError(f"{path}: empty file") from None
        cols = [c.strip().lower() for c in header]
        if cols[:2] != ["t", "omega"] or len(cols) > 3 or \
                (len(cols) == 3 and cols[2] != "truth"):
            raise TrajectoryFormatError(
                f"{path}: header must be 't,omega[,truth]', got {','.join(header)!r}")
        has_truth = len(cols) == 3
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            try:
                t = float(row[0])
                omega = float(row[1])
                truth = None
                if has_truth and len(row) > 2 and row[2].strip() != "":
                    truth = float(row[2])
            except (ValueError, IndexError):
                raise TrajectoryFormatError(
                    f"{path}:{lineno}: cannot parse row {row!r}") from None
            if not math.isfinite(t) or not math.isfinite(omega) or \
                    (truth is not None and not math.isfinite(truth)):
                raise TrajectoryFormatError(f"{path}:{lineno}: non-finite value")
            if records and t <= records[-1].t:
                raise TrajectoryFormatError(
                    f"{path}:{lineno}: timestamp {t} not after {records[-1].t}")
            records.append(TrajectoryRecord(t=t, omega=omega, truth_heading=truth))
    if not records:
        raise TrajectoryFormatError(f"{path}: no data rows")
    return records


def write_csv(records, path):
    """Write records in the canonical CSV schema (UTF-8, LF endings)."""
    has_truth = any(r.truth_heading is not None for r in records)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "omega", "truth"] if has_truth else ["t", "omega"])
        for r in records:
            row = [f"{r.t:.9g}", f"{r.omega:.12g}"]
            if has_truth:
                row.append("" if r.truth_heading is None else f"{r.truth_heading:.12g}")
            writer.writerow(row)


# -- oxts directories ---------------------------------------------------

def _parse_timestamp(line: str) -> float:
    """Seconds from an oxts timestamp line (ISO datetime or plain float)."""
    text = line.strip()
    try:
        return float(text)
    except ValueError:
        pass
    # e.g. "2011-10-03 12:55:34.591046633"; trim to microseconds
    date, _, clock = text.partition(" ")
    if "." in clock:
        whole, frac = clock.split(".", 1)
        clock = whole + "." + frac[:6]
    try:
        stamp = datetime.fromisoformat(f"{date} {clock}")
    except ValueError:
        raise TrajectoryFormatError(f"unparseable timestamp line {line!r}") from None
    return stamp.timestamp()


def read_oxts(directory, layout: OxtsLayout = OxtsLayout()):
    """Read an oxts-style directory into a trajectory.

    Expects per-frame whitespace-separated numeric files (in ``data/`` or
    directly in the directory) and a ``timestamps.txt`` with one line per
    frame. Yaw rate becomes omega, yaw becomes the ground truth.
    """
    ts_path = os.path.join(directory, "timestamps.txt")
    if not os.path.isfile(ts_path):
        raise TrajectoryFormatError(f"{directory}: missing timestamps.txt")
    data_dir = os.path.join(directory, "data")
    if not os.path.isdir(data_dir):
        data_dir = directory
    frames = sorted(f for f in os.listdir(data_dir)
                    if f.endswith(".txt") and f != "timestamps.txt")
    with open(ts_path, encoding="utf-8") as fh:
        stamps = [_parse_timestamp(line) for line in fh if line.strip()]
    if len(stamps) != len(frames):
        raise TrajectoryFormatError(
            f"{directory}: {len(frames)} data files but {len(stamps)} timestamps")
    if not frames:
        raise TrajectoryFormatError(f"{directory}: no data files")
    t0 = stamps[0]
    needed = max(layout.yaw_column, layout.yaw_rate_column)
    records = []
    for name, stamp in zip(frames, stamps):
        path = os.path.join(data_dir, name)
        with open(path, encoding="utf-8") as fh:
            fields = fh.read().split()
        if len(fields) <= needed:
            raise TrajectoryFormatError(
                f"{path}: only {len(fields)} fields, need index {needed}")
        try:
            yaw = float(fields[layout.yaw_column])
            rate = float(fields[layout.yaw_rate_column])
        except ValueError:
            raise TrajectoryFormatError(f"{path}: non-numeric field") from None
        if not (math.isfinite(yaw) and math.isfinite(rate)):
            raise TrajectoryFormatError(f"{path}: non-finite field")
        t = stamp - t0
        if records and t <= records[-1].t:
            raise TrajectoryFormatError(
                f"{directory}: non-monotonic timestamp for {name}")
        records.append(TrajectoryRecord(t=t, omega=rate,
                                        truth_heading=yaw % TWO_PI))
    return records


# -- synthetic profiles -------------------------------------------------

def _maze_segments(omega_max: float, duration: float):
    """Deterministic (duration, omega) segments with zero signed turn total.

    Pairs of opposite turns separated by straight stretches; the pattern
    repeats until the requested duration is filled, then a final straight
    segment pads to the exact end so the signed total stays zero.
    """
    turn_angles = [math.pi / 2, math.pi, math.pi / 4, 3 * math.pi / 4]
    straight = 1.0
    segments = []
    total = 0.0
    i = 0
    while True:
        angle = turn_angles[i % len(turn_angles)]
        turn_time = angle / omega_max
        pair = [(straight, 0.0), (turn_time, omega_max),
                (straight, 0.0), (turn_time, -omega_max)]
        pair_time = sum(d for d, _ in pair)
        if total + pair_time > duration:
            break
        segments.extend(pair)
        total += pair_time
        i += 1
    if duration - total > 0:
        segments.append((duration - total, 0.0))
    return segments


def _sample_segments(segments, frame_dt: float):
    """Sample piecewise-constant omega at the frame times.

    The effective continuous-time signal is the piecewise-linear
    interpolant of the samples, so the exact truth heading is its
    closed-form (trapezoid) integral; segment transitions thus ramp over
    one frame instead of jumping mid-interval.
    """
    boundaries = np.cumsum([0.0] + [d for d, _ in segments])
    omegas = np.array([w for _, w in segments])
    total = boundaries[-1]
    n = int(round(total / frame_dt))
    ts = np.arange(n + 1) * frame_dt
    ts = ts[ts <= total + 1e-12]
    omega_out = np.empty(len(ts))
    seg = 0
    for j, t in enumerate(ts):
        while seg + 1 < len(boundaries) - 1 and t >= boundaries[seg + 1] - 1e-12:
            seg += 1
        omega_out[j] = omegas[seg]
    truth_out = np.concatenate(
        [[0.0], np.cumsum(np.diff(ts) * (omega_out[1:] + omega_out[:-1]) / 2.0)])
    return ts, omega_out, truth_out


def generate(profile: SyntheticProfile):
    """Generate a trajectory with closed-form exact truth headings."""
    if profile.kind == "constant_rotation":
        n = int(round(profile.duration / profile.frame_dt))
        ts = np.arange(n + 1) * profile.frame_dt
        omega = np.full(len(ts), profile.omega_max)
        truth = profile.omega_max * ts
    elif profile.kind == "balanced_maze":
        segments = _maze_segments(profile.omega_max, profile.duration)
        ts, omega, truth = _sample_segments(segments, profile.frame_dt)
    else:  # noisy
        segments = _maze_segments(profile.omega_max, profile.duration)
        ts, omega, truth = _sample_segments(segments, profile.frame_dt)
        rng = np.random.default_rng(profile.seed)
        omega = omega + rng.normal(0.0, profile.noise_sigma, len(omega))
    return [TrajectoryRecord(t=float(t), omega=float(w),
                             truth_heading=float(h % TWO_PI))
            for t, w, h in zip(ts, omega, truth)]
