"""Trajectory ingestion and synthetic trajectory generation.

A trajectory is one frozen ``Trajectory`` of three numpy columns: sample
times ``t`` [s], yaw rate ``omega`` [rad/s] and ground-truth yaw
``truth`` [rad], NaN where a sample has none. Its constructor is the one
place where a trajectory is validated. The canonical interchange format
is a small CSV ("t,omega[,truth]"), parsed in one vectorised pass; a
KITTI-style oxts directory adapter maps raw IMU logs onto the same
columns. Synthetic profiles reproduce the simulation experiments: a
path, constant rotation or a balanced maze-like turn sequence, plus
seeded white gyro noise on its yaw rate, none by default.
"""

import csv
import math
import os
import re
import warnings
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import NamedTuple

import numpy as np

__all__ = ["Trajectory", "TrajectoryRecord", "SyntheticProfile",
           "read_csv", "write_csv", "read_oxts", "generate",
           "TrajectoryFormatError"]

TWO_PI = 2.0 * math.pi


class TrajectoryFormatError(ValueError):
    """Malformed trajectory input (with file/line context where known).

    ``sample`` is the index of the sample at fault, where there is one, and
    ``reason`` the message without it.
    """

    def __init__(self, reason, sample=None):
        super().__init__(reason if sample is None else f"sample {sample}: {reason}")
        self.reason = reason
        self.sample = sample


class TrajectoryRecord(NamedTuple):
    """One sample of a trajectory; ``truth`` is NaN where it has none."""

    t: float
    omega: float              # [rad/s]
    truth: float              # [rad]


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Timestamped yaw-rate samples as three read-only float columns.

    ``truth`` is the ground-truth yaw, NaN where a sample has none; left
    out, no sample has one. The columns are copied and checked here: one
    length, at least one sample, finite ``t`` and ``omega``, ``truth``
    finite or NaN, and ``t`` strictly increasing. An error names the
    sample at fault. An int index gives one ``TrajectoryRecord`` of Python
    floats; a slice gives a ``Trajectory``.
    """

    t: np.ndarray
    omega: np.ndarray
    truth: np.ndarray = None

    def __post_init__(self):
        t = np.array(self.t, dtype=float)
        omega = np.array(self.omega, dtype=float)
        truth = (np.full(t.shape, math.nan) if self.truth is None
                 else np.array(self.truth, dtype=float))
        if t.ndim != 1 or omega.shape != t.shape or truth.shape != t.shape:
            raise TrajectoryFormatError(
                "t, omega and truth must be 1-D columns of one length, got shapes "
                f"{t.shape}, {omega.shape} and {truth.shape}")
        if t.size == 0:
            raise TrajectoryFormatError("no samples")
        bad = np.flatnonzero(~(np.isfinite(t) & np.isfinite(omega)) | np.isinf(truth))
        if bad.size:
            raise TrajectoryFormatError("non-finite value", int(bad[0]))
        late = np.flatnonzero(np.diff(t) <= 0.0)
        if late.size:
            k = int(late[0]) + 1
            raise TrajectoryFormatError(f"timestamp {t[k]} not after {t[k - 1]}", k)
        for name, column in (("t", t), ("omega", omega), ("truth", truth)):
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __len__(self):
        return len(self.t)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return Trajectory(self.t[k], self.omega[k], self.truth[k])
        return TrajectoryRecord(self.t.item(k), self.omega.item(k), self.truth.item(k))


@dataclass(frozen=True)
class SyntheticProfile:
    """Parameters of a generated test trajectory: a path plus gyro noise.

    The defaults are one 20 deg/s lap, sampled every 10 ms without noise.
    """

    kind: str = "constant_rotation"            # or balanced_maze
    omega_max: float = math.radians(20.0)      # [rad/s]
    duration: float = 18.0                     # [s]
    frame_dt: float = 0.01                     # [s]
    noise_sigma: float = 0.0                   # [rad/s]
    seed: int = 0                              # of the noise

    def __post_init__(self):
        if self.kind not in ("constant_rotation", "balanced_maze"):
            raise ValueError(f"unknown profile kind {self.kind!r}")
        for name in ("omega_max", "duration", "frame_dt"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if not 0.0 <= self.noise_sigma < math.inf:
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")


# -- CSV ----------------------------------------------------------------

def _truth_cell(cell: str) -> float:
    """A truth cell: blank is "no truth" (NaN); a written NaN is refused."""
    if not cell.strip():
        return math.nan
    value = float(cell)
    if math.isnan(value):
        raise ValueError("NaN truth: leave the cell blank for no truth")
    return value


def _parse_rows(rows, width: int) -> np.ndarray:
    """The data lines as a (rows, width) float array, in one pass."""
    data = np.loadtxt(rows, dtype=float, delimiter=",", comments=None,
                      quotechar='"', ndmin=2,
                      converters={2: _truth_cell} if width == 3 else None)
    if data.shape[1] != width:
        raise ValueError("field count differs from the header")
    return data


def _numbered_rows(lines):
    """(line number, text) of each data line: the non-blank ones after the header."""
    return [(i, line) for i, line in enumerate(lines[1:], start=2) if line.strip()]


def _bad_line_error(path, lines, width: int) -> TrajectoryFormatError:
    """Name the first data line that fails to parse on its own."""
    for lineno, line in _numbered_rows(lines):
        fields = len(next(csv.reader([line])))
        if fields != width:
            return TrajectoryFormatError(
                f"{path}:{lineno}: {fields} fields, header has {width}")
        try:
            _parse_rows([line], width)
        except ValueError:
            return TrajectoryFormatError(f"{path}:{lineno}: cannot parse row {line!r}")
    return TrajectoryFormatError(f"{path}: cannot parse the data rows")


def read_csv(path) -> Trajectory:
    """Read a "t,omega[,truth]" CSV into a Trajectory.

    Each data row has exactly the header's fields. A blank truth cell
    means the sample has no truth; blank and whitespace-only lines are
    skipped. Every error on a data row names its ``path:line``.
    """
    with open(path, encoding="utf-8") as fh:
        first = fh.readline()
        if not first:
            raise TrajectoryFormatError(f"{path}: empty file")
        header = next(csv.reader([first]))
        cols = [c.strip().lower() for c in header]
        if cols not in (["t", "omega"], ["t", "omega", "truth"]):
            raise TrajectoryFormatError(
                f"{path}: header must be 't,omega[,truth]', got {','.join(header)!r}")
        # The rows straight from the file, with no copy of its text. Any
        # fault, a whitespace-only line or no data row at all included,
        # takes the line-by-line path below, which skips blank lines and
        # names the line at fault.
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                        UserWarning)
                return Trajectory(*_parse_rows(fh, len(cols)).T)
        except ValueError:
            fh.seek(0)
            lines = fh.read().split("\n")
    rows = [line for line in lines[1:] if line.strip()]
    if not rows:
        raise TrajectoryFormatError(f"{path}: no data rows")
    try:
        data = _parse_rows(rows, len(cols))
    except ValueError:
        raise _bad_line_error(path, lines, len(cols)) from None
    try:
        return Trajectory(*data.T)
    except TrajectoryFormatError as exc:
        lineno = _numbered_rows(lines)[exc.sample][0]
        raise TrajectoryFormatError(f"{path}:{lineno}: {exc.reason}") from None


def write_csv(trajectory: Trajectory, path):
    """Write a trajectory in the canonical CSV schema (UTF-8, LF endings)."""
    has_truth = not np.isnan(trajectory.truth).all()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "omega", "truth"] if has_truth else ["t", "omega"])
        for t, omega, truth in zip(trajectory.t.tolist(), trajectory.omega.tolist(),
                                   trajectory.truth.tolist()):
            row = [f"{t:.9g}", f"{omega:.12g}"]
            if has_truth:
                row.append("" if math.isnan(truth) else f"{truth:.12g}")
            writer.writerow(row)


# -- oxts directories ---------------------------------------------------

def _parse_timestamp(line: str) -> float:
    """Seconds from an oxts timestamp line (ISO datetime or plain float);
    a datetime without a zone reads as UTC, whatever the local zone.
    ValueError if the line is neither."""
    text = line.strip()
    try:
        return float(text)
    except ValueError:
        pass
    # e.g. "2011-10-03 12:55:34.591046633". Before Python 3.11,
    # fromisoformat reads only 3 or 6 fraction digits, so the fraction
    # becomes exactly 6 (trimmed to microseconds); a zone suffix stays.
    text = re.sub(r"\.(\d+)", lambda m: "." + m[1][:6].ljust(6, "0"), text)
    stamp = datetime.fromisoformat(text)
    return stamp.replace(tzinfo=stamp.tzinfo or timezone.utc).timestamp()


def read_oxts(directory, yaw_column: int = 5, yaw_rate_column: int = 19) -> Trajectory:
    """Read an oxts-style directory into a Trajectory.

    Expects per-frame whitespace-separated numeric files (in ``data/`` or
    directly in the directory) and a ``timestamps.txt`` with one line per
    frame. The yaw rate in field ``yaw_rate_column`` becomes omega and the
    yaw in field ``yaw_column`` the ground truth; the defaults are KITTI's
    yaw and wz fields. A bad timestamp names its ``timestamps.txt`` line,
    a bad yaw or yaw rate its data file.
    """
    if min(yaw_column, yaw_rate_column) < 0 or yaw_column == yaw_rate_column:
        raise ValueError("yaw and yaw-rate columns must be distinct and non-negative, "
                         f"got {yaw_column} and {yaw_rate_column}")
    ts_path = os.path.join(directory, "timestamps.txt")
    if not os.path.isfile(ts_path):
        raise TrajectoryFormatError(f"{directory}: missing timestamps.txt")
    data_dir = os.path.join(directory, "data")
    if not os.path.isdir(data_dir):
        data_dir = directory
    frames = sorted(f for f in os.listdir(data_dir)
                    if f.endswith(".txt") and f != "timestamps.txt")
    with open(ts_path, encoding="utf-8") as fh:
        lines = [(lineno, line) for lineno, line in enumerate(fh, start=1) if line.strip()]
    stamps = []
    for lineno, line in lines:
        try:
            stamps.append(_parse_timestamp(line))
        except ValueError:
            raise TrajectoryFormatError(
                f"{ts_path}:{lineno}: unparseable timestamp {line.strip()!r}") from None
    if len(stamps) != len(frames):
        raise TrajectoryFormatError(
            f"{directory}: {len(frames)} data files but {len(stamps)} timestamps")
    if not frames:
        raise TrajectoryFormatError(f"{directory}: no data files")
    try:  # the stamps alone, so that a bad one is not blamed on a data file
        Trajectory(stamps, np.zeros(len(stamps)))
    except TrajectoryFormatError as exc:
        raise TrajectoryFormatError(f"{ts_path}:{lines[exc.sample][0]}: {exc.reason}") from None
    needed = max(yaw_column, yaw_rate_column)
    yaws, rates = [], []
    for name in frames:
        path = os.path.join(data_dir, name)
        with open(path, encoding="utf-8") as fh:
            fields = fh.read().split()
        if len(fields) <= needed:
            raise TrajectoryFormatError(
                f"{path}: only {len(fields)} fields, need index {needed}")
        try:
            yaws.append(float(fields[yaw_column]))
            rates.append(float(fields[yaw_rate_column]))
        except ValueError:
            raise TrajectoryFormatError(f"{path}: non-numeric field") from None
        # A NaN yaw, or an infinite one once wrapped, would read as "no truth".
        if not math.isfinite(yaws[-1]):
            raise TrajectoryFormatError(f"{path}: non-finite yaw")
    try:
        return Trajectory(np.array(stamps) - stamps[0], rates,
                          np.array(yaws) % TWO_PI)
    except TrajectoryFormatError as exc:
        path = os.path.join(data_dir, frames[exc.sample])
        raise TrajectoryFormatError(f"{path}: {exc.reason}") from None


# -- synthetic profiles -------------------------------------------------

def cumulative_trapezoid(t, y) -> np.ndarray:
    """Trapezoid-rule integral of ``y`` over ``t`` up to each sample, from 0."""
    return np.concatenate(([0.0], np.cumsum(np.diff(t) * (y[1:] + y[:-1]) / 2.0)))


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
    # A sample at a boundary (within 1e-12 s) takes the later segment's omega.
    omega_out = omegas[np.searchsorted(boundaries[1:-1] - 1e-12, ts, side="right")]
    return ts, omega_out, cumulative_trapezoid(ts, omega_out)


def generate(profile: SyntheticProfile) -> Trajectory:
    """Generate a trajectory with closed-form exact truth headings."""
    if profile.kind == "constant_rotation":
        n = int(round(profile.duration / profile.frame_dt))
        ts = np.arange(n + 1) * profile.frame_dt
        omega = np.full(len(ts), profile.omega_max)
        truth = profile.omega_max * ts
    else:  # balanced_maze
        segments = _maze_segments(profile.omega_max, profile.duration)
        ts, omega, truth = _sample_segments(segments, profile.frame_dt)
    # Noise on omega only, so truth stays the clean path's; sigma 0 adds zeros.
    noise = np.random.default_rng(profile.seed).normal(0.0, profile.noise_sigma, len(ts))
    return Trajectory(ts, omega + noise, truth % TWO_PI)
