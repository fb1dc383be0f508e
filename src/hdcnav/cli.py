"""Command-line entry point.

Subcommands: synthesize, calibrate, track, bench, generate. Options can
come from a JSON config document (--config or the HDCNAV_CONFIG
environment variable); explicit flags override config values. Exit codes:
0 success, 1 validation/invariant failure, 2 I/O error.
"""

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .calibration import (DEFAULT_STIMULI, SWEEP_DURATION, fit_gain,
                          load_calibration, save_calibration, sweep)
from .kernel import (DEFAULT_GAMMA, DEFAULT_LAMBDA, TuningCurve, build_kernel,
                     kernel_hash, load_kernel, save_kernel)
from .io import (SyntheticProfile, generate, read_csv, read_oxts, write_csv,
                 OxtsLayout)
from .tracker import benchmark, track

CONFIG_ENV_VAR = "HDCNAV_CONFIG"

# Table-stakes reference for the latency report: mean per-frame compute
# time measured on a Raspberry Pi 3 in the original evaluation.
_PI_REFERENCE_MEAN_MS = 7.70

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_IO = 2


class CliError(Exception):
    """Validation failure that should terminate with exit code 1."""


def _load_config(path):
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR)
    if path is None:
        return {}
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise CliError(f"{path}: config must be a JSON object")
    return doc


def _merge(args, config, key, default=None):
    """Flag value if given, else config value, else default."""
    value = getattr(args, key, None)
    if value is not None:
        return value
    return config.get(key, default)


def _parse_stimuli(text):
    try:
        levels = [float(tok) for tok in str(text).split(",") if tok.strip()]
    except ValueError:
        raise CliError(f"cannot parse stimulus list {text!r}") from None
    if not levels:
        raise CliError("empty stimulus list")
    return levels


def _load_trajectory(args, config):
    path = _merge(args, config, "trajectory")
    oxts = _merge(args, config, "oxts")
    if (path is None) == (oxts is None):
        raise CliError("exactly one of --trajectory or --oxts is required")
    if path is not None:
        return read_csv(path)
    layout = OxtsLayout(
        yaw_column=int(_merge(args, config, "yaw_column", 5)),
        yaw_rate_column=int(_merge(args, config, "yaw_rate_column", 19)),
    )
    return read_oxts(oxts, layout)


def _load_kernel_and_gain(args, config):
    kernel_path = _merge(args, config, "kernel")
    calib_path = _merge(args, config, "calibration")
    if kernel_path is None or calib_path is None:
        raise CliError("--kernel and --calibration are required")
    kernel = load_kernel(kernel_path)
    gain = load_calibration(calib_path, kernel=kernel)
    return kernel, gain


# -- subcommands --------------------------------------------------------

def cmd_synthesize(args, config):
    curve = TuningCurve(
        a=float(_merge(args, config, "a", 8.95)),
        m=float(_merge(args, config, "m", 5.29)),
        n=int(_merge(args, config, "n", 100)),
        b=_merge(args, config, "b"),
    )
    lam = float(_merge(args, config, "lam", DEFAULT_LAMBDA))
    gamma = float(_merge(args, config, "gamma", DEFAULT_GAMMA))
    kernel = build_kernel(curve, lam, gamma)
    kernel.validate()
    out = _merge(args, config, "out", "kernel.json")
    save_kernel(kernel, out)
    w, wp = kernel.h_to_h, kernel.s_to_h
    print(f"kernel n={kernel.n} lambda={lam:g} gamma={gamma:g} -> {out}")
    print(f"symmetry: even residual {np.max(np.abs(w[1:] - w[1:][::-1])):.3e}, "
          f"odd residual {np.max(np.abs(wp[1:] + wp[1:][::-1])):.3e}")
    print(f"hash: {kernel_hash(kernel)}")
    return EXIT_OK


def cmd_calibrate(args, config):
    kernel_path = _merge(args, config, "kernel")
    if kernel_path is None:
        raise CliError("--kernel is required")
    kernel = load_kernel(kernel_path)
    stimuli_opt = _merge(args, config, "stimuli")
    stimuli = (sorted(_parse_stimuli(stimuli_opt))
               if stimuli_opt is not None else DEFAULT_STIMULI)
    duration = float(_merge(args, config, "duration", SWEEP_DURATION))
    samples = sweep(kernel, stimuli, duration)
    gain = fit_gain(samples, kernel=kernel)
    out = _merge(args, config, "out", "calibration.json")
    save_calibration(gain, out)
    table = _merge(args, config, "sweep_csv")
    if table:
        with open(table, "w", encoding="utf-8", newline="\n") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["stimulus", "velocity", "degenerate"])
            for s in samples:
                writer.writerow([f"{s.stimulus:.9g}", f"{s.velocity:.9g}",
                                 int(s.degenerate)])
    print(f"alpha={gain.alpha:.6f} fit_r2={gain.fit_r2:.6f} "
          f"max_velocity={math.degrees(gain.max_velocity):.1f} deg/s -> {out}")
    return EXIT_OK


def cmd_track(args, config):
    kernel, gain = _load_kernel_and_gain(args, config)
    trajectory = _load_trajectory(args, config)
    initial = float(_merge(args, config, "initial_heading", 0.0))
    report = track(trajectory, kernel, gain, initial_heading=initial)
    report_path = _merge(args, config, "report", "report.json")
    report.to_json(report_path)
    samples_path = _merge(args, config, "samples")
    if samples_path:
        report.to_csv(samples_path)
    if report.mean_error_deg is None:
        print(f"tracked {len(report.t)} samples (no ground truth)")
    else:
        print(f"tracked {len(report.t)} samples: mean |error| "
              f"{report.mean_error_deg:.3f} deg, max {report.max_error_deg:.3f} deg")
    print(f"report -> {report_path}")
    return EXIT_OK


def cmd_bench(args, config):
    kernel, gain = _load_kernel_and_gain(args, config)
    trajectory = _load_trajectory(args, config)
    reps = int(_merge(args, config, "repetitions", 1))
    stats = benchmark(trajectory, kernel, gain, repetitions=reps)
    out = _merge(args, config, "out", "bench.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(vars(stats), fh, indent=1)
        fh.write("\n")
    print(f"frames={stats.frame_count} mean={stats.mean_ms:.3f} ms "
          f"median={stats.median_ms:.3f} ms max={stats.max_ms:.3f} ms "
          f"over-budget={stats.pct_over_10ms:.2f}%")
    print(f"reference: Raspberry Pi 3 mean {_PI_REFERENCE_MEAN_MS:.2f} ms "
          f"(this run: {stats.mean_ms / _PI_REFERENCE_MEAN_MS:.2f}x of reference)")
    return EXIT_OK


def cmd_generate(args, config):
    profile = SyntheticProfile(
        kind=_merge(args, config, "kind", "constant_rotation"),
        omega_max=float(_merge(args, config, "omega_max", math.radians(20.0))),
        duration=float(_merge(args, config, "duration", 18.0)),
        frame_dt=float(_merge(args, config, "frame_dt", 0.01)),
        noise_sigma=float(_merge(args, config, "noise_sigma", 0.0)),
        seed=int(_merge(args, config, "seed", 0)),
    )
    trajectory = generate(profile)
    out = _merge(args, config, "out", "trajectory.csv")
    write_csv(trajectory, out)
    print(f"{profile.kind}: {len(trajectory)} samples over "
          f"{trajectory.t[-1]:.2f} s -> {out}")
    return EXIT_OK


# -- argument parsing ---------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="hdcnav",
        description="Head-direction ring attractor: kernel synthesis, "
                    "calibration, trajectory replay, and benchmarking.")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--config", help="JSON config file (flags override); "
                        f"defaults to ${CONFIG_ENV_VAR} if set")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synthesize", help="build and save a weight kernel")
    p.add_argument("--n", type=int)
    p.add_argument("--lam", "--lambda", dest="lam", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--a", type=float)
    p.add_argument("--b", type=float)
    p.add_argument("--m", type=float)
    p.add_argument("--out")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("calibrate", help="sweep stimuli and fit the gain")
    p.add_argument("--kernel")
    p.add_argument("--stimuli", help="comma-separated stimulus levels")
    p.add_argument("--duration", type=float)
    p.add_argument("--out")
    p.add_argument("--sweep-csv", dest="sweep_csv")
    p.set_defaults(func=cmd_calibrate)

    replay = argparse.ArgumentParser(add_help=False)
    replay.add_argument("--kernel")
    replay.add_argument("--calibration")
    replay.add_argument("--trajectory", help="CSV trajectory (t,omega[,truth])")
    replay.add_argument("--oxts", help="oxts-style directory instead of CSV")
    replay.add_argument("--yaw-column", dest="yaw_column", type=int)
    replay.add_argument("--yaw-rate-column", dest="yaw_rate_column", type=int)

    p = sub.add_parser("track", parents=[replay],
                       help="replay a trajectory and report errors")
    p.add_argument("--initial-heading", dest="initial_heading", type=float)
    p.add_argument("--report")
    p.add_argument("--samples", help="per-sample CSV output path")
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("bench", parents=[replay],
                       help="latency benchmark over a trajectory")
    p.add_argument("--repetitions", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("generate", help="write a synthetic trajectory CSV")
    p.add_argument("--kind", choices=["constant_rotation", "balanced_maze", "noisy"])
    p.add_argument("--omega-max", dest="omega_max", type=float,
                   help="peak angular velocity [rad/s]")
    p.add_argument("--duration", type=float)
    p.add_argument("--frame-dt", dest="frame_dt", type=float)
    p.add_argument("--noise-sigma", dest="noise_sigma", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_generate)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
        return args.func(args, config)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (CliError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
