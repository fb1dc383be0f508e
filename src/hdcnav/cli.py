"""Command-line entry point.

Subcommands: synthesize, calibrate, track, bench, generate. Arguments
can also come from a file named as ``@FILE``, one argument per line;
argparse inserts them where the file is named, so a later flag overrides
them. Only the options that are set reach the library, so its defaults
are the only defaults. Exit codes: 0 success, 1 validation/invariant
failure, 2 I/O or usage error.
"""

import argparse
import csv
import json
import math
import sys

import numpy as np

from . import __version__
from .calibration import fit_gain, load_calibration, save_calibration, sweep
from .kernel import TuningCurve, build_kernel, kernel_hash, load_kernel, save_kernel
from .network import DegenerateActivityError, HDCNetwork
from .io import (SyntheticProfile, generate, read_csv, read_oxts, write_csv,
                 OxtsLayout)
from .tracker import benchmark, track

# Table-stakes reference for the latency report: mean per-frame compute
# time measured on a Raspberry Pi 3 in the original evaluation.
_PI_REFERENCE_MEAN_MS = 7.70

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_IO = 2


class CliError(Exception):
    """Validation failure that should terminate with exit code 1."""


def _given(args, *names):
    """The named options that are set, as keyword arguments."""
    return {name: getattr(args, name) for name in names
            if getattr(args, name) is not None}


def _load_replay(args):
    """The kernel, calibration and trajectory that track and bench replay."""
    if args.kernel is None or args.calibration is None:
        raise CliError("--kernel and --calibration are required")
    kernel = load_kernel(args.kernel)
    gain = load_calibration(args.calibration, kernel=kernel)
    if (args.trajectory is None) == (args.oxts is None):
        raise CliError("exactly one of --trajectory or --oxts is required")
    if args.trajectory is not None:
        return kernel, gain, read_csv(args.trajectory)
    layout = OxtsLayout(**_given(args, "yaw_column", "yaw_rate_column"))
    return kernel, gain, read_oxts(args.oxts, layout)


# -- subcommands --------------------------------------------------------

def cmd_synthesize(args):
    curve = TuningCurve(**_given(args, "a", "m", "n", "b"))
    kernel = build_kernel(curve, **_given(args, "lam", "gamma"))
    net = HDCNetwork(kernel)
    net.init_at(0.0)
    try:
        net.decode()
    except DegenerateActivityError as exc:
        raise CliError(f"the kernel cannot hold an activity bump ({exc}): {kernel}") from None
    save_kernel(kernel, args.out)
    w, wp = kernel.h_to_h, kernel.s_to_h
    print(f"kernel n={kernel.n} lambda={kernel.lam:g} gamma={kernel.gamma:g} "
          f"-> {args.out}")
    print(f"symmetry: even residual {np.max(np.abs(w[1:] - w[1:][::-1])):.3e}, "
          f"odd residual {np.max(np.abs(wp[1:] + wp[1:][::-1])):.3e}")
    print(f"hash: {kernel_hash(kernel)}")
    return EXIT_OK


def cmd_calibrate(args):
    if args.kernel is None:
        raise CliError("--kernel is required")
    kernel = load_kernel(args.kernel)
    options = _given(args, "duration")
    if args.stimuli is not None:
        try:
            options["stimuli"] = sorted(float(tok) for tok in args.stimuli.split(",")
                                        if tok.strip())
        except ValueError:
            raise CliError(f"cannot parse stimulus list {args.stimuli!r}") from None
    samples = sweep(kernel, **options)
    gain = fit_gain(samples, kernel=kernel)
    save_calibration(gain, args.out)
    if args.sweep_csv:
        with open(args.sweep_csv, "w", encoding="utf-8", newline="\n") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["stimulus", "velocity", "degenerate"])
            for s in samples:
                writer.writerow([f"{s.stimulus:.9g}", f"{s.velocity:.9g}",
                                 int(s.degenerate)])
    print(f"alpha={gain.alpha:.6f} fit_r2={gain.fit_r2:.6f} "
          f"max_velocity={math.degrees(gain.max_velocity):.1f} deg/s -> {args.out}")
    return EXIT_OK


def cmd_track(args):
    kernel, gain, trajectory = _load_replay(args)
    report = track(trajectory, kernel, gain, **_given(args, "initial_heading"))
    report.to_json(args.report)
    if args.samples:
        report.to_csv(args.samples)
    if report.mean_error_deg is None:
        print(f"tracked {len(report.t)} samples (no ground truth)")
    else:
        print(f"tracked {len(report.t)} samples: mean |error| "
              f"{report.mean_error_deg:.3f} deg, max {report.max_error_deg:.3f} deg")
    print(f"report -> {args.report}")
    return EXIT_OK


def cmd_bench(args):
    kernel, gain, trajectory = _load_replay(args)
    stats = benchmark(trajectory, kernel, gain, **_given(args, "repetitions"))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(vars(stats), fh, indent=1)
        fh.write("\n")
    print(f"frames={stats.frame_count} mean={stats.mean_ms:.3f} ms "
          f"median={stats.median_ms:.3f} ms max={stats.max_ms:.3f} ms "
          f"over-budget={stats.pct_over_10ms:.2f}%")
    print(f"reference: Raspberry Pi 3 mean {_PI_REFERENCE_MEAN_MS:.2f} ms "
          f"(this run: {stats.mean_ms / _PI_REFERENCE_MEAN_MS:.2f}x of reference)")
    return EXIT_OK


def cmd_generate(args):
    profile = SyntheticProfile(args.kind, args.omega_max, args.duration,
                               **_given(args, "frame_dt", "noise_sigma", "seed"))
    trajectory = generate(profile)
    write_csv(trajectory, args.out)
    print(f"{profile.kind}: {len(trajectory)} samples over "
          f"{trajectory.t[-1]:.2f} s -> {args.out}")
    return EXIT_OK


# -- argument parsing ---------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="hdcnav", fromfile_prefix_chars="@",
        description="Head-direction ring attractor: kernel synthesis, "
                    "calibration, trajectory replay, and benchmarking. "
                    "@FILE reads arguments from FILE, one per line "
                    "(e.g. --omega-max=0.25).")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synthesize", help="build and save a weight kernel")
    p.add_argument("--n", type=int)
    p.add_argument("--lam", "--lambda", dest="lam", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--a", type=float)
    p.add_argument("--b", type=float)
    p.add_argument("--m", type=float)
    p.add_argument("--out", default="kernel.json")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("calibrate", help="sweep stimuli and fit the gain")
    p.add_argument("--kernel")
    p.add_argument("--stimuli", help="comma-separated stimulus levels")
    p.add_argument("--duration", type=float)
    p.add_argument("--out", default="calibration.json")
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
    p.add_argument("--report", default="report.json")
    p.add_argument("--samples", help="per-sample CSV output path")
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("bench", parents=[replay],
                       help="latency benchmark over a trajectory")
    p.add_argument("--repetitions", type=int)
    p.add_argument("--out", default="bench.json")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("generate", help="write a synthetic trajectory CSV")
    p.add_argument("--kind", choices=["constant_rotation", "balanced_maze"],
                   default="constant_rotation")
    p.add_argument("--omega-max", dest="omega_max", type=float,
                   default=math.radians(20.0), help="peak angular velocity [rad/s]")
    p.add_argument("--duration", type=float, default=18.0)
    p.add_argument("--frame-dt", dest="frame_dt", type=float)
    p.add_argument("--noise-sigma", dest="noise_sigma", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", default="trajectory.csv")
    p.set_defaults(func=cmd_generate)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (CliError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
