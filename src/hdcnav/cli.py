"""Command-line entry point.

Subcommands: synthesize, calibrate, track, bench, generate. Arguments
can also come from a file named as ``@FILE``, one argument per line;
argparse inserts them where the file is named, so a later flag overrides
them. argparse checks the arguments: which are required, which exclude
each other, and that each value parses. The library checks the values
and holds every default but the output paths: only the options that are
set reach it, through ``**_given(...)``. The CLI's one check of its own
is synthesize's refusal of a kernel that holds no bump. A subcommand
returns its summary, printed once its files are written. Exit codes: 0
success (also when standard output closes early, as in ``| head``), 1
validation/invariant failure, 2 I/O or usage error.
"""

import argparse
import math
import os
import sys

import numpy as np

from . import __version__
from .calibration import fit_gain, load_calibration, save_calibration, sweep
from .kernel import TuningCurve, build_kernel, kernel_hash, load_kernel, save_kernel
from .network import DegenerateActivityError, HDCNetwork
from .io import (SyntheticProfile, generate, read_csv, read_oxts, write_csv,
                 write_json, write_table)
from .tracker import benchmark, track

# Table-stakes reference for the latency report: mean per-frame compute
# time measured on a Raspberry Pi 3 in the original evaluation.
_PI_REFERENCE_MEAN_MS = 7.70

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_IO = 2


def _given(args, *names):
    """The named options that are set, as keyword arguments."""
    return {name: getattr(args, name) for name in names
            if getattr(args, name) is not None}


def _load_replay(args):
    """The kernel, calibration and trajectory that track and bench replay."""
    kernel = load_kernel(args.kernel)
    gain = load_calibration(args.calibration, kernel=kernel)
    if args.trajectory is not None:
        return kernel, gain, read_csv(args.trajectory)
    return kernel, gain, read_oxts(args.oxts,
                                   **_given(args, "yaw_column", "yaw_rate_column"))


def _stimulus_levels(text):
    """A comma-separated list of stimulus levels, in ascending order."""
    try:
        return sorted(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse stimulus list {text!r}") from None


# -- subcommands --------------------------------------------------------

def cmd_synthesize(args):
    curve = TuningCurve(**_given(args, "a", "m", "n", "b"))
    kernel = build_kernel(curve, **_given(args, "lam", "gamma"))
    net = HDCNetwork(kernel)
    net.init_at(0.0)
    try:
        net.decode()
    except DegenerateActivityError as exc:
        raise ValueError(f"the kernel cannot hold an activity bump ({exc}): {kernel}") from None
    save_kernel(kernel, args.out)
    w, wp = kernel.h_to_h, kernel.s_to_h
    return (f"kernel n={kernel.n} lambda={kernel.lam:g} gamma={kernel.gamma:g} -> {args.out}\n"
            f"symmetry: even residual {np.max(np.abs(w[1:] - w[1:][::-1])):.3e}, "
            f"odd residual {np.max(np.abs(wp[1:] + wp[1:][::-1])):.3e}\n"
            f"hash: {kernel_hash(kernel)}")


def cmd_calibrate(args):
    kernel = load_kernel(args.kernel)
    samples = sweep(kernel, **_given(args, "stimuli"))
    gain = fit_gain(samples, kernel=kernel)
    save_calibration(gain, args.out)
    if args.sweep_csv:
        write_table(args.sweep_csv, ("stimulus", "velocity", "degenerate"),
                    ([s.stimulus for s in samples], [s.velocity for s in samples],
                     [s.degenerate for s in samples]),
                    ("{:.9g}", "{:.9g}", "{:g}"))
    return (f"alpha={gain.alpha:.6f} fit_r2={gain.fit_r2:.6f} "
            f"max_velocity={math.degrees(gain.max_velocity):.1f} deg/s -> {args.out}")


def cmd_track(args):
    kernel, gain, trajectory = _load_replay(args)
    report = track(trajectory, kernel, gain, **_given(args, "initial_heading"))
    report.to_json(args.report)
    if args.samples:
        report.to_csv(args.samples)
    errors = (" (no ground truth)" if report.mean_error_deg is None else
              f": mean |error| {report.mean_error_deg:.3f} deg, "
              f"max {report.max_error_deg:.3f} deg")
    return f"tracked {len(report.t)} samples{errors}\nreport -> {args.report}"


def cmd_bench(args):
    kernel, gain, trajectory = _load_replay(args)
    stats = benchmark(trajectory, kernel, gain, **_given(args, "repetitions"))
    write_json(vars(stats), args.out)
    return (f"frames={stats.frame_count} mean={stats.mean_ms:.3f} ms "
            f"median={stats.median_ms:.3f} ms max={stats.max_ms:.3f} ms "
            f"over-budget={stats.pct_over_10ms:.2f}%\n"
            f"reference: Raspberry Pi 3 mean {_PI_REFERENCE_MEAN_MS:.2f} ms "
            f"(this run: {stats.mean_ms / _PI_REFERENCE_MEAN_MS:.2f}x of reference)")


def cmd_generate(args):
    profile = SyntheticProfile(**_given(args, "kind", "omega_max", "duration",
                                        "frame_dt", "noise_sigma", "seed"))
    trajectory = generate(profile)
    write_csv(trajectory, args.out)
    return (f"{profile.kind}: {len(trajectory)} samples over "
            f"{trajectory.t[-1]:.2f} s -> {args.out}")


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
    p.add_argument("--kernel", required=True)
    p.add_argument("--stimuli", type=_stimulus_levels,
                   help="comma-separated stimulus levels")
    p.add_argument("--out", default="calibration.json")
    p.add_argument("--sweep-csv", dest="sweep_csv")
    p.set_defaults(func=cmd_calibrate)

    replay = argparse.ArgumentParser(add_help=False)
    replay.add_argument("--kernel", required=True)
    replay.add_argument("--calibration", required=True)
    source = replay.add_mutually_exclusive_group(required=True)
    source.add_argument("--trajectory", help="CSV trajectory (t,omega[,truth])")
    source.add_argument("--oxts", help="oxts-style directory instead of CSV")
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
    p.add_argument("--kind", choices=["constant_rotation", "balanced_maze"])
    p.add_argument("--omega-max", dest="omega_max", type=float,
                   help="peak angular velocity [rad/s]")
    p.add_argument("--duration", type=float)
    p.add_argument("--frame-dt", dest="frame_dt", type=float)
    p.add_argument("--noise-sigma", dest="noise_sigma", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", default="trajectory.csv")
    p.set_defaults(func=cmd_generate)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        summary = args.func(args)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO if isinstance(exc, OSError) else EXIT_INVALID
    try:
        print(summary, flush=True)
    except BrokenPipeError:
        # Standard output closed early (`| head`) after the files were written.
        # Point it at /dev/null so the flush at interpreter exit cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
