"""hdcnav benchmark: heading from a gyro trace, within a per-frame budget.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload lap_100hz --seed 1 --seconds 30 --trace 0

``--workload all`` runs the three workloads one after another, each in a
process of its own.

The benchmark imports the package from the checkout's ``src/`` and refuses
to run without it. Each run is one process on one thread: BLAS is pinned
to one thread here, before numpy loads, and the run stops if the pin is
not in effect. Inputs are made from ``--seed`` and written to files that
the program reads; making them is not timed. Each workload is a closed
loop, one replay or sweep at a time, repeated for ``--seconds``.

Workloads, and why each is here. Layer shares are self-time shares from
the first traced baselines (seed 7, 30 s) on a 2-core x86-64 KVM guest
(Xeon, OpenBLAS 0.3.31 on one thread, Python 3.11, numpy 2.4):

lap_100hz
    Constant rotation at 20 deg/s on a regular 10 ms grid, 3 laps, read
    from CSV and replayed. The paper's headline case. Each frame is 20
    Euler steps, so it is step-dominated: run_frame is 93-95% of a frame,
    decode 4-5%, and track() spends 4% of its time outside its frames. A
    faster Euler step or matvec shows here; decode and report changes
    should not. Checked: accumulated error < 1 deg per lap.
imu_1khz_jitter
    A balanced turn sequence at +-30 deg/s, seeded gyro noise, 1 kHz
    samples with seeded +-10% interval jitter, so timestamps fall off the
    0.5 ms Euler grid as in real IMU logs; truth is the trapezoid
    integral of the written samples. Each frame is 2-3 steps, so decode
    (20-22% of a frame; run_frame 72-74%), track()'s per-frame bookkeeping
    (11-12% of track()), read_csv (~0.15 s for 30k rows) and the report
    writers become visible. Its error shows the frame-timing defect
    (run_frame over-integrates off-grid intervals) and is reported as
    measured, not gated.
calibrate
    build_kernel, then sweep over DEFAULT_STIMULI (8 independent
    networks) and fit_gain. The only workload in the calibration module
    and the only one with many independent networks, so batching shows
    here and should leave both replays unchanged. Checked: R^2 > 0.9999
    and the same gain as the calibration file the replays load.

End-to-end metrics (``--trace 0``; every metric on every workload):

setup_s              median of the run's set-ups; each round sets up for at
                     least 0.25 s (the last set-up is used), each run at
                     least 5 times. Replays: load_kernel + load_calibration
                     (kernel-hash check) + read_csv + HDCNetwork() +
                     init_at. calibrate: build_kernel.
frame_ms_p50, _p95   replays: per frame, stimulus_for + TurningStimulus +
                     run_frame + decode. p50 over every frame of the run;
                     p95 as the median over blocks of 1000 frames of each
                     block's p95. calibrate: sweep wall time per sweep frame
                     (10 ms of simulated time), one value per sweep. The
                     plain p99 is printed and stored too, but not gated:
                     on a shared 2-core host its run-to-run spread exceeds
                     the largest bound the benchmark may set.
replay_frames_per_s  replays: frames / wall time of track() + to_json +
                     to_csv, summed over the run. calibrate: sweep frames /
                     calibrate_s, summed over the run.
mean_error_deg,      replays: wrapped |decoded - truth| over every sample
max_error_deg        of the track() report, computed here. calibrate: the
                     heading error per 360 deg lap that the fitted law
                     leaves at each sweep level.
calibrate_s          median of sweep + fit_gain. calibrate: every sweep of
                     the run. Replays: the calibration made for their
                     inputs and two more, halfway through and at the end.
fit_r2               R^2 of the fitted (calibrate) or loaded (replays) gain.
peak_rss_mb          peak resident memory of the run's process.

Failed items over attempted (frames, or sweep levels) are the result's
``failed`` and ``attempted``; ``failed_frac`` is printed and stored with
the result but is not a metric, as it is 0 on a correct run.

``--trace 1`` runs untraced and traced rounds in pairs on the same inputs,
records spans from this benchmark's own code around each call into a
public hdcnav function, then probes single functions (HDCNetwork.step,
neuron.transfer and euler_step on 3n vectors, kernel_hash,
baseline_integrate, and ``hdcnav track`` in process). It reports per-layer
self times and the tracing overhead (traced minus untraced round wall
time). On calibrate, layers off the calibration path are measured on a
1-lap 100 Hz probe replay.

Each run writes ``perfbench/out/<run id>/result.json`` (metrics with
sample counts, checks, machine facts) and, when traced, ``spans.csv.gz``.
The last line of standard output is the run's result as one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

import os
import sys

# One process, one thread: pin BLAS before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import platform
import subprocess

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

EXIT_FAILED_CHECK = 1
EXIT_NO_PROGRAM = 2
EXIT_BLAS_NOT_PINNED = 3

KEEP_FILES = ("result.json", "spans.csv.gz")


def _openblas_threads():
    """Thread count reported by the OpenBLAS this process loaded, or None."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts(np):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _openblas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    if not os.path.isfile(os.path.join(SRC, "hdcnav", "__init__.py")):
        print(f"error: no hdcnav sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return EXIT_NO_PROGRAM
    sys.path.insert(0, SRC)
    import numpy as np
    import hdcnav
    if not os.path.abspath(hdcnav.__file__).startswith(SRC + os.sep):
        print(f"error: imported hdcnav from {hdcnav.__file__}, not {SRC}",
              file=sys.stderr)
        return EXIT_NO_PROGRAM
    import workloads

    args = parse_args(argv, workloads.WORKLOADS + ("all",))
    if args.workload == "all":
        # One process per workload, one after another.
        codes = [subprocess.run([sys.executable, os.path.abspath(__file__),
                                 "--workload", name, "--seed", str(args.seed),
                                 "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for name in workloads.WORKLOADS]
        return max(codes)
    facts = machine_facts(np)
    if facts["blas_threads"] != 1:
        print(f"error: BLAS thread pin not in effect ({facts['blas_threads']} threads)",
              file=sys.stderr)
        return EXIT_BLAS_NOT_PINNED

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir = os.path.join(HERE, "out", run_id)
    os.makedirs(workdir)
    try:
        run = workloads.run_workload(args.workload, args.seed, args.seconds,
                                     bool(args.trace), workdir, run_id)
        if args.trace:
            metrics = workloads.layer_metrics(run)
            run.info["shares"] = workloads.layer_shares(run)
            run.trace.write(os.path.join(workdir, "spans.csv.gz"))
        else:
            metrics = workloads.end_to_end_metrics(run)
    finally:
        for name in os.listdir(workdir):
            if name not in KEEP_FILES:
                os.remove(os.path.join(workdir, name))

    correct = all(c["ok"] for c in run.checks.values()) and run.failed == 0
    failed_frac = run.failed / max(run.attempted, 1)
    result = {
        "run_id": run_id, "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "machine": facts,
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "failed_frac": failed_frac, "checks": run.checks, "info": run.info,
        "metrics": {k: {"value": v, "unit": u, "samples": n}
                    for k, (v, u, n) in metrics.items()},
    }
    if args.trace:
        result["spans"] = run.trace.summary()
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")

    print("machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{run.info['rounds']} rounds, {run.attempted} items attempted, "
          f"{run.failed} failed (failed_frac {failed_frac:.4g})")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit:9s} (n={n})")
    for key, value in run.info.items():
        if key != "rounds":
            print(f"  info {key}: {value}")
    for name, c in run.checks.items():
        print(f"  check {'ok  ' if c['ok'] else 'FAIL'} {name}: {c['detail']}")
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0 if correct else EXIT_FAILED_CHECK


if __name__ == "__main__":
    sys.exit(main())
