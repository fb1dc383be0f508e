"""Seeded inputs, the three workloads and their metrics.

Every call into hdcnav goes through its public functions. Input
preparation (trajectory synthesis, kernel synthesis and the calibration
file the replays load) is not part of any timed region; the program sees
only the files written here.
"""

import contextlib
import gc
import io
import itertools
import math
import os
import resource
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from hdcnav import (DegenerateActivityError, GainFitError, HDCNetwork,
                    TurningStimulus, baseline_integrate, benchmark,
                    build_kernel, cli, euler_step, fit_gain, kernel_hash,
                    load_calibration, load_kernel, read_csv, save_calibration,
                    save_kernel, sweep, track, transfer)
from hdcnav.calibration import (DEFAULT_STIMULI, SWEEP_DURATION, SWEEP_FRAME_DT,
                                CalibrationMismatchError)

from tracing import Tracer

WORKLOADS = ("lap_100hz", "imu_1khz_jitter", "calibrate")

TWO_PI = 2.0 * math.pi

# lap_100hz: constant rotation on a regular 10 ms grid.
LAP_OMEGA = math.radians(20.0)
LAP_FRAME_DT = 0.01
LAP_COUNT = 3
LAP_ERROR_BOUND_DEG = 1.0      # paper: < 1 deg accumulated per lap

# imu_1khz_jitter: balanced turns, gyro noise, jittered 1 kHz timestamps.
IMU_OMEGA = math.radians(30.0)
IMU_SAMPLE_DT = 0.001
IMU_JITTER = 0.10              # each interval is off by up to +-10%
IMU_NOISE = math.radians(0.5)  # gyro noise sigma [rad/s]
IMU_DURATION = 30.0

FIT_R2_BOUND = 0.9999          # paper: sweep linear with R^2 > 0.9999
HEADING_AGREEMENT_RAD = 1e-6   # online path and track() replay the same frames
SETUP_ROUND_SECONDS = 0.25     # each round sets up for at least this long
SETUP_REPEATS = 5              # and each run at least this often
PROBE_CALLS = 2000
TAIL_BLOCK = 1000              # frames per block of the frame_ms_p95 median


@dataclass
class Run:
    """State of one benchmark run: samples, checks and the optional trace."""

    workdir: str
    trace: Tracer = None
    tracing: bool = False
    samples: dict = field(default_factory=lambda: defaultdict(list))
    checks: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0

    def call(self, name, fn, *args, **kwargs):
        if not self.tracing:
            return fn(*args, **kwargs)
        return self.trace.call(name, fn, *args, **kwargs)

    def check(self, name, ok, detail):
        """Record a check; one failing round fails it for the whole run."""
        previous = self.checks.get(name)
        if previous is None or previous["ok"]:
            self.checks[name] = {"ok": bool(ok), "detail": detail}

    def path(self, name):
        return os.path.join(self.workdir, name)


# -- inputs -------------------------------------------------------------

@dataclass
class Model:
    kernel_path: str
    calibration_path: str


@dataclass
class Trajectory:
    path: str
    truth: np.ndarray          # unwrapped heading [rad]
    initial_heading: float
    laps: int = None           # whole laps, for constant rotation


def calibrate_once(run, kernel):
    """sweep over DEFAULT_STIMULI and fit_gain; one calibrate_s sample."""
    start = time.perf_counter()
    samples = run.call("calibration.sweep", sweep, kernel)
    gain = run.call("calibration.fit_gain", fit_gain, samples, kernel=kernel)
    run.samples["calibrate_s"].append(time.perf_counter() - start)
    run.info["usable_level_frac"] = _usable_frac(samples)
    return samples, gain


def prepare_model(run):
    """Write the default kernel and its calibration, as `hdcnav` would."""
    kernel = run.call("kernel.build_kernel", build_kernel)
    save_kernel(kernel, run.path("kernel.json"))
    _, gain = calibrate_once(run, kernel)
    save_calibration(gain, run.path("calibration.json"))
    return Model(run.path("kernel.json"), run.path("calibration.json"))


def _write_trajectory(path, t, omega, initial_heading, laps=None):
    """Write a t,omega,truth CSV; truth is the trapezoid integral of omega.

    Values are written with repr, so the program reads back exactly the
    floats the truth was integrated from.
    """
    truth = initial_heading + np.concatenate(
        [[0.0], np.cumsum(np.diff(t) * (omega[1:] + omega[:-1]) / 2.0)])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,omega,truth\n")
        fh.writelines(f"{a!r},{b!r},{c!r}\n" for a, b, c in zip(
            t.tolist(), omega.tolist(), (truth % TWO_PI).tolist()))
    return Trajectory(path, truth, initial_heading, laps)


def lap_trajectory(path, rng, laps=LAP_COUNT):
    n = round(laps * TWO_PI / LAP_OMEGA / LAP_FRAME_DT)
    t = np.arange(n + 1) * LAP_FRAME_DT
    return _write_trajectory(path, t, np.full(n + 1, LAP_OMEGA),
                             float(rng.uniform(0.0, TWO_PI)), laps)


def _maze_omega(t, duration):
    """Balanced turn sequence sampled at ``t``.

    Pairs of opposite turns (90, 180, 45, 135 deg) separated by 1 s
    straights, as many whole pairs as fit in ``duration``, then straight.
    """
    segments, elapsed = [], 0.0
    for angle in itertools.cycle((90.0, 180.0, 45.0, 135.0)):
        turn = math.radians(angle) / IMU_OMEGA
        if elapsed + 2.0 + 2.0 * turn > duration:
            break
        segments += [(1.0, 0.0), (turn, IMU_OMEGA), (1.0, 0.0), (turn, -IMU_OMEGA)]
        elapsed += 2.0 + 2.0 * turn
    ends = np.cumsum([d for d, _ in segments])
    omega = np.append([w for _, w in segments], 0.0)
    return omega[np.searchsorted(ends, t, side="right")]


def imu_trajectory(path, rng):
    n = round(IMU_DURATION / IMU_SAMPLE_DT)
    intervals = IMU_SAMPLE_DT * (1.0 + rng.uniform(-IMU_JITTER, IMU_JITTER, n))
    t = np.concatenate([[0.0], np.cumsum(intervals)])
    omega = _maze_omega(t, IMU_DURATION) + rng.normal(0.0, IMU_NOISE, n + 1)
    return _write_trajectory(path, t, omega, float(rng.uniform(0.0, TWO_PI)))


# -- replay workloads ---------------------------------------------------

def setup_replay(run, model, traj):
    """Everything before the first frame; its wall time is one setup_s sample."""
    start = time.perf_counter()
    kernel = run.call("kernel.load_kernel", load_kernel, model.kernel_path)
    gain = run.call("calibration.load_calibration", load_calibration,
                    model.calibration_path, kernel=kernel)
    records = run.call("io.read_csv", read_csv, traj.path)
    net = run.call("network.construct", HDCNetwork, kernel)
    run.call("network.init_at", net.init_at, traj.initial_heading)
    run.samples["setup_s"].append(time.perf_counter() - start)
    return kernel, gain, records, net


def _online(net, gain, records, headings, frame_s):
    """The online path, timed per frame: one gyro sample in, one heading out."""
    perf = time.perf_counter
    for k in range(1, len(records)):
        rec = records[k]
        frame_dt = rec.t - records[k - 1].t
        start = perf()
        level = gain.stimulus_for(rec.omega)
        stim = (TurningStimulus(left=level, right=0.0) if rec.omega >= 0.0
                else TurningStimulus(left=0.0, right=level))
        net.run_frame(stim, frame_dt)
        heading = net.decode()
        frame_s.append(perf() - start)
        headings[k] = heading


def _online_traced(net, gain, records, headings, tracer):
    """Same frames as _online, with spans in place of the frame timer."""
    for k in range(1, len(records)):
        rec = records[k]
        frame_dt = rec.t - records[k - 1].t
        tracer.begin("replay.frame")
        level = gain.stimulus_for(rec.omega)
        stim = (TurningStimulus(left=level, right=0.0) if rec.omega >= 0.0
                else TurningStimulus(left=0.0, right=level))
        tracer.begin("network.run_frame")
        net.run_frame(stim, frame_dt)
        tracer.end()
        tracer.begin("network.decode")
        heading = net.decode()
        tracer.end()
        tracer.end()
        headings[k] = heading


def _write_report(report, run):
    report.to_json(run.path("report.json"))
    report.to_csv(run.path("samples.csv"))


def _wrapped_deg(a, b):
    """|a - b| wrapped to [0, 180] degrees, elementwise."""
    return np.degrees(np.abs((np.asarray(a) - np.asarray(b) + math.pi) % TWO_PI - math.pi))


def _headings_ok(headings, n):
    h = np.asarray(headings, dtype=float)
    return len(h) == n and bool(np.all(np.isfinite(h) & (h >= 0.0) & (h < TWO_PI)))


def _repeat_setup(setup):
    """Set up for at least SETUP_ROUND_SECONDS; the last set-up is used."""
    end = time.perf_counter() + SETUP_ROUND_SECONDS
    result = setup()
    while time.perf_counter() < end:
        result = setup()
    return result


def replay_round(run, model, traj):
    """Set up, replay online frame by frame, then run the offline track job."""
    gc.collect()
    kernel, gain, records, net = _repeat_setup(lambda: setup_replay(run, model, traj))
    n = len(records)
    online = np.full(n, np.nan)
    depth = run.trace.depth() if run.tracing else 0
    try:
        online[0] = run.call("network.decode", net.decode)
        if run.tracing:
            _online_traced(net, gain, records, online, run.trace)
        else:
            _online(net, gain, records, online, run.samples["frame_s"])
    except DegenerateActivityError:
        if run.tracing:
            run.trace.unwind(depth)
    run.attempted += n
    run.failed += int(np.isnan(online).sum())

    job_start = time.perf_counter()
    try:
        report = run.call("tracker.track", track, records, kernel, gain,
                          initial_heading=traj.initial_heading)
        track_s = time.perf_counter() - job_start
        run.call("tracker.report_write", _write_report, report, run)
    except DegenerateActivityError:
        report = None   # track keeps no partial report: every frame failed
    job_s = time.perf_counter() - job_start
    run.attempted += n
    run.info.setdefault("frames_per_round", 2 * (n - 1))
    run.info["rows_read"] = n

    run.check("replay: one finite heading in [0, 2pi) per sample (online)",
              _headings_ok(online, n), f"{n} samples")
    if report is None:
        run.failed += n
        run.check("replay: track() completes", False, "DegenerateActivityError")
        return
    decoded = np.array([s.decoded_heading for s in report.per_sample])
    run.check("replay: one finite heading in [0, 2pi) per sample (track)",
              _headings_ok(decoded, n), f"{len(decoded)} of {n} samples")
    if len(decoded) != n:
        return
    agreement = float(np.max(_wrapped_deg(online, decoded)))
    run.check("replay: online path and track() decode the same headings",
              agreement <= math.degrees(HEADING_AGREEMENT_RAD),
              f"max difference {agreement:.3g} deg")

    # track() minus the run_frame + decode time it records itself, per frame.
    timing = report.timing
    in_frames_s = timing.mean_ms * timing.frame_count / 1e3
    run.samples["track_overhead_us_per_frame"].append(
        (track_s - in_frames_s) / timing.frame_count * 1e6)
    run.samples["track_frame_share"].append(in_frames_s / track_s)

    errors = _wrapped_deg(decoded, traj.truth)
    run.samples["job_frames"].append(n - 1)
    run.samples["job_s"].append(job_s)
    run.samples["mean_error_deg"].append(float(errors.mean()))
    run.samples["max_error_deg"].append(float(errors.max()))
    run.samples["fit_r2"].append(gain.fit_r2)
    if traj.laps:
        unwrapped = np.unwrap(decoded)
        accumulated = math.degrees((unwrapped[-1] - unwrapped[0])
                                   - (traj.truth[-1] - traj.truth[0]))
        per_lap = abs(accumulated) / traj.laps
        run.info["error_per_lap_deg"] = per_lap
        run.check(f"constant rotation: accumulated error per lap < {LAP_ERROR_BOUND_DEG} deg",
                  per_lap < LAP_ERROR_BOUND_DEG, f"{per_lap:.4f} deg/lap over {traj.laps} laps")


# -- calibrate workload ---------------------------------------------------

def _usable_frac(samples):
    return sum(not s.degenerate for s in samples) / len(samples)


def calibrate_setup(run):
    start = time.perf_counter()
    kernel = run.call("kernel.build_kernel", build_kernel)
    run.samples["setup_s"].append(time.perf_counter() - start)
    return kernel


def calibrate_round(run, model):
    """build_kernel, then sweep over DEFAULT_STIMULI and fit_gain."""
    gc.collect()
    kernel = _repeat_setup(lambda: calibrate_setup(run))
    levels = len(DEFAULT_STIMULI)
    run.attempted += levels
    try:
        samples, gain = calibrate_once(run, kernel)
    except GainFitError as exc:
        run.failed += levels
        run.check("calibrate: fit_gain accepts the sweep", False, str(exc))
        return
    calibrate_s = run.samples["calibrate_s"][-1]
    degenerate = sum(s.degenerate for s in samples)
    run.failed += degenerate
    frames = levels * round(SWEEP_DURATION / SWEEP_FRAME_DT)
    run.info["frames_per_round"] = frames
    run.samples["frame_s"].append(calibrate_s / frames)
    run.samples["job_frames"].append(frames)
    run.samples["job_s"].append(calibrate_s)

    run.check("calibrate: no degenerate sweep level", degenerate == 0,
              f"{degenerate} of {levels} levels degenerate")
    run.samples["fit_r2"].append(gain.fit_r2)
    run.check(f"calibrate: fit_r2 > {FIT_R2_BOUND}", gain.fit_r2 > FIT_R2_BOUND,
              f"R^2 = {gain.fit_r2:.8f}")
    try:
        loaded = run.call("calibration.load_calibration", load_calibration,
                          model.calibration_path, kernel=kernel)
        rel = abs(gain.alpha - loaded.alpha) / abs(loaded.alpha)
        run.check("calibrate: gain matches the calibration the replays load",
                  rel <= 1e-9, f"alpha {gain.alpha:.9g} vs {loaded.alpha:.9g}")
    except CalibrationMismatchError as exc:
        run.check("calibrate: gain matches the calibration the replays load",
                  False, str(exc))

    # Heading error the fitted law leaves per 360 deg lap at each level.
    usable = [s for s in samples if not s.degenerate]
    per_lap = [360.0 * abs(s.velocity * gain.alpha / s.stimulus - 1.0) for s in usable]
    run.samples["mean_error_deg"].append(float(np.mean(per_lap)))
    run.samples["max_error_deg"].append(float(np.max(per_lap)))


# -- probes and metrics ---------------------------------------------------

def probe_layers(run, model, traj):
    """Traced probes of single public functions, outside any frame path."""
    tr = run.trace
    kernel = load_kernel(model.kernel_path)
    gain = load_calibration(model.calibration_path, kernel=kernel)
    for _ in range(20):
        tr.call("kernel.kernel_hash", kernel_hash, kernel)

    net = HDCNetwork(kernel)
    net.init_at(traj.initial_heading)
    stim = TurningStimulus(left=gain.stimulus_for(LAP_OMEGA), right=0.0)
    for _ in range(PROBE_CALLS):
        tr.call("network.step", net.step, stim)

    # 3n-vectors, the shape the network integrates.
    rng = np.random.default_rng(0)
    rates = rng.uniform(0.0, net.params.r_max, 3 * kernel.n)
    inputs = rng.normal(net.params.h0, 2.0, 3 * kernel.n)
    for _ in range(PROBE_CALLS):
        tr.call("neuron.transfer", transfer, inputs, net.params)
    for _ in range(PROBE_CALLS):
        tr.call("neuron.euler_step", euler_step, rates, inputs, net.dt, net.params)

    records = read_csv(traj.path)
    for _ in range(5):
        tr.call("tracker.baseline_integrate", baseline_integrate, records,
                traj.initial_heading)

    argv = ["track", "--kernel", model.kernel_path,
            "--calibration", model.calibration_path,
            "--trajectory", traj.path,
            "--initial-heading", repr(traj.initial_heading),
            "--report", run.path("cli_report.json"),
            "--samples", run.path("cli_samples.csv")]
    with contextlib.redirect_stdout(io.StringIO()):
        code = tr.call("cli.track", cli.main, argv)
    run.check("cli: `hdcnav track` exits 0", code == 0, f"exit code {code}")


def cross_check_bench(run, model, traj, frame_s):
    """Compare this benchmark's frame with what `hdcnav bench` times.

    tracker.benchmark() times run_frame + decode inside track(); the frame
    here also covers stimulus_for and TurningStimulus. It replays the same
    trajectory right after the frames in ``frame_s``, so both see the
    machine in about the same state.
    """
    kernel = load_kernel(model.kernel_path)
    gain = load_calibration(model.calibration_path, kernel=kernel)
    stats = benchmark(read_csv(traj.path), kernel, gain)
    run.info["tracker_benchmark_median_ms"] = stats.median_ms
    run.samples["bench_ratio"].append(_median(frame_s) * 1e3 / stats.median_ms)


def _median(values):
    return float(np.median(values)) if len(values) else float("nan")


def _block_p95(values):
    """Median over consecutive TAIL_BLOCK-frame blocks of each block's p95.

    Each block has 50 frames beyond its p95; the median keeps a burst of
    interference in one block from setting the run's figure. Fewer values
    than one block give their plain p95.
    """
    blocks = len(values) // TAIL_BLOCK
    if blocks == 0:
        return float(np.percentile(values, 95))
    per_block = np.percentile(values[:blocks * TAIL_BLOCK].reshape(blocks, TAIL_BLOCK), 95, axis=1)
    return float(np.median(per_block))


def end_to_end_metrics(run):
    """(value, unit, sample count) of every end-to-end metric."""
    s = run.samples
    frame_ms = np.asarray(s["frame_s"]) * 1e3
    # Reported, not gated: on a shared host it spreads more than any bound.
    run.info["frame_ms_p99"] = float(np.percentile(frame_ms, 99))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (_median(s["setup_s"]), "s", len(s["setup_s"])),
        "frame_ms_p50": (float(np.percentile(frame_ms, 50)), "ms", len(frame_ms)),
        "frame_ms_p95": (_block_p95(frame_ms), "ms", len(frame_ms)),
        "replay_frames_per_s": (sum(s["job_frames"]) / sum(s["job_s"]), "frames/s",
                                len(s["job_s"])),
        "mean_error_deg": (_median(s["mean_error_deg"]), "deg", len(s["mean_error_deg"])),
        "max_error_deg": (_median(s["max_error_deg"]), "deg", len(s["max_error_deg"])),
        "calibrate_s": (_median(s["calibrate_s"]), "s", len(s["calibrate_s"])),
        "fit_r2": (_median(s["fit_r2"]), "ratio", len(s["fit_r2"])),
        "peak_rss_mb": (rss_mb, "MB", 1),
    }


def layer_metrics(run):
    """(value, unit, sample count) of every per-layer metric, from the trace."""
    by_name = run.trace.self_times_by_name()

    def p50(name, scale, unit):
        ns = by_name.get(name, np.zeros(0))
        return (_median(ns) / scale, unit, len(ns))

    overhead = run.samples["trace_overhead_s"]
    bookkeeping = run.samples["track_overhead_us_per_frame"]
    return {
        "network.run_frame_us.p50": p50("network.run_frame", 1e3, "us"),
        "network.step_us.p50": p50("network.step", 1e3, "us"),
        "network.decode_us.p50": p50("network.decode", 1e3, "us"),
        "network.init_at_ms": p50("network.init_at", 1e6, "ms"),
        "network.construct_ms": p50("network.construct", 1e6, "ms"),
        "network.frames": (run.info["frames_per_round"], "count", 1),
        "neuron.transfer_us.p50": p50("neuron.transfer", 1e3, "us"),
        "neuron.euler_step_us.p50": p50("neuron.euler_step", 1e3, "us"),
        "tracker.track_s": p50("tracker.track", 1e9, "s"),
        "tracker.baseline_integrate_ms": p50("tracker.baseline_integrate", 1e6, "ms"),
        "tracker.report_write_s": p50("tracker.report_write", 1e9, "s"),
        "tracker.overhead_us_per_frame": (_median(bookkeeping), "us", len(bookkeeping)),
        "io.read_csv_s": p50("io.read_csv", 1e9, "s"),
        "io.rows_read": (run.info["rows_read"], "count", 1),
        "kernel.build_kernel_ms": p50("kernel.build_kernel", 1e6, "ms"),
        "kernel.load_kernel_ms": p50("kernel.load_kernel", 1e6, "ms"),
        "kernel.kernel_hash_ms": p50("kernel.kernel_hash", 1e6, "ms"),
        "calibration.sweep_s": p50("calibration.sweep", 1e9, "s"),
        "calibration.fit_gain_ms": p50("calibration.fit_gain", 1e6, "ms"),
        "calibration.load_calibration_ms": p50("calibration.load_calibration", 1e6, "ms"),
        "calibration.usable_level_frac": (run.info["usable_level_frac"], "ratio", 1),
        "cli.track_s": p50("cli.track", 1e9, "s"),
        "trace.overhead_s": (_median(overhead), "s", len(overhead)),
    }


def layer_shares(run):
    """Self-time shares that size the workloads (reported, not gated)."""
    by_name = run.trace.self_times_by_name()
    total = {name: float(ns.sum()) for name, ns in by_name.items()}
    frame = (total.get("replay.frame", 0.0) + total.get("network.run_frame", 0.0)
             + total.get("network.decode", 0.0))
    shares = {}
    if frame:
        shares["run_frame_of_frame"] = total.get("network.run_frame", 0.0) / frame
        shares["decode_of_frame"] = total.get("network.decode", 0.0) / frame
    if run.samples["track_frame_share"]:
        shares["bookkeeping_of_track"] = 1.0 - _median(run.samples["track_frame_share"])
    return shares


# -- one run --------------------------------------------------------------

def run_workload(name, seed, seconds, traced, workdir, run_id):
    """Prepare inputs, run closed-loop rounds for ``seconds``, return the Run."""
    run = Run(workdir, trace=Tracer(run_id) if traced else None, tracing=traced)
    rng = np.random.default_rng(seed)
    model = prepare_model(run)   # traced in the traced run
    replay = name != "calibrate"

    if name == "calibrate":
        # The seed selects nothing: the default kernel and stimuli are fixed.
        traj = lap_trajectory(run.path("probe.csv"), rng, laps=1)

        def one_round():
            calibrate_round(run, model)

        def one_setup():
            calibrate_setup(run)
    else:
        # calibrate_s of a replay: its input calibration, and two more made
        # halfway through and after the rounds, so the median spans the run.
        calibrate_kernel = load_kernel(model.kernel_path)
        if name == "lap_100hz":
            traj = lap_trajectory(run.path("lap.csv"), rng)
        else:
            traj = imu_trajectory(run.path("imu.csv"), rng)

        def one_round():
            replay_round(run, model, traj)

        def one_setup():
            setup_replay(run, model, traj)

    run.tracing = False
    deadline = time.perf_counter() + seconds
    halfway = deadline - seconds / 2
    rounds, last = 0, 0.0
    # Start a round only if it is expected to end by about the deadline.
    while rounds == 0 or time.perf_counter() + last / 2 < deadline:
        start = time.perf_counter()
        first_frame = len(run.samples["frame_s"])
        one_round()
        if traced:
            # Each untraced round is paired with a traced one on the same
            # inputs; the difference of their wall times is the overhead.
            untraced_s = time.perf_counter() - start
            if name == "lap_100hz":
                cross_check_bench(run, model, traj, run.samples["frame_s"][first_frame:])
            middle = time.perf_counter()
            run.tracing = True
            one_round()
            run.tracing = False
            run.samples["trace_overhead_s"].append(
                (time.perf_counter() - middle) - untraced_s)
        last = time.perf_counter() - start
        rounds += 1
        if replay and not traced and start < halfway <= time.perf_counter():
            calibrate_once(run, calibrate_kernel)
    run.info["rounds"] = rounds
    if not traced:
        if replay:
            calibrate_once(run, calibrate_kernel)
        while len(run.samples["setup_s"]) < SETUP_REPEATS:
            one_setup()
        return run

    if name == "lap_100hz":
        run.info["frame_ms_p50_over_tracker_benchmark"] = _median(run.samples["bench_ratio"])
    run.tracing = True
    if name == "calibrate":
        # Layers off the calibration path are measured on a 1-lap 100 Hz
        # probe replay; calibrate changes should not move them.
        replay_round(run, model, traj)
    probe_layers(run, model, traj)
    run.tracing = False
    return run
