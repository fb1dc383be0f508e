import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hdcnav
from hdcnav.cli import main
from hdcnav.io import SyntheticProfile, generate, read_csv, write_csv
from hdcnav.kernel import build_kernel, kernel_hash, load_kernel
from hdcnav.calibration import save_calibration


@pytest.fixture(scope="module")
def kernel_file(tmp_path_factory, kernel):
    from hdcnav.kernel import save_kernel
    path = tmp_path_factory.mktemp("cli") / "kernel.json"
    save_kernel(kernel, path)
    return str(path)


@pytest.fixture(scope="module")
def calibration_file(tmp_path_factory, gain):
    path = tmp_path_factory.mktemp("cli") / "calibration.json"
    save_calibration(gain, path)
    return str(path)


@pytest.fixture(scope="module")
def trajectory_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "trajectory.csv"
    write_csv(generate(SyntheticProfile("balanced_maze", 0.5, 1.0)), path)
    return str(path)


def test_synthesize_defaults(tmp_path, capsys):
    out = tmp_path / "kernel.json"
    assert main(["synthesize", "--out", str(out)]) == 0
    kernel = load_kernel(out)
    assert kernel.n == 100
    assert kernel.lam == 25824.0
    assert "symmetry" in capsys.readouterr().out


def test_synthesize_refuses_kernel_without_bump(tmp_path, capsys):
    # The tuning curve is in range, but no bump settles on its kernel.
    out = tmp_path / "kernel.json"
    assert main(["synthesize", "--m", "50", "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert "cannot hold an activity bump" in err and "m=50" in err


def test_synthesize_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["synthesize", "--out", str(a)]) == 0
    assert main(["synthesize", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_synthesize_zero_gamma(tmp_path):
    out = tmp_path / "kernel.json"
    assert main(["synthesize", "--gamma", "0", "--out", str(out)]) == 0
    kernel = load_kernel(out)
    assert np.all(kernel.s_to_h == 0.0)


def test_generate_track_end_to_end(tmp_path, kernel_file, calibration_file):
    traj = tmp_path / "traj.csv"
    assert main(["generate", "--kind", "constant_rotation",
                 "--omega-max", str(math.radians(20)),
                 "--duration", "3", "--out", str(traj)]) == 0
    report = tmp_path / "report.json"
    samples = tmp_path / "samples.csv"
    assert main(["track", "--kernel", kernel_file,
                 "--calibration", calibration_file,
                 "--trajectory", str(traj),
                 "--report", str(report), "--samples", str(samples)]) == 0
    doc = json.loads(report.read_text())
    assert doc["samples"] == 301
    assert doc["mean_error_deg"] < 2.0
    assert samples.read_text().startswith("t,omega,decoded,baseline,truth")


def test_track_without_truth_column(tmp_path, kernel_file, calibration_file):
    traj = tmp_path / "traj.csv"
    traj.write_text("t,omega\n" + "".join(
        f"{0.01 * i},0.1\n" for i in range(30)))
    report = tmp_path / "report.json"
    assert main(["track", "--kernel", kernel_file,
                 "--calibration", calibration_file,
                 "--trajectory", str(traj), "--report", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert doc["mean_error_deg"] is None


def test_calibrate_custom_stimuli(tmp_path, kernel_file):
    out = tmp_path / "calib.json"
    table = tmp_path / "sweep.csv"
    assert main(["calibrate", "--kernel", kernel_file,
                 "--stimuli", "0.02,0.03,0.04,0.05,0.06",
                 "--duration", "2",
                 "--out", str(out), "--sweep-csv", str(table)]) == 0
    doc = json.loads(out.read_text())
    assert doc["fit_r2"] >= 0.99
    rows = table.read_text().splitlines()
    assert rows[0] == "stimulus,velocity,degenerate"
    assert [float(r.split(",")[0]) for r in rows[1:]] == \
        pytest.approx([0.02, 0.03, 0.04, 0.05, 0.06])


def test_calibrate_refuses_a_repeated_level(tmp_path, kernel_file, capsys):
    out = tmp_path / "calib.json"
    assert main(["calibrate", "--kernel", kernel_file,
                 "--stimuli", "0.02,0.02,0.02,0.04,0.04", "--out", str(out)]) == 1
    assert "a level is repeated or out of order" in capsys.readouterr().err
    assert not out.exists()


def test_calibrate_sweep_csv_blanks_a_collapsed_level(tmp_path, kernel_file):
    # The bump collapses at 2.0: its velocity is NaN, written as a blank cell.
    table = tmp_path / "sweep.csv"
    assert main(["calibrate", "--kernel", kernel_file,
                 "--stimuli", "0.02,0.03,0.04,0.05,0.06,2.0", "--duration", "2",
                 "--out", str(tmp_path / "calib.json"), "--sweep-csv", str(table)]) == 0
    rows = table.read_text().splitlines()
    assert rows[-1] == "2,,1"
    assert [r.split(",")[2] for r in rows[1:-1]] == ["0"] * 5


def test_bench_reports_reference(tmp_path, kernel_file, calibration_file,
                                 capsys):
    traj = tmp_path / "traj.csv"
    assert main(["generate", "--duration", "2", "--out", str(traj)]) == 0
    out = tmp_path / "bench.json"
    assert main(["bench", "--kernel", kernel_file,
                 "--calibration", calibration_file,
                 "--trajectory", str(traj), "--repetitions", "2",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["frame_count"] == 2 * 200
    assert "Raspberry Pi" in capsys.readouterr().out


def test_mismatched_calibration_fails(tmp_path, calibration_file):
    other = tmp_path / "kernel.json"
    assert main(["synthesize", "--gamma", "0.7", "--out", str(other)]) == 0
    traj = tmp_path / "traj.csv"
    assert main(["generate", "--duration", "1", "--out", str(traj)]) == 0
    code = main(["track", "--kernel", str(other),
                 "--calibration", calibration_file,
                 "--trajectory", str(traj)])
    assert code == 1


def test_track_refuses_calibration_made_at_1ms(tmp_path, kernel_file, calibration_file,
                                               trajectory_file, capsys):
    # Every calibration file written while the network stepped at 1 ms.
    with open(calibration_file, encoding="utf-8") as fh:
        doc = json.load(fh)
    old = tmp_path / "calibration_1ms.json"
    old.write_text(json.dumps({**doc, "dt": 0.001}))
    assert '"dt": 0.001' in old.read_text()
    report = tmp_path / "report.json"
    code = main(["track", "--kernel", kernel_file, "--calibration", str(old),
                 "--trajectory", trajectory_file, "--report", str(report)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {old}: calibration was made at an Euler step of 1 ms")
    assert "re-run `hdcnav calibrate`" in err
    assert not report.exists()


def test_track_rejects_version_1_kernel(tmp_path, kernel_file,
                                        calibration_file, capsys):
    with open(kernel_file, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["version"] = 1
    old = tmp_path / "kernel_v1.json"
    old.write_text(json.dumps(doc))
    traj = tmp_path / "traj.csv"
    assert main(["generate", "--duration", "1", "--out", str(traj)]) == 0
    code = main(["track", "--kernel", str(old),
                 "--calibration", calibration_file,
                 "--trajectory", str(traj)])
    assert code == 1
    assert "hdcnav synthesize" in capsys.readouterr().err


def test_missing_file_is_io_error(tmp_path):
    code = main(["track", "--kernel", str(tmp_path / "nope.json"),
                 "--calibration", str(tmp_path / "nope2.json"),
                 "--trajectory", str(tmp_path / "nope.csv")])
    assert code == 2
    with pytest.raises(SystemExit) as info:  # a missing argument file
        main(["generate", f"@{tmp_path / 'nope.args'}"])
    assert info.value.code == 2


@pytest.mark.parametrize("content", [b'{"version": 2', b"\xff\xfe{}"],
                         ids=["truncated-json", "not-utf-8"])
def test_unreadable_json_file_names_it(tmp_path, capsys, content):
    # A kernel file that is not JSON, or not UTF-8, is an I/O error (exit 2)
    # whose message names the file.
    kernel = tmp_path / "kernel.json"
    kernel.write_bytes(content)
    out = tmp_path / "calibration.json"
    assert main(["calibrate", "--kernel", str(kernel), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {kernel}: not a UTF-8 JSON file: ")
    assert not out.exists()


def run_with_closed_stdout(argv):
    """``python -m hdcnav.cli argv`` in a new process whose standard output
    is a pipe with its read end already closed."""
    src = str(Path(hdcnav.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run([sys.executable, "-m", "hdcnav.cli", *argv], env=env,
                              stdout=write_end, stderr=subprocess.PIPE, timeout=120)
    finally:
        os.close(write_end)


def test_closed_stdout_fails_only_a_failed_write(tmp_path):
    # `hdcnav generate | true`: the summary cannot be printed once the file
    # is written, which is not an error, and nothing is printed at exit.
    out = tmp_path / "lap.csv"
    done = run_with_closed_stdout(["generate", "--duration", "1", "--out", str(out)])
    assert (done.returncode, done.stderr) == (0, b"")
    assert len(read_csv(out)) == len(generate(SyntheticProfile(duration=1.0)))
    # A file that cannot be written is still an I/O error naming it.
    missing = tmp_path / "no-such-dir" / "lap.csv"
    done = run_with_closed_stdout(["generate", "--duration", "1", "--out", str(missing)])
    assert done.returncode == 2
    assert str(missing) in done.stderr.decode()


def test_invalid_arguments_fail(tmp_path, capsys, kernel_file, calibration_file):
    # both --trajectory and --oxts given
    with pytest.raises(SystemExit) as info:
        main(["track", "--kernel", kernel_file,
              "--calibration", calibration_file,
              "--trajectory", "a.csv", "--oxts", "b"])
    assert info.value.code == 2
    # a negative noise level is refused; a positive one applies to any path
    noise = tmp_path / "noise.csv"
    assert main(["generate", "--kind", "balanced_maze", "--noise-sigma", "-0.1",
                 "--out", str(noise)]) == 1
    assert not noise.exists()
    assert main(["generate", "--kind", "balanced_maze", "--noise-sigma", "0.1",
                 "--out", str(noise)]) == 0
    # a negative seed is refused by the profile, naming the field
    seeded = tmp_path / "seeded.csv"
    capsys.readouterr()
    assert main(["generate", "--seed", "-1", "--out", str(seeded)]) == 1
    assert not seeded.exists()
    assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err


def test_usage_errors_exit_2_before_reading_files(tmp_path, kernel_file,
                                                  calibration_file, trajectory_file):
    # A usage error is argparse's: it exits 2 and no command runs, so no
    # file is read or written.
    kernel = ["--kernel", kernel_file]
    calibration = ["--calibration", calibration_file]
    trajectory = ["--trajectory", trajectory_file]
    oxts = ["--oxts", str(tmp_path / "oxts")]
    report = ["--report", str(tmp_path / "report.json")]
    for argv in (["calibrate", *kernel, "--stimuli", "abc",
                  "--out", str(tmp_path / "calibration.json")],
                 ["track", *calibration, *trajectory, *report],
                 ["track", *kernel, *trajectory, *report],
                 ["track", *kernel, *calibration, *report],
                 ["track", *kernel, *calibration, *trajectory, *oxts, *report]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2, argv
        assert list(tmp_path.iterdir()) == [], argv


@pytest.mark.parametrize("flag, value", [("--omega-max", "nan"), ("--duration", "inf"),
                                         ("--frame-dt", "nan")])
def test_generate_refuses_non_finite_profile(tmp_path, capsys, flag, value):
    # On the default constant rotation: without the check, a maze of NaN
    # speed or infinite length would never end.
    out = tmp_path / "trajectory.csv"
    assert main(["generate", flag, value, "--out", str(out)]) == 1
    assert not out.exists()
    assert "must be finite and > 0" in capsys.readouterr().err


def test_argument_file_and_flag_override(tmp_path):
    args = tmp_path / "generate.args"
    out_from_file = tmp_path / "from_file.csv"
    args.write_text("--kind=constant_rotation\n"
                    f"--omega-max={math.radians(10)}\n"
                    "--duration\n1.0\n"
                    f"--out={out_from_file}\n")
    assert main(["generate", f"@{args}"]) == 0
    records = read_csv(out_from_file)
    assert records[0].omega == pytest.approx(math.radians(10))

    # a flag after the file beats it
    out_flag = tmp_path / "from_flag.csv"
    assert main(["generate", f"@{args}",
                 "--out", str(out_flag),
                 "--omega-max", str(math.radians(5))]) == 0
    assert read_csv(out_flag)[0].omega == pytest.approx(math.radians(5))


def test_argument_file_applies_only_where_named(tmp_path, kernel_file):
    # A generate file named after calibrate is a usage error: --kind is no
    # calibrate flag, so its --out never overwrites the kernel.
    kernel = tmp_path / "kernel.json"
    kernel.write_bytes(Path(kernel_file).read_bytes())
    args = tmp_path / "generate.args"
    args.write_text(f"--kind=constant_rotation\n--duration=1.0\n--out={kernel}\n")
    with pytest.raises(SystemExit) as info:
        main(["calibrate", "--kernel", str(kernel), f"@{args}"])
    assert info.value.code == 2
    assert kernel.read_bytes() == Path(kernel_file).read_bytes()


def test_track_refuses_single_sample(tmp_path, kernel_file, calibration_file,
                                     capsys):
    traj = tmp_path / "one.csv"
    traj.write_text("t,omega,truth\n0,0.1,0\n")
    code = main(["track", "--kernel", kernel_file,
                 "--calibration", calibration_file,
                 "--trajectory", str(traj),
                 "--report", str(tmp_path / "report.json")])
    assert code == 1
    assert "at least two samples" in capsys.readouterr().err


def test_bench_reads_oxts_with_yaw_column(tmp_path, kernel_file,
                                          calibration_file):
    # Two fields per frame, yaw rate then yaw: the default layout (yaw in
    # field 5, yaw rate in field 19) cannot read these files.
    oxts = tmp_path / "oxts"
    (oxts / "data").mkdir(parents=True)
    for i in range(20):
        (oxts / "data" / f"{i:010d}.txt").write_text(f"0.1 {0.001 * i}\n")
    (oxts / "timestamps.txt").write_text(
        "".join(f"{0.01 * i:.2f}\n" for i in range(20)))
    out = tmp_path / "bench.json"
    assert main(["bench", "--kernel", kernel_file,
                 "--calibration", calibration_file,
                 "--oxts", str(oxts), "--yaw-column", "1",
                 "--yaw-rate-column", "0", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["frame_count"] == 19


def test_synthesize_without_options_builds_default_kernel(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["synthesize"]) == 0
    assert kernel_hash(load_kernel("kernel.json")) == kernel_hash(build_kernel())


def test_generate_without_options_writes_default_profile(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["generate"]) == 0
    write_csv(generate(SyntheticProfile("constant_rotation", math.radians(20), 18.0)),
              tmp_path / "expected.csv")
    assert ((tmp_path / "trajectory.csv").read_bytes()
            == (tmp_path / "expected.csv").read_bytes())


def test_track_refuses_calibration_without_alpha(tmp_path, kernel_file,
                                                 calibration_file, trajectory_file,
                                                 capsys):
    broken = tmp_path / "calibration.json"
    for alpha, message in ((None, "missing 'alpha'"),
                           ("x", "'alpha' must be of type float, got 'x'")):
        with open(calibration_file, encoding="utf-8") as fh:
            doc = json.load(fh)
        del doc["alpha"]
        if alpha is not None:
            doc["alpha"] = alpha
        broken.write_text(json.dumps(doc))
        code = main(["track", "--kernel", kernel_file, "--calibration", str(broken),
                     "--trajectory", trajectory_file,
                     "--report", str(tmp_path / "report.json")])
        assert code == 1
        assert f"error: {broken}: {message}" in capsys.readouterr().err


# (subcommand, its other arguments, output flag, option, value, other value):
# the option set by a flag and by an argument file must write the same output.
_PARITY_CASES = [
    ("synthesize", [], "--out", "b", 0.3, 0.32),
    ("synthesize", [], "--out", "n", 64, 48),
    ("calibrate", ["--kernel", "{kernel}"], "--out", "duration", 2.5, 3.0),
    ("track", ["--kernel", "{kernel}", "--calibration", "{calibration}",
               "--trajectory", "{trajectory}"], "--samples", "initial_heading", 0.5, 1.0),
    ("bench", ["--kernel", "{kernel}", "--calibration", "{calibration}",
               "--trajectory", "{trajectory}"], "--out", "repetitions", 2, 3),
    ("generate", [], "--out", "omega_max", 0.25, 0.3),
]


@pytest.mark.parametrize("command, extra, out_flag, key, value, other", _PARITY_CASES,
                         ids=[f"{c[0]}-{c[3]}" for c in _PARITY_CASES])
def test_argument_file_value_matches_flag(tmp_path, monkeypatch, kernel_file,
                                          calibration_file, trajectory_file, command,
                                          extra, out_flag, key, value, other):
    monkeypatch.chdir(tmp_path)  # `track` also writes its report to report.json
    files = {"kernel": kernel_file, "calibration": calibration_file,
             "trajectory": trajectory_file}
    base = [command] + [arg.format(**files) for arg in extra]
    option = "--" + key.replace("_", "-")

    def run(name, file_value=None, flags=()):
        out = tmp_path / name
        argv = list(base)
        if file_value is not None:
            path = tmp_path / f"{name}.args"
            path.write_text(f"{option}={file_value}\n")
            argv.append(f"@{path}")
        code = main(argv + list(flags) + [out_flag, str(out)])
        if code != 0:
            return code
        if command == "bench":  # everything but the frame count is a timing
            return json.loads(out.read_text())["frame_count"]
        return out.read_bytes()

    by_flag = run("flag", flags=[option, str(value)])
    assert by_flag != run("unset")
    assert run("file", value) == by_flag
    assert run("override", other, flags=[option, str(value)]) == by_flag
    with pytest.raises(SystemExit) as info:
        run("refused", "abc")
    assert info.value.code == 2
