import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hdcnav.io import (ROWS_PER_CHUNK, SyntheticProfile, Trajectory,
                       TrajectoryFormatError, TrajectoryRecord, generate,
                       read_csv, read_oxts, write_csv, write_table)


# -- Trajectory ---------------------------------------------------------

@pytest.mark.parametrize("columns,fragment,sample", [
    (([0.0, 1.0], [0.0, math.inf]), "non-finite", 1),
    (([0.0, math.nan], [0.0, 0.0]), "non-finite", 1),
    (([0.0, 1.0], [0.0, 0.0], [-math.inf, 0.0]), "non-finite", 0),
    (([0.0, 1.0, 1.0], [0.0, 0.0, 0.0]), "not after", 2),
    (([1.0, 0.5], [0.0, 0.0]), "not after", 1),
    (([], []), "no samples", None),
    (([0.0, 1.0], [0.0]), "one length", None),
    (([0.0, 1.0], [0.0, 1.0], [0.0]), "one length", None),
    (([[0.0, 1.0]], [[0.0, 1.0]]), "1-D", None),
])
def test_trajectory_refuses_invalid_columns(columns, fragment, sample):
    with pytest.raises(TrajectoryFormatError, match=fragment) as info:
        Trajectory(*columns)
    assert info.value.sample == sample


def test_trajectory_rows_and_slices():
    t = np.array([0.0, 0.5, 1.0])
    traj = Trajectory(t, [0.1, -0.2, 0.3], [0.0, math.nan, 2.0])
    row = traj[1]
    assert isinstance(row, TrajectoryRecord)
    assert (row.t, row.omega) == (0.5, -0.2) and math.isnan(row.truth)
    assert all(type(v) is float for v in row)
    assert traj[-1] == (1.0, 0.3, 2.0)
    with pytest.raises(IndexError):
        traj[3]
    # A part of a trajectory is a Trajectory of sliced columns, not a slice.
    with pytest.raises(TypeError):
        traj[1:]
    # The columns are read-only copies, and no truth means all NaN.
    t[0] = -1.0
    assert traj.t[0] == 0.0 and not traj.t.flags.writeable
    assert np.isnan(Trajectory([0.0], [0.0]).truth).all()


# -- CSV ----------------------------------------------------------------

def test_csv_round_trip(tmp_path):
    records = Trajectory([0.01 * i for i in range(10)], [0.1 * i for i in range(10)],
                         [0.05 * i for i in range(10)])
    path = tmp_path / "traj.csv"
    write_csv(records, path)
    loaded = read_csv(path)
    assert len(loaded) == len(records)
    for a, b in zip(loaded, records):
        assert a.t == pytest.approx(b.t)
        assert a.omega == pytest.approx(b.omega)
        assert a.truth == pytest.approx(b.truth)


def test_csv_round_trip_without_truth(tmp_path):
    records = Trajectory([0.01 * i for i in range(5)], [0.1] * 5)
    path = tmp_path / "traj.csv"
    write_csv(records, path)
    loaded = read_csv(path)
    assert path.read_text().splitlines()[0] == "t,omega"
    assert all(math.isnan(r.truth) for r in loaded)


@pytest.mark.parametrize("content,fragment", [
    ("", "empty"),
    ("time,omega\n0,0\n", "header"),
    ("t,omega,extra,bad\n0,0,0,0\n", "header"),
    ("t,omega\n0,abc\n", "parse"),
    ("t,omega\n0,0\n0,0\n", "not after"),
    ("t,omega\n0,nan\n", "non-finite"),
    ("t,omega\n", "no data"),
    ("t,omega\n0,1,2\n", ":2: 3 fields, header has 2"),
    ("t,omega,truth\n0,1\n", ":2: 2 fields, header has 3"),
    ("t,omega,truth\n0,1,2\n\n  \n1,2\n", ":5: 2 fields"),
    ("t,omega,truth\n0,1,\n1,2,3,4\n", ":3: 4 fields"),
    ("t,omega,truth\n0,1,nan\n", ":2: cannot parse"),
    ("t,omega,truth\n0,1,\n \n1,2,inf\n", ":4: non-finite"),
    ("t,omega\n0,0\n\n0,1\n", ":4: timestamp 0.0 not after 0.0"),
])
def test_csv_malformed_inputs(tmp_path, content, fragment):
    path = tmp_path / "bad.csv"
    path.write_text(content)
    with pytest.raises(TrajectoryFormatError, match=fragment):
        read_csv(path)


def test_csv_valid_file_is_one_parse(tmp_path, monkeypatch):
    # Blank and whitespace-only lines too take the single loadtxt pass.
    calls, loadtxt = [], np.loadtxt

    def counted(*args, **kwargs):
        calls.append(args)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counted)
    path = tmp_path / "traj.csv"
    path.write_text("t,omega,truth\n0,1,\n\n \t\n1,2,3\n  \n")
    traj = read_csv(path)
    assert traj.t.tolist() == [0.0, 1.0] and traj.truth[1] == 3.0
    assert len(calls) == 1


def test_csv_error_mentions_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,omega\n0,0\n1,oops\n")
    with pytest.raises(TrajectoryFormatError, match=":3:"):
        read_csv(path)


def _reference_read(text):
    """Per-row reference parser: split on commas, float() each cell."""
    lines = text.split("\n")
    width = len(lines[0].split(","))
    columns = ([], [], [])
    for line in lines[1:]:
        if not line.strip():
            continue
        cells = line.split(",")
        assert len(cells) == width
        columns[0].append(float(cells[0]))
        columns[1].append(float(cells[1]))
        columns[2].append(float(cells[2]) if width == 3 and cells[2].strip()
                          else math.nan)
    return [np.array(c) for c in columns]


finite = st.floats(allow_nan=False, allow_infinity=False)
csv_rows = st.lists(st.tuples(
    st.floats(1e-6, 1e3),                      # interval to the previous t
    finite,                                    # omega
    st.one_of(st.none(), finite),              # truth, None for a blank cell
    st.sampled_from(["", "", "\n", "\n \t"]),  # blank lines after the row
    st.sampled_from(["", " "])), min_size=1, max_size=30)  # cell padding


@settings(max_examples=200, deadline=None)
@given(csv_rows, st.floats(-1e3, 1e3), st.booleans())
def test_csv_reads_back_like_per_row_reference(tmp_path_factory, rows, t0,
                                               with_truth):
    t = t0 + np.cumsum([dt for dt, *_ in rows])
    lines = ["t,omega,truth" if with_truth else "t,omega"]
    for ti, (_, omega, truth, after, pad) in zip(t.tolist(), rows):
        cells = [repr(ti), repr(omega)]
        if with_truth:
            cells.append("" if truth is None else repr(truth))
        lines.append(",".join(f"{pad}{c}{pad}" for c in cells) + after)
    text = "\n".join(lines) + "\n"
    path = tmp_path_factory.getbasetemp() / "round_trip.csv"
    path.write_text(text)
    traj = read_csv(path)
    for got, expected in zip((traj.t, traj.omega, traj.truth), _reference_read(text)):
        # Bit for bit, NaN payloads and signed zeros included.
        assert got.tobytes() == expected.tobytes()


# -- oxts ---------------------------------------------------------------

def make_oxts_dir(root, yaws, rates, timestamps=None, yaw_column=5, yaw_rate_column=19):
    data = root / "data"
    data.mkdir()
    width = max(yaw_column, yaw_rate_column) + 1
    for i, (yaw, rate) in enumerate(zip(yaws, rates)):
        fields = [0.0] * width
        fields[yaw_column] = yaw
        fields[yaw_rate_column] = rate
        (data / f"{i:010d}.txt").write_text(" ".join(f"{v:.9g}" for v in fields) + "\n")
    if timestamps is None:
        timestamps = [f"2011-10-03 12:55:{34 + i:02d}.500000000" for i in range(len(yaws))]
    (root / "timestamps.txt").write_text("\n".join(timestamps) + "\n")


def test_oxts_reads_yaw_and_rate(tmp_path):
    make_oxts_dir(tmp_path, yaws=[0.1, 0.2, -0.3], rates=[0.01, 0.02, 0.03])
    records = read_oxts(tmp_path)
    assert len(records) == 3
    assert records[0].t == pytest.approx(0.0)
    assert records[1].t == pytest.approx(1.0)
    assert [r.omega for r in records] == pytest.approx([0.01, 0.02, 0.03])
    # yaw wrapped into [0, 2*pi)
    assert records[2].truth == pytest.approx(-0.3 % (2 * math.pi))


def test_oxts_tiny_negative_yaw_reads_zero_truth(tmp_path):
    # -1e-17 % 2*pi rounds to 2*pi itself, outside [0, 2*pi).
    make_oxts_dir(tmp_path, yaws=[-1e-17, 0.1], rates=[0.0, 0.0])
    assert read_oxts(tmp_path).truth.tolist() == [0.0, 0.1]


def test_oxts_unpadded_frames_replay_in_numeric_order(tmp_path):
    # As text, 10.txt and 11.txt sort between 1.txt and 2.txt.
    rates = [0.01 * i for i in range(12)]
    make_oxts_dir(tmp_path, yaws=[0.0] * 12, rates=rates)
    data = tmp_path / "data"
    for i in range(12):
        (data / f"{i:010d}.txt").rename(data / f"{i}.txt")
    assert read_oxts(tmp_path).omega.tolist() == pytest.approx(rates)


def test_oxts_custom_layout(tmp_path):
    layout = {"yaw_column": 1, "yaw_rate_column": 2}
    make_oxts_dir(tmp_path, yaws=[0.1, 0.2], rates=[0.5, 0.6], **layout)
    records = read_oxts(tmp_path, **layout)
    assert [r.omega for r in records] == pytest.approx([0.5, 0.6])


def test_oxts_plain_float_timestamps(tmp_path):
    make_oxts_dir(tmp_path, yaws=[0.0, 0.1], rates=[0.0, 0.0],
                  timestamps=["100.0", "100.1"])
    records = read_oxts(tmp_path)
    assert records[1].t == pytest.approx(0.1)


def test_oxts_intervals_ignore_the_local_time_zone(tmp_path, monkeypatch):
    # In this zone 02:00 EDT falls back to 01:00 EST on 2011-11-06; read as
    # local times, these stamps would lie 3600.1 s apart.
    make_oxts_dir(tmp_path, yaws=[0.0, 0.0], rates=[0.0, 0.0],
                  timestamps=["2011-11-06 01:59:59.900000000",
                              "2011-11-06 02:00:00.000000000"])
    monkeypatch.setenv("TZ", "EST5EDT,M3.2.0,M11.1.0")
    time.tzset()
    try:
        records = read_oxts(tmp_path)
    finally:
        monkeypatch.undo()
        time.tzset()
    assert records[1].t == pytest.approx(0.1)


def test_oxts_missing_timestamps(tmp_path):
    (tmp_path / "data").mkdir()
    with pytest.raises(TrajectoryFormatError, match="timestamps"):
        read_oxts(tmp_path)


def test_oxts_count_mismatch(tmp_path):
    make_oxts_dir(tmp_path, yaws=[0.0, 0.1], rates=[0.0, 0.0])
    with open(tmp_path / "timestamps.txt", "a") as fh:
        fh.write("2011-10-03 12:55:40.000000000\n")
    with pytest.raises(TrajectoryFormatError, match="timestamps"):
        read_oxts(tmp_path)


def test_oxts_short_record(tmp_path):
    make_oxts_dir(tmp_path, yaws=[0.0], rates=[0.0])
    (tmp_path / "data" / "0000000000.txt").write_text("1.0 2.0\n")
    with pytest.raises(TrajectoryFormatError, match="fields"):
        read_oxts(tmp_path)


def test_oxts_refuses_non_finite_yaw(tmp_path):
    make_oxts_dir(tmp_path, yaws=[0.0, math.inf], rates=[0.0, 0.0])
    with pytest.raises(TrajectoryFormatError, match="0000000001.txt: non-finite yaw"):
        read_oxts(tmp_path)


def test_oxts_layout_validation(tmp_path):
    # The columns are checked before any file is opened: there is none here.
    with pytest.raises(ValueError, match="distinct and non-negative"):
        read_oxts(tmp_path / "absent", yaw_column=3, yaw_rate_column=3)
    with pytest.raises(ValueError, match="distinct and non-negative"):
        read_oxts(tmp_path / "absent", yaw_column=-1)
    # A column that is not an integer is refused by name, not indexed.
    for columns in (dict(yaw_column=5.0), dict(yaw_rate_column=19.5), dict(yaw_column=True)):
        with pytest.raises(ValueError, match="distinct and non-negative integers"):
            read_oxts(tmp_path / "absent", **columns)
    # A numpy integer is an integer.
    make_oxts_dir(tmp_path, yaws=[0.1, 0.2], rates=[0.01, 0.02])
    records = read_oxts(tmp_path, yaw_column=np.int64(5), yaw_rate_column=np.int64(19))
    assert records.truth.tolist() == pytest.approx([0.1, 0.2])
    assert records.omega.tolist() == pytest.approx([0.01, 0.02])


def test_oxts_zoned_timestamps_keep_their_fraction(tmp_path):
    make_oxts_dir(tmp_path, yaws=[0.0, 0.0, 0.0], rates=[0.0, 0.0, 0.0],
                  timestamps=["2011-10-03 12:55:34.5+02:00",
                              "2011-10-03 10:55:35.25+00:00",
                              "2011-10-03 12:55:36.123456789+02:00"])
    assert read_oxts(tmp_path).t.tolist() == pytest.approx([0.0, 0.75, 1.623456])


@pytest.mark.parametrize("stamps,error", [
    (["0.0", "nan", "0.02"], "timestamps.txt:2: non-finite value"),
    (["0.0", "0.02", "0.01"], "timestamps.txt:3: timestamp 0.01 not after 0.02"),
    (["0.0", "", "0.02", "0.02"], "timestamps.txt:4: timestamp 0.02 not after 0.02"),
    (["2011-10-03 12:55:34", "", "2011-13-03 12:55:35"],
     "timestamps.txt:3: unparseable timestamp '2011-13-03 12:55:35'$"),
], ids=["nan", "decreasing", "repeated-after-blank-line", "unparseable"])
def test_oxts_bad_timestamp_names_its_line(tmp_path, stamps, error):
    frames = len([s for s in stamps if s])
    make_oxts_dir(tmp_path, yaws=[0.0] * frames, rates=[0.0] * frames, timestamps=stamps)
    with pytest.raises(TrajectoryFormatError, match=error):
        read_oxts(tmp_path)


def test_oxts_non_finite_rate_names_its_data_file(tmp_path):
    make_oxts_dir(tmp_path, yaws=[0.0, 0.0, 0.0], rates=[0.0, 0.0, math.nan],
                  timestamps=["0.0", "0.01", "0.02"])
    with pytest.raises(TrajectoryFormatError, match="0000000002.txt: non-finite value"):
        read_oxts(tmp_path)


# -- synthetic profiles -------------------------------------------------

def test_profile_validation():
    with pytest.raises(ValueError):
        SyntheticProfile("spiral", 0.1, 10.0)
    with pytest.raises(ValueError):
        SyntheticProfile("balanced_maze", 0.1, -1.0)
    with pytest.raises(ValueError):
        SyntheticProfile("balanced_maze", 0.0, 10.0)
    for sigma in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and >= 0"):
            SyntheticProfile("balanced_maze", 0.1, 10.0, noise_sigma=sigma)
    # Only constructed: a maze of NaN speed or infinite length never ends.
    for field in ("omega_max", "duration", "frame_dt"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"{field} must be finite and > 0"):
                SyntheticProfile("balanced_maze", **{field: value})
    for seed in (-1, 1.5, True, "3", None):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            SyntheticProfile("balanced_maze", seed=seed)
    assert SyntheticProfile(seed=np.int64(3)).seed == 3


def test_constant_rotation_one_lap():
    records = generate(SyntheticProfile("constant_rotation",
                                        math.radians(20), 18.0))
    assert records[0].omega == pytest.approx(math.radians(20))
    assert records[-1].t == pytest.approx(18.0)
    # 20 deg/s for 18 s is exactly one lap: truth wraps back to start
    final = records[-1].truth
    assert min(final, 2 * math.pi - final) < 1e-9


@pytest.mark.parametrize("duration, frame_dt", [(1.0, 0.6), (1.0, 0.3), (10.0, 0.7)])
def test_both_kinds_end_at_their_duration(duration, frame_dt):
    # Neither kind rounds up to a frame past its duration.
    rotation = generate(SyntheticProfile("constant_rotation", 1.0, duration, frame_dt))
    maze = generate(SyntheticProfile("balanced_maze", 1.0, duration, frame_dt))
    assert rotation.t.tolist() == maze.t.tolist()
    assert rotation.t[-1] <= duration < rotation.t[-1] + frame_dt
    np.testing.assert_array_equal(rotation.truth, (1.0 * rotation.t) % (2 * math.pi))


@pytest.mark.parametrize("omega_max, frame_dt", [(math.radians(20), 0.005), (0.5, 0.001)])
def test_maze_truth_stays_below_two_pi(omega_max, frame_dt):
    # Turns that end a hair below zero must wrap to 0, not to 2*pi.
    truth = generate(SyntheticProfile("balanced_maze", omega_max, 60.0, frame_dt)).truth
    assert truth.min() >= 0.0 and truth.max() < 2 * math.pi


def test_balanced_maze_returns_to_start():
    records = generate(SyntheticProfile("balanced_maze",
                                        math.radians(30), 200.0))
    final = records[-1].truth
    assert min(final, 2 * math.pi - final) < 1e-9
    omegas = np.array([r.omega for r in records])
    assert np.max(np.abs(omegas)) <= math.radians(30) + 1e-12
    total_turn = math.degrees(np.sum(np.abs(omegas[1:]) * 0.01))
    assert total_turn >= 4000.0


def test_maze_turn_sequence():
    # Opposite turns of 90, 180, 45 and 135 deg, repeating, each after a 1 s
    # straight: the angle of a run of nonzero yaw rate is its sum times dt.
    frame_dt = 0.01
    omega = generate(SyntheticProfile("balanced_maze", math.radians(30), 90.0,
                                      frame_dt)).omega
    turning = np.flatnonzero(omega)
    runs = np.split(turning, np.flatnonzero(np.diff(turning) > 1) + 1)
    angles = [math.degrees(np.sum(omega[run]) * frame_dt) for run in runs]
    pattern = [90, -90, 180, -180, 45, -45, 135, -135]
    np.testing.assert_allclose(angles, [pattern[k % 8] for k in range(18)], atol=1e-9)
    starts = np.array([run[0] for run in runs])
    ends = np.array([0] + [run[-1] + 1 for run in runs[:-1]])
    assert (starts - ends).tolist() == [round(1.0 / frame_dt)] * len(runs)


def test_maze_truth_matches_trapezoid_integral():
    records = generate(SyntheticProfile("balanced_maze",
                                        math.radians(30), 60.0))
    ts = np.array([r.t for r in records])
    om = np.array([r.omega for r in records])
    truth = np.array([r.truth for r in records])
    integral = np.concatenate(
        [[0.0], np.cumsum(np.diff(ts) * (om[1:] + om[:-1]) / 2.0)])
    err = np.abs(np.remainder(integral - truth + np.pi, 2 * np.pi) - np.pi)
    assert err.max() < 1e-9


def test_noisy_profile_is_deterministic_and_clean_truth():
    # The noise applies to either path.
    for kind in ("balanced_maze", "constant_rotation"):
        prof = SyntheticProfile(kind, math.radians(30), 30.0,
                                noise_sigma=0.05, seed=7)
        a, b = generate(prof), generate(prof)
        assert [r.omega for r in a] == [r.omega for r in b]
        clean = generate(SyntheticProfile(kind, math.radians(30), 30.0))
        assert [r.truth for r in a] == [r.truth for r in clean]
        assert [r.omega for r in a] != [r.omega for r in clean]


# -- tables ---------------------------------------------------------------

def test_table_blanks_nan_cells_across_chunks(tmp_path):
    n = 2 * ROWS_PER_CHUNK + 3
    x = np.arange(n) / 3.0
    y = np.where(np.arange(n) % 7 == 0, np.nan, -x)
    flags = np.arange(n) % 2 == 0
    path = tmp_path / "table.csv"
    write_table(path, ("x", "y", "even"), (x, y, flags), ("{:.9g}", "{:.3f}", "{:g}"))
    expected = ["x,y,even"] + [
        f"{a:.9g},{'' if math.isnan(b) else f'{b:.3f}'},{int(c)}"
        for a, b, c in zip(x.tolist(), y.tolist(), flags.tolist())]
    assert path.read_bytes() == ("\n".join(expected) + "\n").encode()


def test_table_formats_a_chunk_at_a_time(tmp_path):
    # A whole 64k-row column as Python floats would take 2 MB.
    x = np.linspace(0.0, 1.0, 16 * ROWS_PER_CHUNK)
    tracemalloc.start()
    try:
        write_table(tmp_path / "table.csv", ("x", "y"), (x, x), ("{:.9g}", "{:.9g}"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
