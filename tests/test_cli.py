import csv
import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import onticsim
from onticsim import cli, harness, icosa, run_experiment
from onticsim.cli import main
from onticsim.icosa import MESSAGE_SIZE
from onticsim.reports import render_tabular


def _run_dirs(base, command):
    return sorted(p for p in base.iterdir() if p.name.startswith(command))


def test_verify_qubit_writes_reports(tmp_path):
    code = main(
        ["verify-qubit", "--pairs", "200", "--seed", "42", "--out-dir", str(tmp_path)]
    )
    assert code == 0
    (run_dir,) = _run_dirs(tmp_path, "verify-qubit")
    for label in ("exact-cone", "exact-sphere"):
        assert (run_dir / label / "report.txt").is_file()
        assert (run_dir / label / "cases.csv").is_file()
    text = (run_dir / "exact-cone" / "report.txt").read_text()
    assert "passed = true" in text
    assert "seed = 42" in text


def test_verify_qubit_with_samples(tmp_path):
    code = main(
        [
            "verify-qubit",
            "--pairs", "20",
            "--samples", "20000",
            "--seed", "1",
            "--out-dir", str(tmp_path),
        ]
    )
    assert code == 0
    (run_dir,) = _run_dirs(tmp_path, "verify-qubit")
    assert (run_dir / "mc-sphere" / "report.txt").is_file()


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_unknown_flag_exits_2(capsys):
    assert main(["verify-qubit", "--bogus", "1"]) == 2
    capsys.readouterr()


def test_demo_nonmarkov_output(tmp_path, capsys):
    code = main(
        [
            "demo-nonmarkov",
            "--theta", "0.5",
            "--phi-a", "0",
            "--phi-b", "1.5707963267948966",
            "--out-dir", str(tmp_path),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "zenith rate of preparation a = 1" in out
    assert "rate discrepancy = 0.999999" in out or "rate discrepancy = 1" in out


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("pairs = 10\ndim = 3\nscheme = ground\npole-mass = 0.5\n# comment\n")
    code = main(
        [
            "verify-ndim",
            "--config", str(cfg),
            "--pairs", "20",
            "--seed", "2",
            "--out-dir", str(tmp_path / "out"),
        ]
    )
    assert code == 0
    (run_dir,) = _run_dirs(tmp_path / "out", "verify-ndim")
    text = (run_dir / "exact-ndim" / "report.txt").read_text()
    assert "pairs = 20" in text  # flag wins over file
    assert "dim = 3" in text
    assert "scheme = ground" in text


def test_bad_config_file_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("pairs ten\n")
    assert main(["verify-qubit", "--config", str(cfg)]) == 2
    cfg.write_text("unknown_option = 3\n")
    assert main(["verify-qubit", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
    assert main(["verify-qubit", "--config", str(tmp_path / "missing.cfg")]) == 2
    capsys.readouterr()


def test_sweep_and_covering_commands(tmp_path):
    assert (
        main(
            [
                "sweep-positivity",
                "--x-step", "0.05",
                "--events", "200",
                "--out-dir", str(tmp_path),
            ]
        )
        == 0
    )
    assert main(["covering", "--directions", "5000", "--out-dir", str(tmp_path)]) == 0
    (sweep_dir,) = _run_dirs(tmp_path, "sweep-positivity")
    assert (sweep_dir / "sweep" / "report.txt").is_file()


def test_covering_past_one_block(tmp_path):
    # 8193 directions: two blocks, the second of 4097 rows, as no block is a lone last row
    argv = ["covering", "--directions", "8193", "--seed", "7", "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    (run_dir,) = _run_dirs(tmp_path, "covering")
    header, row = (run_dir / "covering" / "cases.csv").read_text().splitlines()
    assert header.endswith(",angle_to_nearest_vertex")
    # the values of the unblocked (directions, 12) reduction of both blocks' draws; row 5713, block 1
    assert row == (
        '0,"(0.98341687700649427, 0.0016439122728914321, -0.18135198805426112)",'
        "0.64601071226668949"
    )


def test_parser_keeps_nothing_between_parses(tmp_path):
    parser = cli._build_parser()
    assert cli._build_parser() is parser
    cfg = tmp_path / "run.cfg"
    cfg.write_text("theta = 0.25\n")
    first = parser.parse_args(
        ["demo-nonmarkov", "--config", str(cfg), "--phi-a", "0.5", "--seed", "3",
         "--format", "tabular"]
    )
    assert (first.config, first.phi_a, first.seed, first.format) == (str(cfg), 0.5, 3, "tabular")
    second = parser.parse_args(["demo-nonmarkov"])
    assert second is not first
    assert set(vars(second)) == set(vars(first))
    assert {k for k, v in vars(second).items() if v is not None} == {"command"}
    # and through main: the second run reads neither the first's flags nor its config file
    assert main(["demo-nonmarkov", "--config", str(cfg), "--phi-a", "0.5",
                 "--out-dir", str(tmp_path / "a")]) == 0
    assert main(["demo-nonmarkov", "--out-dir", str(tmp_path / "b")]) == 0
    (dir_a,) = _run_dirs(tmp_path / "a", "demo-nonmarkov")
    (dir_b,) = _run_dirs(tmp_path / "b", "demo-nonmarkov")
    assert dir_a.name.startswith("demo-nonmarkov-0-")
    text_a = (dir_a / "witness" / "report.txt").read_text()
    text_b = (dir_b / "witness" / "report.txt").read_text()
    assert "theta = 0.25\n" in text_a and "phi_a = 0.5\n" in text_a
    assert "theta = 0.5\n" in text_b and "phi_a = 0\n" in text_b
    assert "seed = 0\n" in text_b


def test_simulate_protocol_random_pair(tmp_path):
    code = main(
        [
            "simulate-protocol",
            "--rounds", "5000",
            "--pairs", "1",
            "--seed", "6",
            "--out-dir", str(tmp_path),
        ]
    )
    assert code == 0
    (run_dir,) = _run_dirs(tmp_path, "simulate-protocol")
    blob = (run_dir / "messages.bin").read_bytes()
    assert len(blob) == 5000 * MESSAGE_SIZE
    transcript = (run_dir / "transcript.txt").read_text()
    assert f"message_bytes = {MESSAGE_SIZE}" in transcript
    assert "passed = true" in transcript


def test_simulate_protocol_explicit_pairs(tmp_path):
    cfg = tmp_path / "pairs.cfg"
    cfg.write_text("pair.0 = 0,0,1, 1,0,0\npair.1 = 0.6,0,0.8, 0,1,0\n")
    code = main(
        [
            "simulate-protocol",
            "--rounds", "4000",
            "--config", str(cfg),
            "--seed", "3",
            "--out-dir", str(tmp_path / "out"),
        ]
    )
    assert code == 0
    (run_dir,) = _run_dirs(tmp_path / "out", "simulate-protocol")
    blob = (run_dir / "messages.bin").read_bytes()
    assert len(blob) == 2 * 4000 * MESSAGE_SIZE
    transcript = (run_dir / "transcript.txt").read_text()
    assert "pair 1" in transcript
    # born p for (0,0,1) against (1,0,0) is one half
    assert "born_p = 0.5" in (run_dir / "protocol" / "report.txt").read_text()


def test_simulate_protocol_bad_pair_exits_2(tmp_path, capsys):
    cfg = tmp_path / "pairs.cfg"
    cfg.write_text("pair.0 = 1,2,3\n")
    assert (
        main(
            [
                "simulate-protocol",
                "--config", str(cfg),
                "--out-dir", str(tmp_path),
            ]
        )
        == 2
    )
    capsys.readouterr()


def test_simulate_protocol_pairs_run_in_the_order_of_n(tmp_path):
    # eleven pairs: sorted as strings, pair.10 would run before pair.2
    cfg = tmp_path / "pairs.cfg"
    cfg.write_text("".join(f"pair.{n} = 0,0,1, {n},0,1\n" for n in range(11)))
    argv = ["simulate-protocol", "--rounds", "10", "--config", str(cfg)]
    assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 0
    (run_dir,) = _run_dirs(tmp_path / "out", "simulate-protocol")
    with open(run_dir / "protocol" / "cases.csv", newline="") as handle:
        ws = [row["w"] for row in csv.DictReader(handle)]
    assert len(ws) == 11
    for n, w in enumerate(ws):
        x, _, z = (float(c) for c in w.strip("()").split(", "))
        assert (x, z) == pytest.approx((n / math.hypot(n, 1.0), 1.0 / math.hypot(n, 1.0)))


@pytest.mark.parametrize(
    "keys",
    [("pair.0", "pair.x"), ("pair.0", "pair.1.5"), ("pair.1", "pair.1"), ("pair.1", "pair.01")],
)
def test_simulate_protocol_bad_pair_index_exits_2(tmp_path, capsys, keys):
    cfg = tmp_path / "pairs.cfg"
    cfg.write_text("".join(f"{key} = 0,0,1, 1,0,0\n" for key in keys))
    out = tmp_path / "out"
    assert main(["simulate-protocol", "--config", str(cfg), "--out-dir", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith(f"error: {keys[1]}: ")


def test_out_dir_environment_variable(tmp_path, monkeypatch):
    monkeypatch.setenv("ONTICSIM_OUT_DIR", str(tmp_path / "envout"))
    code = main(["covering", "--directions", "2000"])
    assert code == 0
    assert _run_dirs(tmp_path / "envout", "covering")


@pytest.mark.parametrize("sub, env", [((), False), (("sub",), False), (("sub",), True)],
                         ids=["file", "under-a-file", "env-under-a-file"])
def test_out_dir_under_a_file_exits_2_before_any_run(tmp_path, monkeypatch, capsys, sub, env):
    blocker = tmp_path / "file"
    blocker.write_bytes(b"x")
    out_dir = str(blocker.joinpath(*sub))
    if env:
        monkeypatch.setenv("ONTICSIM_OUT_DIR", out_dir)
    argv = ["covering", "--directions", "100"] + ([] if env else ["--out-dir", out_dir])
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""  # no run printed its status line
    assert err == f"error: cannot write reports under {out_dir}: {blocker} is not a directory\n"
    assert list(tmp_path.iterdir()) == [blocker] and blocker.read_bytes() == b"x"


def test_run_dir_taken_between_check_and_create(tmp_path, monkeypatch, capsys):
    # Another run with the same command, seed and second made the directory
    # after this run looked for it.
    monkeypatch.setattr(cli.time, "strftime", lambda fmt: "20260101T000000")
    (tmp_path / "demo-nonmarkov-0-20260101T000000").mkdir()
    monkeypatch.setattr(cli.Path, "exists", lambda self: False)
    assert main(["demo-nonmarkov", "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "demo-nonmarkov-0-20260101T000000-1" / "witness" / "report.txt").is_file()
    capsys.readouterr()


def test_cli_reports_deterministic(tmp_path):
    for sub in ("a", "b"):
        code = main(
            [
                "verify-qubit",
                "--pairs", "50",
                "--seed", "9",
                "--out-dir", str(tmp_path / sub),
            ]
        )
        assert code == 0
    (dir_a,) = _run_dirs(tmp_path / "a", "verify-qubit")
    (dir_b,) = _run_dirs(tmp_path / "b", "verify-qubit")
    for label in ("exact-cone", "exact-sphere"):
        assert (dir_a / label / "report.txt").read_bytes() == (
            dir_b / label / "report.txt"
        ).read_bytes()
        assert (dir_a / label / "cases.csv").read_bytes() == (
            dir_b / label / "cases.csv"
        ).read_bytes()
    for sub in ("a", "b"):
        argv = ["simulate-protocol", "--rounds", "3000", "--pairs", "2", "--seed", "9"]
        assert main([*argv, "--out-dir", str(tmp_path / sub)]) == 0
    (dir_a,) = _run_dirs(tmp_path / "a", "simulate-protocol")
    (dir_b,) = _run_dirs(tmp_path / "b", "simulate-protocol")
    for name in ("transcript.txt", "messages.bin"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate-protocol", "--pairs", "0"],
        ["simulate-protocol", "--pairs", "-3"],
        ["simulate-protocol", "--rounds", "0"],
        ["simulate-protocol", "--workers", "0"],
        ["simulate-protocol", "--seed", "-1"],
        ["covering", "--workers", "0"],
        ["sweep-positivity", "--workers", "0"],
        ["demo-nonmarkov", "--theta", "inf"],
        ["demo-nonmarkov", "--theta", "0"],
        ["verify-qubit", "--pairs", "0"],
        ["verify-qubit", "--samples", "-1"],
        ["verify-ndim", "--scheme", "ground", "--pole-mass", "1.5"],
        ["verify-ndim", "--dim", "12", "--radius", "10", "--scheme", "ground", "--pole-mass", "0.9",
         "--pairs", "1"],
        # past numpy's int64 limit, which a hit count must fit
        ["verify-qubit", "--pairs", "3", "--samples", "10000000000000000000"],
        # the first pair is in region; the run's draw of 100 pairs is not
        ["verify-ndim", "--dim", "6", "--scheme", "ground", "--pole-mass", "0.9", "--radius", "0.4",
         "--pairs", "100"],
        ["simulate-protocol", "--seed", "18446744073709551616"],
    ],
)
def test_bad_input_exits_2_before_any_side_effect(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main([*argv, "--out-dir", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", [c for c in cli._COMMANDS if c != "simulate-protocol"])
def test_pair_keys_refused_outside_simulate_protocol(tmp_path, capsys, command):
    # pair.N keys fix the protocol's pairs; any other subcommand lacks them, as it lacks rounds
    out = tmp_path / "out"
    cfg = tmp_path / "pairs.cfg"
    cfg.write_text("pair.0 = 0, 0, 1, 1, 0, 0\n")
    assert main([command, "--config", str(cfg), "--out-dir", str(out)]) == 2
    assert "'pair.0' is not valid for " + command in capsys.readouterr().err
    assert not out.exists()


def test_bad_config_values_leave_no_run_dir(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = tmp_path / "bad.cfg"
    for text, command in (
        ("format = yaml\n", "covering"),
        ("pair.0 = nan,0,1, 1,0,0\n", "simulate-protocol"),
        ("pairs = 0\npair.0 = 0,0,1, 1,0,0\n", "simulate-protocol"),
        ("theta = none\n", "demo-nonmarkov"),
    ):
        cfg.write_text(text)
        assert main([command, "--config", str(cfg), "--out-dir", str(out)]) == 2, text
    assert not out.exists()
    capsys.readouterr()


def test_failed_check_exits_1(tmp_path, monkeypatch, capsys):
    def failing(cfg):
        report = run_experiment(cfg)
        summary = dataclasses.replace(report.summary, passed=False)
        return dataclasses.replace(report, summary=summary)

    monkeypatch.setattr(cli, "run_experiment", failing)
    assert main(["covering", "--directions", "100", "--out-dir", str(tmp_path)]) == 1
    assert "[covering] FAIL(" in capsys.readouterr().out


def test_internal_error_exits_3_with_traceback(tmp_path, monkeypatch, capsys):
    def broken(cfg):
        raise ValueError("internal fault")

    monkeypatch.setattr(cli, "run_experiment", broken)
    assert main(["covering", "--directions", "100", "--out-dir", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and "internal fault" in err
    assert not any(tmp_path.iterdir())  # the run failed before its run directory was created


def test_failed_later_run_leaves_no_run_dir(tmp_path, monkeypatch, capsys):
    calls = []

    def third_fails(cfg):
        calls.append(cfg.kind)
        if len(calls) == 3:
            raise RuntimeError("third run fails")
        return run_experiment(cfg)

    monkeypatch.setattr(cli, "run_experiment", third_fails)
    out = tmp_path / "out"
    argv = ["verify-qubit", "--pairs", "20", "--samples", "10", "--out-dir", str(out)]
    assert main(argv) == 3
    assert calls == ["exact-qubit", "exact-qubit", "mc-qubit"]
    assert not out.exists()
    captured = capsys.readouterr()
    assert "[exact-sphere] PASS" in captured.out and "third run fails" in captured.err


def test_failed_protocol_leaves_no_run_dir(tmp_path, monkeypatch, capsys):
    def broken(frame, w, blob):
        raise RuntimeError("measurer fault")

    monkeypatch.setattr(harness, "measure_messages", broken)
    out = tmp_path / "out"
    assert main(["simulate-protocol", "--rounds", "100", "--out-dir", str(out)]) == 3
    assert not out.exists()
    captured = capsys.readouterr()
    assert "measurer fault" in captured.err
    assert "written" not in captured.out


def test_failed_protocol_write_claims_no_write(tmp_path, monkeypatch, capsys):
    def broken(path, data):
        raise OSError("disk full")

    monkeypatch.setattr(cli, "write_bytes_atomic", broken)
    assert main(["simulate-protocol", "--rounds", "100", "--out-dir", str(tmp_path)]) == 3
    captured = capsys.readouterr()
    assert "[protocol] PASS | " in captured.out and "samples_per_pair = 100," in captured.out
    assert "written" not in captured.out  # nothing reached the disk
    assert "disk full" in captured.err


def test_run_and_write_never_build_rows(tmp_path, monkeypatch):
    def no_rows(report):
        raise AssertionError("report.records built on the run path")

    monkeypatch.setattr(onticsim.ExperimentReport, "records", property(no_rows), raising=False)
    argv = ["--seed", "3", "--out-dir", str(tmp_path)]
    assert main(["verify-qubit", "--samples", "10", *argv]) == 0
    assert main(["verify-ndim", *argv]) == 0


def test_python_dash_m_runs_the_cli():
    src = Path(onticsim.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-m", "onticsim", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: onticsim")


def test_verify_ndim_draws_its_pairs_once(tmp_path, monkeypatch):
    harness._MEMO.clear()  # a draw held from an earlier test would hide this one
    draw, draws = harness.make_in_region_pair, []

    def counted(*args, **kwargs):
        draws.append(args)
        return draw(*args, **kwargs)

    monkeypatch.setattr(harness, "make_in_region_pair", counted)
    argv = ["--pairs", "40", "--dim", "3", "--seed", "5", "--out-dir", str(tmp_path)]
    assert main(["verify-ndim", "--samples", "1000", *argv]) == 0
    assert len(draws) == 1
    (run_dir,) = _run_dirs(tmp_path, "verify-ndim")
    # the mc-ndim run shares the draw, so its cases equal those of a config that drew its own
    harness._MEMO.clear()
    cfg = onticsim.ExperimentConfig(kind="mc-ndim", pairs=40, dim=3, seed=5, samples=1000)
    assert render_tabular(run_experiment(cfg)).encode() == (run_dir / "mc-ndim" / "cases.csv").read_bytes()
    assert len(draws) == 2


def test_verify_qubit_draws_each_region_once(tmp_path, monkeypatch):
    harness._MEMO.clear()  # a draw held from an earlier test would hide this one
    bloch, patch, z_mins, patched = harness.random_bloch, icosa.assign_patch, [], []

    def counted_bloch(rng, *, z_min=-1.0, size=None):
        z_mins.append(z_min)
        return bloch(rng, z_min=z_min, size=size)

    def counted_patch(frame, v):
        patched.append(len(v))
        return patch(frame, v)

    monkeypatch.setattr(harness, "random_bloch", counted_bloch)
    monkeypatch.setattr(icosa, "assign_patch", counted_patch)
    argv = ["--pairs", "30", "--samples", "1000", "--seed", "5", "--out-dir", str(tmp_path)]
    assert main(["verify-qubit", *argv]) == 0
    # cone V on its cap, cone W, then sphere V and W: mc-sphere shares exact-sphere's draw
    assert z_mins == [harness._CONE_Z_MIN, -1.0, -1.0, -1.0]
    assert patched == [30]  # the sphere V, once; the cone region is its own frame


def test_signed_zero_fixed_pairs_draw_apart():
    w = (0.6, 0.0, 0.8)
    signed, unsigned = (onticsim.ExperimentConfig(
        kind="protocol", pairs=1, samples=50, seed=3, fixed_pairs=(((zero, 0.0, 1.0), w),))
        for zero in (-0.0, 0.0))
    # configs whose reports differ are told apart, by == and the hash as by the digest
    assert signed != unsigned and signed.digest() != unsigned.digest()
    run_experiment(signed)
    shared = render_tabular(run_experiment(unsigned))
    harness._MEMO.clear()
    assert shared == render_tabular(run_experiment(unsigned))
    assert "(-0, " not in shared
