"""Planted faults on the 10-byte wire path: each must make the protocol gate fail.

The faults are planted in ``harness``, where the ``protocol`` kind calls
the preparer and the measurer, and the run goes through the command line.
"""

import pytest

from onticsim import ExperimentConfig, harness, run_experiment
from onticsim.cli import main


def _patch_off_by_one(prepare_messages):
    def prepare(frame, v, rounds, rng):
        messages = prepare_messages(frame, v, rounds, rng)
        messages["k"] = messages["k"] % 12 + 1
        return messages

    return prepare


def _biased(measure_messages, delta=0.1):
    def measure(frame, w, data):
        return measure_messages(frame, w, data) + delta

    return measure


@pytest.mark.parametrize("target, fault", [
    ("prepare_messages", _patch_off_by_one),
    ("measure_messages", _biased),
])
def test_wire_fault_fails_the_protocol(tmp_path, monkeypatch, capsys, target, fault):
    monkeypatch.setattr(harness, target, fault(getattr(harness, target)))
    argv = ["simulate-protocol", "--pairs", "4", "--rounds", "20000", "--seed", "5"]
    assert main([*argv, "--out-dir", str(tmp_path)]) == 1
    (run_dir,) = tmp_path.iterdir()
    assert (run_dir / "transcript.txt").read_text().endswith("\npassed = false\n")
    assert "[protocol] FAIL(z_within_limit) | " in capsys.readouterr().out


def test_same_run_without_a_fault_passes(tmp_path, capsys):
    argv = ["simulate-protocol", "--pairs", "4", "--rounds", "20000", "--seed", "5"]
    assert main([*argv, "--out-dir", str(tmp_path)]) == 0
    assert "[protocol] PASS | " in capsys.readouterr().out


def test_protocol_allows_no_failing_pair(monkeypatch):
    cfg = ExperimentConfig(kind="protocol", pairs=100, samples=1000, seed=1)
    report = run_experiment(cfg)
    assert report.passed
    assert dict(report.summary.stats)["allowed_failures"] == 0
    # one pair in 100 whose measurer never fires: within the budget of the mc kinds
    measure_messages = harness.measure_messages
    calls = []

    def first_pair_silent(frame, w, data):
        calls.append(w)
        return measure_messages(frame, w, data) * (len(calls) > 1)

    monkeypatch.setattr(harness, "measure_messages", first_pair_silent)
    faulty = run_experiment(cfg)
    assert dict(faulty.summary.stats)["z_failures"] == 1 <= harness.allowed_z_failures(cfg.pairs)
    assert not faulty.passed


def test_fault_on_a_degenerate_pair_fails_the_protocol(tmp_path, monkeypatch, capsys):
    # w = v and w = -v at the pole: p = 1 and p = 0; a measurer that fires at p = 0 scores z = inf
    measure_messages = harness.measure_messages

    def measure(frame, w, data):
        p = measure_messages(frame, w, data)
        return p + 1e-3 if w[2] < 0.0 else p

    monkeypatch.setattr(harness, "measure_messages", measure)
    config = tmp_path / "protocol.cfg"
    config.write_text("rounds = 20000\npair.0 = 0, 0, 1, 0, 0, 1\npair.1 = 0, 0, 1, 0, 0, -1\n")
    argv = ["simulate-protocol", "--config", str(config), "--seed", "5"]
    assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 1
    (run_dir,) = (tmp_path / "out").iterdir()
    cases = [line for line in (run_dir / "protocol" / "report.txt").read_text().splitlines()
             if line.startswith("case ")]
    assert [line.split(" | ")[6] for line in cases] == ["z = 0", "z = inf"]
    statuses = [line for line in (run_dir / "transcript.txt").read_text().splitlines() if "status" in line]
    assert statuses == ["  status = ok", "  status = outside tolerance"]
    assert "[protocol] FAIL(z_within_limit) | " in capsys.readouterr().out
