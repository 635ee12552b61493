"""Pinned report bytes: one small seeded run per experiment kind and variant.

Each case renders both report formats and compares their SHA-256 with a
digest written below; every experiment kind has at least one case. Two
``simulate-protocol`` runs, one with fixed pairs and one with a random
pair, pin ``messages.bin`` and ``transcript.txt`` the same way, and must
write exactly the files of the library run of their ``-report`` case. A
refactor that keeps results must keep these bytes. The digests may change only together with a ``FORMAT_HEADER``
bump in ``onticsim.reports`` and a CHANGES.md entry that says why.

Run as a script from the repository root to print the ``DIGESTS`` table
of the current code, ready to paste below:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

import pytest

from onticsim import EXPERIMENT_KINDS, ExperimentConfig, run_experiment
from onticsim.cli import main
from onticsim.reports import render_structured, render_tabular

SEED = 11

CASES = {
    "exact-qubit-sphere": dict(kind="exact-qubit", pairs=20, region="sphere"),
    "exact-qubit-cone": dict(kind="exact-qubit", pairs=20, region="cone"),
    "mc-qubit-sphere": dict(kind="mc-qubit", pairs=10, samples=1000, region="sphere"),
    "mc-qubit-cone": dict(kind="mc-qubit", pairs=10, samples=1000, region="cone"),
    "exact-ndim-uniform": dict(kind="exact-ndim", pairs=10, dim=3, scheme="uniform"),
    "exact-ndim-ground": dict(kind="exact-ndim", pairs=10, dim=3, scheme="ground", pole_mass=0.7),
    "mc-ndim-uniform": dict(kind="mc-ndim", pairs=10, samples=1000, dim=3, scheme="uniform"),
    "mc-ndim-ground": dict(kind="mc-ndim", pairs=10, samples=1000, dim=4, scheme="ground"),
    "positivity-sweep": dict(kind="positivity-sweep", x_step=0.05, events=200),
    "covering": dict(kind="covering", pairs=500),
    "witness": dict(kind="witness", theta=0.3, phi_a=0.2, phi_b=1.9),
    # the library runs of PROTOCOL_CASES: the pairs below, normalised
    "protocol-fixed-pairs-report": dict(kind="protocol", pairs=2, samples=300, fixed_pairs=(
        ((0.0, 0.0, 1.0), (0.6, 0.0, 0.8)), ((1 / 3, 2 / 3, -2 / 3), (-0.6, 0.0, 0.8)),
    )),
    "protocol-random-pair-report": dict(kind="protocol", pairs=1, samples=400),
}
# simulate-protocol config files; pair.N keys fix (v, w), unnormalised on purpose.
PROTOCOL_CASES = {
    "protocol-fixed-pairs": (
        "rounds = 300\npair.0 = 0, 0, 1, 0.6, 0, 0.8\npair.1 = 1, 2, -2, -3, 0, 4\n"
    ),
    "protocol-random-pair": "rounds = 400\npairs = 1\n",
}

# (render_structured, render_tabular) SHA-256 per case; (messages.bin, transcript.txt) per
# protocol case.
DIGESTS = {
    "covering": (
        "6fbc8a60babde6c688056aa67b36d607c41b6f11db743f0a01f6a2e37251e5b7",
        "e8e89789b9d8374e5fac00cb480dc1c5723a95ec82dea26b12e34689a0fd8287",
    ),
    "exact-ndim-ground": (
        "f5e8906208643fec40abaf144bf36b7948f9d93d48f71218ee6804727cd9aa7c",
        "d600fbe03f5069572b16b5c6a13959779e6572a1b0b003ef389461a70caa6298",
    ),
    "exact-ndim-uniform": (
        "924a0f01aa10bb42404dd9754d56196ca73eaeebb614ffead90903ed3a58aecd",
        "929ead5c5e4d0668b54cac31cf03bc683c442888e288430f6249ee803bee5819",
    ),
    "exact-qubit-cone": (
        "14ba040f5d0b257d68610c46e0ca150da7f4cd8a932258082da0a8dde21869a4",
        "1580d653b2788391dda072102691b545f504835186178b91e67a88e35534810d",
    ),
    "exact-qubit-sphere": (
        "9b0def75ce5ea1ac233ea047cdd19a5df4e8a4f6289f1a25dec3f422e39c6e37",
        "a7fbbaf27ba43a88d06b0b78e651880dc0838c900450574c455e79e0739be66f",
    ),
    "mc-ndim-ground": (
        "d674a95974ceb4a61f0fd8897dfa13437968b45a00b819f942b86893caf2a16e",
        "9a6bd3ac28141407ec3fee38a69e6404663e37e7ba95d4d069d51457af817e0b",
    ),
    "mc-ndim-uniform": (
        "98fd0e1470bdc8fcf2f5740d60c9eb5407e7d1514ca1c236438c384120b0fb8c",
        "f3bb14382a61c12e4edf073da3d8db75232b59063768617789b384f981976263",
    ),
    "mc-qubit-cone": (
        "a75bab79ba03b20bc24dea03ea190c59fcbc8b5a89b158775dd446edf28dccd1",
        "36b61ec13ccf05832b5345d3b48ab957b5c9610d943c3b957779442b35d73479",
    ),
    "mc-qubit-sphere": (
        "d47b5d660b0e79b62eba1cfa1c6cc2ff21dadf98b9cd51046f887e00ab972155",
        "9188d3f8c5f6af25c69602d0c38a5040e2d185f3c6b1dafde1d6a1674c95a1f0",
    ),
    "positivity-sweep": (
        "8fe9c2cb8496c4e24b9ae073750e616331a2b57732dc4eb0064b92f30fca7e2c",
        "5086f76e5c92945e74d9eab53d42bfa34cfc65195131f00f9beb90c2469bc4d6",
    ),
    "protocol-fixed-pairs": (
        "50242066d1eb8e4365396b5da8894cff26e5e24947d39f0ef9519724371ad732",
        "293102bfe29905ff8ade656bf06c889775fdb51b5a213b170dbe80fe389910b3",
    ),
    "protocol-fixed-pairs-report": (
        "3ca8ace1a482bf05a593d532995dddca52b1a61c14d3a97d67ef249c11044b7b",
        "e71f20f35954a3e50aaaa7dafb357f7b1e29e6be52916f8315c1a05aec29b1f7",
    ),
    "protocol-random-pair": (
        "723dabfd67f603f02c4c7860fac42b8b89d938ba17fee6e20f88c0a82bb46da4",
        "d7aa14a27562ec8bb202f38bf7882985a0c1e22a49a63cf6fc5aaf6733b84b15",
    ),
    "protocol-random-pair-report": (
        "d0eec834aac5837e728ca46564c431dd6f66cfbf26ae56e7e1ef6f6013583b79",
        "c53479e6b3af8e196ffeb3d5d7f2697b366dd3efdd2b96af900a1384c9f43882",
    ),
    "witness": (
        "45bb89899053b44ac843cc07fa90e04b2038d0237b3dabb2cda7740ea784c281",
        "8ba11fb96e6b44015dc448541245c9ef47ebccca0ca4424d74e96e596675755b",
    ),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _protocol_files(name: str) -> dict:
    """Bytes of every file the command writes, by path in its run directory."""
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "protocol.cfg"
        config.write_text(PROTOCOL_CASES[name])
        argv = ["simulate-protocol", "--config", str(config), "--seed", str(SEED)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([*argv, "--out-dir", str(Path(tmp) / "out")])
        assert code == 0, name
        (run_dir,) = (Path(tmp) / "out").iterdir()
        paths = [p for p in run_dir.rglob("*") if p.is_file()]
        return {p.relative_to(run_dir).as_posix(): p.read_bytes() for p in paths}


def _digests(name: str) -> tuple:
    if name in PROTOCOL_CASES:
        files = _protocol_files(name)
        names = ("messages.bin", "transcript.txt")
        return tuple(hashlib.sha256(files[name]).hexdigest() for name in names)
    report = run_experiment(ExperimentConfig(seed=SEED, **CASES[name]))
    return _sha(render_structured(report)), _sha(render_tabular(report))


@pytest.mark.parametrize("name", sorted([*CASES, *PROTOCOL_CASES]))
def test_report_bytes_pinned(name):
    assert _digests(name) == DIGESTS[name]


def test_every_kind_has_a_golden_case():
    assert {case["kind"] for case in CASES.values()} == set(EXPERIMENT_KINDS)


@pytest.mark.parametrize("name", sorted(PROTOCOL_CASES))
def test_protocol_command_writes_the_library_run(name):
    report = run_experiment(ExperimentConfig(seed=SEED, **CASES[f"{name}-report"]))
    expected = {
        "protocol/report.txt": render_structured(report).encode("utf-8"),
        "protocol/cases.csv": render_tabular(report).encode("utf-8"),
        **dict(report.files),
    }
    assert _protocol_files(name) == expected


if __name__ == "__main__":
    print("DIGESTS = {")
    for name in sorted([*CASES, *PROTOCOL_CASES]):
        structured, tabular = _digests(name)
        print(f'    "{name}": (\n        "{structured}",\n        "{tabular}",\n    ),')
    print("}")
