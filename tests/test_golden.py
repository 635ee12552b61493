"""Pinned report bytes: one small seeded run per experiment kind and variant.

Each case renders both report formats and compares their SHA-256 with a
digest written below; every experiment kind has at least one case. Two
``simulate-protocol`` runs, one with fixed pairs and one with a random
pair, pin ``messages.bin`` and ``transcript.txt`` the same way, and must
write exactly the files of the library run of their ``-report`` case. A
refactor that keeps results must keep these bytes. The digests may change
only together with a ``FORMAT_HEADER`` bump in ``onticsim.reports`` and a
CHANGES.md entry that says why. ``PINNED_FORMAT`` is the header the
digests were written under, and a test holds it equal to ``FORMAT_HEADER``.

``CLI_CASES`` pin every report file of the subcommands whose runs share one
pair draw (``verify-qubit`` and ``verify-ndim`` with Monte Carlo), by path.

Run as a script from the repository root to print the ``PINNED_FORMAT``,
``DIGESTS`` and ``CLI_DIGESTS`` of the current code, ready to paste below:

    PYTHONPATH=src python tests/test_golden.py

While ``FORMAT_HEADER`` equals ``PINNED_FORMAT``, the script refuses (exit
1) to print a table in which a pinned digest has changed.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

from onticsim import EXPERIMENT_KINDS, ExperimentConfig, run_experiment
from onticsim.cli import main
from onticsim.reports import FORMAT_HEADER, render_structured, render_tabular

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
# Subcommands whose runs share one pair draw; every report file they write is pinned in
# CLI_DIGESTS, by path in the run directory.
CLI_CASES = {
    "verify-qubit-samples": ["verify-qubit", "--pairs", "20", "--samples", "1000"],
    "verify-ndim-samples": ["verify-ndim", "--pairs", "10", "--dim", "3", "--samples", "1000"],
}

# The FORMAT_HEADER the digests below were written under.
PINNED_FORMAT = "format: onticsim-report 7"
# (render_structured, render_tabular) SHA-256 per case; (messages.bin, transcript.txt) per
# protocol case.
DIGESTS = {
    "covering": (
        "be9de377ce04f178601cb83862c4f1c224a658e37b2ba86aed9aed7110801097",
        "e8e89789b9d8374e5fac00cb480dc1c5723a95ec82dea26b12e34689a0fd8287",
    ),
    "exact-ndim-ground": (
        "75c187f2c3de402002344331a1709d1ba8a9a18191acd74d19e5bd8e75754b65",
        "d600fbe03f5069572b16b5c6a13959779e6572a1b0b003ef389461a70caa6298",
    ),
    "exact-ndim-uniform": (
        "f5ec026895b0c8021c7bbd95d7a9c67c3a2037749e57239c936f528cbab08506",
        "929ead5c5e4d0668b54cac31cf03bc683c442888e288430f6249ee803bee5819",
    ),
    "exact-qubit-cone": (
        "0f796d53ff51ecf9c7b593a10f940883bf6fec5ffb6d06f2c55c8f23b60af4b3",
        "1580d653b2788391dda072102691b545f504835186178b91e67a88e35534810d",
    ),
    "exact-qubit-sphere": (
        "7c99002d53c67198255e7ce9e10be602cb74987affc21c530908b1a2b98a002b",
        "a7fbbaf27ba43a88d06b0b78e651880dc0838c900450574c455e79e0739be66f",
    ),
    "mc-ndim-ground": (
        "33c2303cb717269c105f0367294b2ce2f730623fd212479186f666bf49308c0e",
        "9a6bd3ac28141407ec3fee38a69e6404663e37e7ba95d4d069d51457af817e0b",
    ),
    "mc-ndim-uniform": (
        "58637896fdabaa9409ca0fe5eb36805ad1f934fc92659eb6988f35dcf83b9d06",
        "f3bb14382a61c12e4edf073da3d8db75232b59063768617789b384f981976263",
    ),
    "mc-qubit-cone": (
        "0785e445353880bbbca2dfc317e3a7034e0aa8f4adbc0b5f3f5a77c1e3ed1eaf",
        "36b61ec13ccf05832b5345d3b48ab957b5c9610d943c3b957779442b35d73479",
    ),
    "mc-qubit-sphere": (
        "5bfdbf5ce74f3eaf0f4335db3a889ff21bce4f6a0916a6d4bd001b956917ac0b",
        "9188d3f8c5f6af25c69602d0c38a5040e2d185f3c6b1dafde1d6a1674c95a1f0",
    ),
    "positivity-sweep": (
        "23a41393c0b61b72db1a5b9ed1917b93c20cd1b83db1c0b5d66e7efa6adfacdf",
        "5086f76e5c92945e74d9eab53d42bfa34cfc65195131f00f9beb90c2469bc4d6",
    ),
    "protocol-fixed-pairs": (
        "6db92ea78e5c5a3057b6e2b7420ee611390756a9eb26068aa1d4fd99fd0d9e92",
        "0aa10da55c148215986584eda27812f54611ee727928bc2ff55881fb7f876c75",
    ),
    "protocol-fixed-pairs-report": (
        "f87d14ee95e54092a9f7bf754f357aca1b53913958cb8a6fb8a2205a41619e6e",
        "e71f20f35954a3e50aaaa7dafb357f7b1e29e6be52916f8315c1a05aec29b1f7",
    ),
    "protocol-random-pair": (
        "723dabfd67f603f02c4c7860fac42b8b89d938ba17fee6e20f88c0a82bb46da4",
        "d7aa14a27562ec8bb202f38bf7882985a0c1e22a49a63cf6fc5aaf6733b84b15",
    ),
    "protocol-random-pair-report": (
        "3e122ba75880091dac573c52b9250d6280906055f9fd86c2c548112cbb9fe57f",
        "c53479e6b3af8e196ffeb3d5d7f2697b366dd3efdd2b96af900a1384c9f43882",
    ),
    "witness": (
        "5c204d67facf9ea7f10dbcdf5572c0912a6096a4afeae451453119222e2e7d99",
        "8ba11fb96e6b44015dc448541245c9ef47ebccca0ca4424d74e96e596675755b",
    ),
}
# SHA-256 of every file each CLI case writes, by path.
CLI_DIGESTS = {
    "verify-ndim-samples": {
        "exact-ndim/cases.csv": "929ead5c5e4d0668b54cac31cf03bc683c442888e288430f6249ee803bee5819",
        "exact-ndim/report.txt": "f5ec026895b0c8021c7bbd95d7a9c67c3a2037749e57239c936f528cbab08506",
        "mc-ndim/cases.csv": "f3bb14382a61c12e4edf073da3d8db75232b59063768617789b384f981976263",
        "mc-ndim/report.txt": "58637896fdabaa9409ca0fe5eb36805ad1f934fc92659eb6988f35dcf83b9d06",
    },
    "verify-qubit-samples": {
        "exact-cone/cases.csv": "1580d653b2788391dda072102691b545f504835186178b91e67a88e35534810d",
        "exact-cone/report.txt": "0f796d53ff51ecf9c7b593a10f940883bf6fec5ffb6d06f2c55c8f23b60af4b3",
        "exact-sphere/cases.csv": "a7fbbaf27ba43a88d06b0b78e651880dc0838c900450574c455e79e0739be66f",
        "exact-sphere/report.txt": "7c99002d53c67198255e7ce9e10be602cb74987affc21c530908b1a2b98a002b",
        "mc-sphere/cases.csv": "79c8bd1e831e9fcd9247272dba1bf50de5122342d8e9aee92082deba4d209007",
        "mc-sphere/report.txt": "1225a2bb19071ce90928bb000b8ca332c951d5e2d9f234dc5e1070a3bad336e3",
    },
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _command_files(argv: list) -> dict:
    """Bytes of every file the command writes at SEED, by path in its run directory."""
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([*argv, "--seed", str(SEED), "--out-dir", str(Path(tmp) / "out")])
        assert code == 0, argv
        (run_dir,) = (Path(tmp) / "out").iterdir()
        paths = [p for p in run_dir.rglob("*") if p.is_file()]
        return {p.relative_to(run_dir).as_posix(): p.read_bytes() for p in paths}


def _protocol_files(name: str) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "protocol.cfg"
        config.write_text(PROTOCOL_CASES[name])
        return _command_files(["simulate-protocol", "--config", str(config)])


def _cli_digests(name: str) -> dict:
    files = _command_files(CLI_CASES[name])
    return {path: hashlib.sha256(files[path]).hexdigest() for path in sorted(files)}


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


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_command_bytes_pinned(name):
    assert _cli_digests(name) == CLI_DIGESTS[name]


def test_digests_pinned_under_the_current_format():
    assert PINNED_FORMAT == FORMAT_HEADER


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
    table = {name: _digests(name) for name in sorted([*CASES, *PROTOCOL_CASES])}
    cli_table = {name: _cli_digests(name) for name in sorted(CLI_CASES)}
    changed = [name for name, digests in table.items() if DIGESTS.get(name, digests) != digests]
    changed += [name for name, digests in cli_table.items() if CLI_DIGESTS.get(name, digests) != digests]
    if changed and FORMAT_HEADER == PINNED_FORMAT:
        sys.exit(f"digests of {', '.join(changed)} changed under {FORMAT_HEADER!r}; "
                 "bump FORMAT_HEADER in onticsim.reports first")
    print(f'PINNED_FORMAT = "{FORMAT_HEADER}"')
    print("DIGESTS = {")
    for name, (structured, tabular) in table.items():
        print(f'    "{name}": (\n        "{structured}",\n        "{tabular}",\n    ),')
    print("}")
    print("CLI_DIGESTS = {")
    for name, digests in cli_table.items():
        print(f'    "{name}": {{')
        for path, digest in digests.items():
            print(f'        "{path}": "{digest}",')
        print("    },")
    print("}")
