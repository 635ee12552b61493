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
1) to print a table in which a pinned digest has changed. On stderr it lists
the files whose bytes changed beyond the header line: each ``report.txt`` is
hashed again with ``PINNED_FORMAT`` as its first line, every other file as it
is, and compared with its pinned digest. So after a header bump the list names
what the new format really changed.
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
    "covering-two-blocks": dict(kind="covering", pairs=8193),  # blocks of 4096 and 4097 rows
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
PINNED_FORMAT = "format: onticsim-report 8"
# (render_structured, render_tabular) SHA-256 per case; (messages.bin, transcript.txt) per
# protocol case.
DIGESTS = {
    "covering": (
        "6ff3e0af74794a0503930f31c8b138c28da09f56dea8a89c8b02276948079860",
        "e8e89789b9d8374e5fac00cb480dc1c5723a95ec82dea26b12e34689a0fd8287",
    ),
    "covering-two-blocks": (
        "7554ae4cb600f197a06e273ff0df2318a737996f9dad58f9516335f0f6f96090",
        "04e199110a3881e87e37403123aa7451f3f116b32219738770fbb7de32d3eb60",
    ),
    "exact-ndim-ground": (
        "3e28eb03c0fe70187a268c62d0dbdb12e763cbc62a95f41f52760873bac12d43",
        "d600fbe03f5069572b16b5c6a13959779e6572a1b0b003ef389461a70caa6298",
    ),
    "exact-ndim-uniform": (
        "7834388815ac53368e024880feb57ea15221c3b791d8e29f0a960e0537bc9f6d",
        "929ead5c5e4d0668b54cac31cf03bc683c442888e288430f6249ee803bee5819",
    ),
    "exact-qubit-cone": (
        "0f44761b3c1125039d009f3629e10f1cbecb3ea3f5613c94c4d4354177fed1ba",
        "1580d653b2788391dda072102691b545f504835186178b91e67a88e35534810d",
    ),
    "exact-qubit-sphere": (
        "0d3264e20f4f112632b07da519acd48383195a37200f427165b771eef6827f02",
        "a7fbbaf27ba43a88d06b0b78e651880dc0838c900450574c455e79e0739be66f",
    ),
    "mc-ndim-ground": (
        "e57624cd814b517b65f4a0563c6c53b5f31175db5149b1d0c31d111d2014087f",
        "9a6bd3ac28141407ec3fee38a69e6404663e37e7ba95d4d069d51457af817e0b",
    ),
    "mc-ndim-uniform": (
        "19e724ad84524c9ac0a92349d7463d9b2e3f22120db07fc6b1ed7270e329bb5f",
        "f3bb14382a61c12e4edf073da3d8db75232b59063768617789b384f981976263",
    ),
    "mc-qubit-cone": (
        "3748fcabddb0201e66f1867e84216d95d410f682f7f255649c8941a859f11d6b",
        "36b61ec13ccf05832b5345d3b48ab957b5c9610d943c3b957779442b35d73479",
    ),
    "mc-qubit-sphere": (
        "70ab3d93b5124f8b36b5613c637893c57cafa4aaa221992dcb37565761d4e0dd",
        "9188d3f8c5f6af25c69602d0c38a5040e2d185f3c6b1dafde1d6a1674c95a1f0",
    ),
    "positivity-sweep": (
        "2b50e10a75d5835644d82819b9ba55d9b94fccb00c5a42e83faca8f6804885a9",
        "5086f76e5c92945e74d9eab53d42bfa34cfc65195131f00f9beb90c2469bc4d6",
    ),
    "protocol-fixed-pairs": (
        "6db92ea78e5c5a3057b6e2b7420ee611390756a9eb26068aa1d4fd99fd0d9e92",
        "0aa10da55c148215986584eda27812f54611ee727928bc2ff55881fb7f876c75",
    ),
    "protocol-fixed-pairs-report": (
        "61f1b963f71926698b5242d854b81fe8958c451f371e68573c7c8777ac5dbf8d",
        "e71f20f35954a3e50aaaa7dafb357f7b1e29e6be52916f8315c1a05aec29b1f7",
    ),
    "protocol-random-pair": (
        "723dabfd67f603f02c4c7860fac42b8b89d938ba17fee6e20f88c0a82bb46da4",
        "d7aa14a27562ec8bb202f38bf7882985a0c1e22a49a63cf6fc5aaf6733b84b15",
    ),
    "protocol-random-pair-report": (
        "ec3371834251d9918716f91fa16a5f4817ee29d07ea21cac1bfe54d2f371bc89",
        "c53479e6b3af8e196ffeb3d5d7f2697b366dd3efdd2b96af900a1384c9f43882",
    ),
    "witness": (
        "6fa71e409f2cc0ce6c2d9cd709eefdead7f7950ddc8a3fc4e0aaa205149e2fd7",
        "8ba11fb96e6b44015dc448541245c9ef47ebccca0ca4424d74e96e596675755b",
    ),
}
# SHA-256 of every file each CLI case writes, by path.
CLI_DIGESTS = {
    "verify-ndim-samples": {
        "exact-ndim/cases.csv": "929ead5c5e4d0668b54cac31cf03bc683c442888e288430f6249ee803bee5819",
        "exact-ndim/report.txt": "7834388815ac53368e024880feb57ea15221c3b791d8e29f0a960e0537bc9f6d",
        "mc-ndim/cases.csv": "f3bb14382a61c12e4edf073da3d8db75232b59063768617789b384f981976263",
        "mc-ndim/report.txt": "19e724ad84524c9ac0a92349d7463d9b2e3f22120db07fc6b1ed7270e329bb5f",
    },
    "verify-qubit-samples": {
        "exact-cone/cases.csv": "1580d653b2788391dda072102691b545f504835186178b91e67a88e35534810d",
        "exact-cone/report.txt": "0f44761b3c1125039d009f3629e10f1cbecb3ea3f5613c94c4d4354177fed1ba",
        "exact-sphere/cases.csv": "a7fbbaf27ba43a88d06b0b78e651880dc0838c900450574c455e79e0739be66f",
        "exact-sphere/report.txt": "0d3264e20f4f112632b07da519acd48383195a37200f427165b771eef6827f02",
        "mc-sphere/cases.csv": "79c8bd1e831e9fcd9247272dba1bf50de5122342d8e9aee92082deba4d209007",
        "mc-sphere/report.txt": "9fc22ecdfec6c7e101c79b2d56df64712ba2e6c1b9592d7e275b139ec8153ae8",
    },
}


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


def _outputs(name: str) -> dict:
    """The bytes of a case's pinned files by name, in the order of its DIGESTS entry."""
    if name in PROTOCOL_CASES:
        files = _protocol_files(name)
        return {name: files[name] for name in ("messages.bin", "transcript.txt")}
    report = run_experiment(ExperimentConfig(seed=SEED, **CASES[name]))
    return {"report.txt": render_structured(report).encode(), "cases.csv": render_tabular(report).encode()}


def _digests(outputs: dict) -> tuple:
    """SHA-256 of a case's files, in the order of its DIGESTS entry."""
    return tuple(hashlib.sha256(data).hexdigest() for data in outputs.values())


def _cli_digests(files: dict) -> dict:
    """SHA-256 of a command's files, by path in path order."""
    return {path: hashlib.sha256(files[path]).hexdigest() for path in sorted(files)}


def _under_pinned_format(path: str, data: bytes) -> str:
    """The digest of a file with a ``report.txt``'s first line, its header, put back to PINNED_FORMAT."""
    if path.endswith("report.txt"):
        data = PINNED_FORMAT.encode() + b"\n" + data.split(b"\n", 1)[1]
    return hashlib.sha256(data).hexdigest()


def _changed_beyond_header(files: dict, pinned: dict) -> list:
    """``case path`` of every file that differs from its pinned digest other than in its header."""
    return [f"{case} {path}" for case, by_path in files.items() for path, data in by_path.items()
            if case in pinned and _under_pinned_format(path, data) != pinned[case].get(path)]


@pytest.mark.parametrize("name", sorted([*CASES, *PROTOCOL_CASES]))
def test_report_bytes_pinned(name):
    assert _digests(_outputs(name)) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_command_bytes_pinned(name):
    assert _cli_digests(_command_files(CLI_CASES[name])) == CLI_DIGESTS[name]


def test_listing_skips_only_a_report_header():
    report, csv = PINNED_FORMAT.encode() + b"\nbody\n", b"a\n"
    pinned = {"case": {"report.txt": hashlib.sha256(report).hexdigest(),
                       "cases.csv": hashlib.sha256(csv).hexdigest()}}
    header_only = {"case": {"report.txt": b"format: next\nbody\n", "cases.csv": b"a\n"}}
    assert _changed_beyond_header(header_only, pinned) == []
    # a CSV's first line is data, and a report's body counts
    changed = {"case": {"report.txt": b"format: next\nother\n", "cases.csv": b"b\n"}}
    assert _changed_beyond_header(changed, pinned) == ["case report.txt", "case cases.csv"]
    assert _changed_beyond_header({"new": header_only["case"]}, pinned) == []


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
    outputs = {name: _outputs(name) for name in sorted([*CASES, *PROTOCOL_CASES])}
    cli_files = {name: _command_files(CLI_CASES[name]) for name in sorted(CLI_CASES)}
    table = {name: _digests(files) for name, files in outputs.items()}
    cli_table = {name: _cli_digests(files) for name, files in cli_files.items()}
    changed = [name for name, digests in table.items() if DIGESTS.get(name, digests) != digests]
    changed += [name for name, digests in cli_table.items() if CLI_DIGESTS.get(name, digests) != digests]
    if changed and FORMAT_HEADER == PINNED_FORMAT:
        sys.exit(f"digests of {', '.join(changed)} changed under {FORMAT_HEADER!r}; "
                 "bump FORMAT_HEADER in onticsim.reports first")
    # On stderr, so the tables below stay ready to paste: the files whose bytes changed
    # beyond the header line, and the cases no digest pins yet.
    pinned = {name: dict(zip(outputs[name], DIGESTS[name])) for name in DIGESTS if name in outputs}
    beyond = _changed_beyond_header(outputs, pinned) + _changed_beyond_header(cli_files, CLI_DIGESTS)
    print(f"changed beyond the header line since {PINNED_FORMAT!r}: {', '.join(beyond) or 'none'}",
          file=sys.stderr)
    new = [name for name in [*table, *cli_table] if name not in DIGESTS and name not in CLI_DIGESTS]
    print(f"not pinned before: {', '.join(new) or 'none'}", file=sys.stderr)
    print(f'PINNED_FORMAT = "{FORMAT_HEADER}"')
    print("DIGESTS = {")
    for name, (first, second) in table.items():
        print(f'    "{name}": (\n        "{first}",\n        "{second}",\n    ),')
    print("}")
    print("CLI_DIGESTS = {")
    for name, digests in cli_table.items():
        print(f'    "{name}": {{')
        for path, digest in digests.items():
            print(f'        "{path}": "{digest}",')
        print("    },")
    print("}")
