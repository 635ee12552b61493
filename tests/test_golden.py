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
PINNED_FORMAT = "format: onticsim-report 9"
# (render_structured, render_tabular) SHA-256 per case; (messages.bin, transcript.txt) per
# protocol case.
DIGESTS = {
    "covering": (
        "ad7a5c3443ea3c682ddd8ac66b3cc5729427e0cefbaedd64128749fc579e592d",
        "b8ff2e15859650899c653d8bbc7ec23c2b92fcbafdcc9191c9e81f6b05757f15",
    ),
    "covering-two-blocks": (
        "322a7233cf963dda55c0fdfa6b101b06a012c973251845cca1bd7971ad37673f",
        "611b9389b2c481857bcae45f5413697a07d179832611f7cc25bd53af8826354a",
    ),
    "exact-ndim-ground": (
        "13c1da65f4ba927a4773b57ba533835007235264dfc55ff25c9b4b397b67dc9c",
        "c2ae61b403b9086a28fc110d2948ad5beea12dc7517edf97c404c1d29308ca69",
    ),
    "exact-ndim-uniform": (
        "17c12efae603eb5164c9efac6ae393cd601f075b9189aafb73c253542fe0c9ea",
        "ab5b37975ad9cbcd837017964503d659e7414575afd0604025f93529b2b5786d",
    ),
    "exact-qubit-cone": (
        "df6bc105b533d493a94c63c0dbe5a885aa74eb59c5b904d845ffb51079c9da2b",
        "c52530dcbdaa7487457a419dfce63e93698e8ec09376742f232ae1e1a8223173",
    ),
    "exact-qubit-sphere": (
        "7eef61c5a8f21ebf961b8ddb95449bbff6c47b9aaba6a35bdbc628cc93626a75",
        "4b4aa0a3030b1d858fa55e6d67769a709da09e49436635fb8361bebf8ebb88e8",
    ),
    "mc-ndim-ground": (
        "86aacf1725d836d9e53d72fe1dfc2fa685201d112805bd88f4c099f0c40e020d",
        "62fb10dafbb5c581b513a80359a0bff646741dece8b32c72f074f1b355652aac",
    ),
    "mc-ndim-uniform": (
        "015b67dccd301c4878e5a80a0761e6d21da410e86b04900a24bf0186a7e80484",
        "df47695f09c711718bc3bb8517baa48e5efd0d5955c6f2576e4daba5d06882d4",
    ),
    "mc-qubit-cone": (
        "92d204879c73a26061e7d76a6011b0f6ce47fc0a63f89a17370f378e094867ed",
        "9dec9cf01da030d9ac637d207fd2c51a0f97e87f09bba89208d22e7f9fc0253e",
    ),
    "mc-qubit-sphere": (
        "9c503069ef4c1657619d7b7761c8fdeb808693a61e402f9b3bfef3cdfa8ff3f9",
        "aca2ba9dcf97d58c0b1e85eb6ee878bbcb0a84b5fb1dfeb64790e5405cf0cee9",
    ),
    "positivity-sweep": (
        "0bb76a79b055e2a5d97930f384a3a798fd83bb759c0f02eedbae7f6141e45326",
        "eaaa56b60cabb22e6acb773aa8c7f7c24d15ba97d7b2bb829986a26466105053",
    ),
    "protocol-fixed-pairs": (
        "6db92ea78e5c5a3057b6e2b7420ee611390756a9eb26068aa1d4fd99fd0d9e92",
        "0aa10da55c148215986584eda27812f54611ee727928bc2ff55881fb7f876c75",
    ),
    "protocol-fixed-pairs-report": (
        "e2bd48e06fcc176ae591016b29b74d16286645791decbe5304258ab1972fa87e",
        "15df1f34975c0fe29a833ecb09ddcc8bb1a20fc2f8fb75e9fcd91981bafa67aa",
    ),
    "protocol-random-pair": (
        "723dabfd67f603f02c4c7860fac42b8b89d938ba17fee6e20f88c0a82bb46da4",
        "d7aa14a27562ec8bb202f38bf7882985a0c1e22a49a63cf6fc5aaf6733b84b15",
    ),
    "protocol-random-pair-report": (
        "84adc6761bea4ae2f279e40056298db4ab1fda7375b60344dad63ba3d0b33b35",
        "8fb6d71ca0187f35abd096b8c22b3014b0f8b06787a9ba2a6fe17756a09c6db2",
    ),
    "witness": (
        "53f3a550027e10d4faf0ad8b8c3b419db898524547565443d436a5d7a85ec4d4",
        "8b4b172112282c3cf40c9573532ea69d47eef365244ddfb2200cd3e00152ae9b",
    ),
}
# SHA-256 of every file each CLI case writes, by path.
CLI_DIGESTS = {
    "verify-ndim-samples": {
        "exact-ndim/cases.csv": "ab5b37975ad9cbcd837017964503d659e7414575afd0604025f93529b2b5786d",
        "exact-ndim/report.txt": "17c12efae603eb5164c9efac6ae393cd601f075b9189aafb73c253542fe0c9ea",
        "mc-ndim/cases.csv": "df47695f09c711718bc3bb8517baa48e5efd0d5955c6f2576e4daba5d06882d4",
        "mc-ndim/report.txt": "015b67dccd301c4878e5a80a0761e6d21da410e86b04900a24bf0186a7e80484",
    },
    "verify-qubit-samples": {
        "exact-cone/cases.csv": "c52530dcbdaa7487457a419dfce63e93698e8ec09376742f232ae1e1a8223173",
        "exact-cone/report.txt": "df6bc105b533d493a94c63c0dbe5a885aa74eb59c5b904d845ffb51079c9da2b",
        "exact-sphere/cases.csv": "4b4aa0a3030b1d858fa55e6d67769a709da09e49436635fb8361bebf8ebb88e8",
        "exact-sphere/report.txt": "7eef61c5a8f21ebf961b8ddb95449bbff6c47b9aaba6a35bdbc628cc93626a75",
        "mc-sphere/cases.csv": "76ff58cb24f138748a2dc1b82605b430f6702f710e5796f1e6c09273d0d99893",
        "mc-sphere/report.txt": "435ef84ce8124e4adfef0f66fa0c18bc78fe9798fabffd456c4a7e59782f4156",
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
