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
    "covering-two-blocks": dict(kind="covering", pairs=16385),  # a block of 16384 rows and one row
    "witness": dict(kind="witness", theta=0.3, phi_a=0.2, phi_b=1.9),
    # the library runs of PROTOCOL_CASES: the pairs below, normalised
    "protocol-fixed-pairs-report": dict(kind="protocol", pairs=2, samples=300, fixed_pairs=(
        ((0.0, 0.0, 1.0), (0.6, 0.0, 0.8)), ((1 / 3, 2 / 3, -2 / 3), (-0.6, 0.0, 0.8)),
    )),
    "protocol-random-pair-report": dict(kind="protocol", pairs=1, samples=400),
    # w = v and w = -v at the pole: p = 1 and p = 0, whose z is its limit
    "protocol-degenerate-pairs": dict(kind="protocol", pairs=2, samples=300, fixed_pairs=(
        ((0.0, 0.0, 1.0), (0.0, 0.0, 1.0)), ((0.0, 0.0, 1.0), (0.0, 0.0, -1.0)),
    )),
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
PINNED_FORMAT = "format: onticsim-report 12"
# (render_structured, render_tabular) SHA-256 per case; (messages.bin, transcript.txt) per
# protocol case.
DIGESTS = {
    "covering": (
        "e5a36ae37590f588dce7b26d7637e7e9591a5211ea73218ba7a0c514c35f0f05",
        "fd78d4026f32823e05d9ce64015dc8efcd7bbdaa51127a4da0cb79535200161a",
    ),
    "covering-two-blocks": (
        "fc6532815fd58e79ec8a01e6e846c8fad5290ca7c50e804ab12f8630425d2709",
        "f834e03b894b85a926ac13787af4d31263e473247dca1a455fc32b583699e0ea",
    ),
    "exact-ndim-ground": (
        "25f9bc6801ee4fa3394a312a3ad34dbd6f555865a13ed67e6969923121a0c333",
        "afb6b365a4febb0b5b14824b72dbc388537a3603e0f5d69babcb61cb7adaeac9",
    ),
    "exact-ndim-uniform": (
        "a0ceb2efb6fe30aca74b19684ebec1da236a768e9ff7bfa1e097aac8157a2819",
        "7842da4ca274f8511bb82df0c30552312253893451971f20399d19b9b3eb7e56",
    ),
    "exact-qubit-cone": (
        "889a206ec1dd495b67c915c9f6f8ef25857f407ccfbd2abfcf35d039bf38fc1c",
        "8e83b12113eeff77bc93d551be90309e9b22d2af4da6c89895b09f2b43b606fa",
    ),
    "exact-qubit-sphere": (
        "7da29b61d858bde6c4e87b319353b32d3e5dfbcaec9b5c30dfb97e19b24c93ce",
        "b76834736df4169422e9614926e6a02ae778c3bb5b23eaa9cb0b5a533448ff43",
    ),
    "mc-ndim-ground": (
        "76d8107a2d96b695a4f441ec9bf153c86634aca25c9a7a88c55871836b768381",
        "9cc12c92e253710484c36e4d6ccb4c03b2769b0e013f61971559a29e81b6f723",
    ),
    "mc-ndim-uniform": (
        "ed5447888b5be7cb6cb283d32bbe482f17fb19779a7f032f3fbc19845aae651c",
        "7d9917f21231fb5d10c05551305f4455c1848fa5b9ba313314bfecd544862394",
    ),
    "mc-qubit-cone": (
        "ec7d84f97e1f6a567985ed4b6dcc92a7c8feb235753290ac758bf7a3b7597dcd",
        "18dc747e824e712f9ac0b5d7b10a28e1a7724733eab2bfd844706b6885c3b7a7",
    ),
    "mc-qubit-sphere": (
        "3eafe01f8f7b5b38e365054b64789fd7335b8d61e63ee7ce6ef54c1eab8597a3",
        "5fd2991398ecf343d06d6fb6815efc76a7a89cf2047f673212ca85d9010cf82b",
    ),
    "positivity-sweep": (
        "219d8be52fba02ea691b266088fa0962d420f38202d13fd785b4362f4ffeb106",
        "eaaa56b60cabb22e6acb773aa8c7f7c24d15ba97d7b2bb829986a26466105053",
    ),
    "protocol-degenerate-pairs": (
        "9da180d688253ee293a87153d5b03990517c7f69c0ab77a7b8686a685715e2ed",
        "85231aa5a5da9fc31970785e3ac7758509b5cecce154d0919089e5f4f8f701c5",
    ),
    "protocol-fixed-pairs": (
        "a7a5ac84d80beb394791354f58ae43aa77854643ede20716d9aab5586cf7aa98",
        "0aa10da55c148215986584eda27812f54611ee727928bc2ff55881fb7f876c75",
    ),
    "protocol-fixed-pairs-report": (
        "f356aa642eb52d290badc0f6081907444c9ff05339031fdd634e10848739b95e",
        "c739a86c557ec1bfdb489c1931499cd07f0afd223abdb193a5d404aba3533823",
    ),
    "protocol-random-pair": (
        "723dabfd67f603f02c4c7860fac42b8b89d938ba17fee6e20f88c0a82bb46da4",
        "d7aa14a27562ec8bb202f38bf7882985a0c1e22a49a63cf6fc5aaf6733b84b15",
    ),
    "protocol-random-pair-report": (
        "06b7a4aa1f0842c362b62faf4b3be4a5c7094734758836b9fcd024e39bad300a",
        "99e8c38a29dfc0fe7850aa3c705027c291061e7881b2c0cad5e26d7442ae0923",
    ),
    "witness": (
        "50273fb24aa9f6f4ea2885f1729ec724f3e6b98e84e7ddfaaa626bcba2a35794",
        "8b4b172112282c3cf40c9573532ea69d47eef365244ddfb2200cd3e00152ae9b",
    ),
}
# SHA-256 of every file each CLI case writes, by path.
CLI_DIGESTS = {
    "verify-ndim-samples": {
        "exact-ndim/cases.csv": "7842da4ca274f8511bb82df0c30552312253893451971f20399d19b9b3eb7e56",
        "exact-ndim/report.txt": "a0ceb2efb6fe30aca74b19684ebec1da236a768e9ff7bfa1e097aac8157a2819",
        "mc-ndim/cases.csv": "7d9917f21231fb5d10c05551305f4455c1848fa5b9ba313314bfecd544862394",
        "mc-ndim/report.txt": "ed5447888b5be7cb6cb283d32bbe482f17fb19779a7f032f3fbc19845aae651c",
    },
    "verify-qubit-samples": {
        "exact-cone/cases.csv": "8e83b12113eeff77bc93d551be90309e9b22d2af4da6c89895b09f2b43b606fa",
        "exact-cone/report.txt": "889a206ec1dd495b67c915c9f6f8ef25857f407ccfbd2abfcf35d039bf38fc1c",
        "exact-sphere/cases.csv": "b76834736df4169422e9614926e6a02ae778c3bb5b23eaa9cb0b5a533448ff43",
        "exact-sphere/report.txt": "7da29b61d858bde6c4e87b319353b32d3e5dfbcaec9b5c30dfb97e19b24c93ce",
        "mc-sphere/cases.csv": "15d0f4d827b86150cd8501b393db0e9855e667bcc76a98a9fad8c89e99eca0fd",
        "mc-sphere/report.txt": "1e7d57f1d3c4085a03802849e360382183457ace71b9e548adfbdc3f6b47ec41",
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


def test_degenerate_rows_read_z_zero():
    report = run_experiment(ExperimentConfig(seed=SEED, **CASES["protocol-degenerate-pairs"]))
    lines = [line for line in render_structured(report).splitlines() if line.startswith("case ")]
    assert [line.split(" | ")[4:7] for line in lines] == [
        ["born_p = 1", "freq = 1", "z = 0"], ["born_p = 0", "freq = 0", "z = 0"],
    ]
    assert report.passed


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
