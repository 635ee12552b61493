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
PINNED_FORMAT = "format: onticsim-report 11"
# (render_structured, render_tabular) SHA-256 per case; (messages.bin, transcript.txt) per
# protocol case.
DIGESTS = {
    "covering": (
        "713fc48691fd692a7a03e6bbdf852d35fd0d1242ef2bf32a0c0ac2c0fd4e1587",
        "fd78d4026f32823e05d9ce64015dc8efcd7bbdaa51127a4da0cb79535200161a",
    ),
    "covering-two-blocks": (
        "03565b136b5a3bd383802028cb2c54be58d44d1f01f025dd29cc30ff6fadc059",
        "f834e03b894b85a926ac13787af4d31263e473247dca1a455fc32b583699e0ea",
    ),
    "exact-ndim-ground": (
        "6b23dd7647959cd4cc9f61509ca8bb40c840bd73940c4202d9bd7bbf52324ecb",
        "fc28cee8a320b80271531279196ca95e454e20381e68a9bfb26de9cc1a4f944e",
    ),
    "exact-ndim-uniform": (
        "60444d0c660ab24de7695256ad0dbe00804435454bc1b20df95791d69b52cb06",
        "840bfe8ddadf9a378452d7c3105faf7a8be139f32ac3b17eea64bfa730d0e89f",
    ),
    "exact-qubit-cone": (
        "0ad1d4997f99341f8099358fd1e8dd96de2b9a815f66dc83849bcf761533242c",
        "c52530dcbdaa7487457a419dfce63e93698e8ec09376742f232ae1e1a8223173",
    ),
    "exact-qubit-sphere": (
        "37465edca2046c31d20e580d8de47e0dae25d0c6cfce1bad64894c419d17a76b",
        "4b4aa0a3030b1d858fa55e6d67769a709da09e49436635fb8361bebf8ebb88e8",
    ),
    "mc-ndim-ground": (
        "eed438d07507a6279a731eab7ac01ca56c8c04580f2f150bd4de5a30eb6a5d97",
        "975622eb2e00af66f3b1bca2d471c206439233aa7bc61bab787052cee9b92920",
    ),
    "mc-ndim-uniform": (
        "30c48b739c7579aa221913f8368d195d6ea93bef507d84dc763213aa75422933",
        "1177f76b07deb8856731f84ae94207e6f79e2c2fd0fa74917ccf112e7115e8f0",
    ),
    "mc-qubit-cone": (
        "20a98f8d1e599339391ffa4b08cf58818388c8232ede4dadcf5728e6c96ecd05",
        "18dc747e824e712f9ac0b5d7b10a28e1a7724733eab2bfd844706b6885c3b7a7",
    ),
    "mc-qubit-sphere": (
        "b98046a24a818ff2b7492f5c71e28307b4692fa07356d0818c5080b0d96ff92c",
        "5fd2991398ecf343d06d6fb6815efc76a7a89cf2047f673212ca85d9010cf82b",
    ),
    "positivity-sweep": (
        "2ecbd5efbdbb8db6d4ad9149dffff5d020777a91a1a0ac424394d5c4ae859b90",
        "eaaa56b60cabb22e6acb773aa8c7f7c24d15ba97d7b2bb829986a26466105053",
    ),
    "protocol-degenerate-pairs": (
        "d5377abb933f08830adf7c2d2b6e143873df172ffddbfabfb866ffa580156835",
        "85231aa5a5da9fc31970785e3ac7758509b5cecce154d0919089e5f4f8f701c5",
    ),
    "protocol-fixed-pairs": (
        "6db92ea78e5c5a3057b6e2b7420ee611390756a9eb26068aa1d4fd99fd0d9e92",
        "0aa10da55c148215986584eda27812f54611ee727928bc2ff55881fb7f876c75",
    ),
    "protocol-fixed-pairs-report": (
        "5c9819ba294cf340a52e442df85d6557f0577911458139abd26401832be83ed7",
        "c739a86c557ec1bfdb489c1931499cd07f0afd223abdb193a5d404aba3533823",
    ),
    "protocol-random-pair": (
        "723dabfd67f603f02c4c7860fac42b8b89d938ba17fee6e20f88c0a82bb46da4",
        "d7aa14a27562ec8bb202f38bf7882985a0c1e22a49a63cf6fc5aaf6733b84b15",
    ),
    "protocol-random-pair-report": (
        "7ecd30532868bb594f22deff96ba656c600f6a14f88b52cd6ab4389cc62a6682",
        "99e8c38a29dfc0fe7850aa3c705027c291061e7881b2c0cad5e26d7442ae0923",
    ),
    "witness": (
        "09a1e03b03745c130f30213f72cc9d53b269f9a3cf5da19cb96ea984a6dc59fb",
        "8b4b172112282c3cf40c9573532ea69d47eef365244ddfb2200cd3e00152ae9b",
    ),
}
# SHA-256 of every file each CLI case writes, by path.
CLI_DIGESTS = {
    "verify-ndim-samples": {
        "exact-ndim/cases.csv": "840bfe8ddadf9a378452d7c3105faf7a8be139f32ac3b17eea64bfa730d0e89f",
        "exact-ndim/report.txt": "60444d0c660ab24de7695256ad0dbe00804435454bc1b20df95791d69b52cb06",
        "mc-ndim/cases.csv": "1177f76b07deb8856731f84ae94207e6f79e2c2fd0fa74917ccf112e7115e8f0",
        "mc-ndim/report.txt": "30c48b739c7579aa221913f8368d195d6ea93bef507d84dc763213aa75422933",
    },
    "verify-qubit-samples": {
        "exact-cone/cases.csv": "c52530dcbdaa7487457a419dfce63e93698e8ec09376742f232ae1e1a8223173",
        "exact-cone/report.txt": "0ad1d4997f99341f8099358fd1e8dd96de2b9a815f66dc83849bcf761533242c",
        "exact-sphere/cases.csv": "4b4aa0a3030b1d858fa55e6d67769a709da09e49436635fb8361bebf8ebb88e8",
        "exact-sphere/report.txt": "37465edca2046c31d20e580d8de47e0dae25d0c6cfce1bad64894c419d17a76b",
        "mc-sphere/cases.csv": "8c59bbdb5e8c70ebca1b980670016dc8adc5d7e20e985ebcca90c6639052e0f6",
        "mc-sphere/report.txt": "3f44e57537ddd054f26f1b4e3ca7240c349bb8214611c423e2d6e2e7deefd2cd",
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
