"""Workload plans and output checks for the onticsim benchmark.

A workload is a list of CLI invocations run back to back (one pass).
Each invocation names the report directories it must leave behind, so
the checker can tell a missing report from a failed one.

Workloads and why they were chosen:

    exact     per-pair scalar path: validation, cone/icosa/ndim kernels,
              per-case seeding and report rendering; the sampler idles.
              It ends with a protocol replay of hard places (poles, a
              patch tie, a face centre at the covering radius, an
              antipodal event): one preparation serves many rounds, so
              the cone kernel runs once per round, and 10-byte wire
              messages are written.
    mc        Monte Carlo draws dominate (over 90% of the time) and the
              process pool runs with two workers; kernels and reports
              idle. Uses the ``ground`` weights, where ``exact`` uses
              ``uniform``.

A standalone protocol workload (random pairs, many rounds) is left out:
its pass time moved by up to 1.8x between consecutive passes of one
seed on a shared 2-core host, and its run medians spread past the
benchmark's bound. The replay inside ``exact`` keeps the protocol path,
the message-size check and the hard-place inputs measured.

Sizes keep one pass near 0.8 s on a calm 2-core machine, so that a run
holds about forty passes even when the machine is slow. The speed of a shared host switches between
a fast and a slow level every few seconds. Much shorter passes split
into those two levels, and the median jumps between them from run to
run; much longer ones leave too few passes for a tail with ten beyond
it.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("exact", "mc")

# Workers each workload runs with when timed; traced passes use one.
DEFAULT_WORKERS = {"exact": 1, "mc": 2}

EXACT_BOUND = 1e-12
MESSAGE_BYTES = 10

_FLOAT = r"([-+0-9.eEinfa]+)"


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


@dataclass(frozen=True)
class Invocation:
    """One CLI call: its arguments and the outputs it must write.

    ``outputs`` holds report labels (each a directory with report.txt)
    or the name ``transcript`` for the protocol command.
    """

    argv: tuple
    outputs: tuple


@dataclass
class Checks:
    """Tally of correctness checks over one or more passes."""

    attempted: int = 0
    failed: int = 0
    cases: int = 0
    samples: int = 0
    out_bytes: int = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            log(f"check failed: {what}")

    def add(self, other: "Checks") -> None:
        self.attempted += other.attempted
        self.failed += other.failed


def hard_place_config(seed: int, rounds: int) -> str:
    """``simulate-protocol`` config with explicit pairs at the hard places.

    Preparations sit on the +z and -z poles, on the tie between two
    adjacent patches, on a face centre (covering radius from three
    vertices) and on a random direction whose event is its antipode.
    Events other than the antipode are drawn from ``seed``.
    """
    from onticsim import build_frame

    verts = build_frame().vertices
    rng = np.random.default_rng([seed, 0xBE7C])

    def unit(x):
        return x / np.linalg.norm(x)

    def random_unit():
        return unit(rng.standard_normal(3))

    adjacent = verts @ verts.T > 0.4
    a, b = next(
        (i, j)
        for i in range(1, 12)
        for j in range(i + 1, 12)
        if adjacent[0, i] and adjacent[0, j] and adjacent[i, j]
    )
    antipodal_v = random_unit()
    pairs = [
        (verts[0], random_unit()),
        (verts[11], random_unit()),
        (unit(verts[0] + verts[a]), random_unit()),
        (unit(verts[0] + verts[a] + verts[b]), random_unit()),
        (antipodal_v, -antipodal_v),
    ]
    lines = [f"rounds = {rounds}"]
    for i, (v, w) in enumerate(pairs):
        lines.append(f"pair.{i} = " + ", ".join(repr(float(c)) for c in (*v, *w)))
    return "\n".join(lines) + "\n"


def plan(workload: str, config_path: Path, tiny: bool = False) -> list:
    """Invocations of one pass; ``tiny`` shrinks every size for smoke tests."""
    if workload == "exact":
        pairs = "20" if tiny else "1000"
        sweep = ("--x-step", "0.05", "--events", "200") if tiny else ("--x-step", "0.002")
        covering = ("--directions", "1000") if tiny else ()
        return [
            Invocation(("verify-qubit", "--pairs", pairs, "--samples", "0"),
                       ("exact-cone", "exact-sphere")),
            Invocation(("verify-ndim", "--dim", "4", "--pairs", pairs, "--samples", "0"),
                       ("exact-ndim",)),
            Invocation(("sweep-positivity", *sweep), ("sweep",)),
            Invocation(("covering", *covering), ("covering",)),
            Invocation(("demo-nonmarkov",), ("witness",)),
            Invocation(("simulate-protocol", "--config", str(config_path)), ("transcript",)),
        ]
    if workload == "mc":
        pairs = "4" if tiny else "64"
        return [
            Invocation(("verify-qubit", "--pairs", pairs,
                        "--samples", "1000" if tiny else "1000000"),
                       ("exact-cone", "exact-sphere", "mc-sphere")),
            Invocation(("verify-ndim", "--dim", "4", "--scheme", "ground", "--pole-mass", "0.6",
                        "--pairs", pairs, "--samples", "1000" if tiny else "100000"),
                       ("exact-ndim", "mc-ndim")),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def protocol_config_rounds(tiny: bool) -> int:
    return 200 if tiny else 2000


def _stat(text: str, name: str):
    match = re.search(rf"^{re.escape(name)} = {_FLOAT}$", text, re.MULTILINE)
    return float(match.group(1)) if match else None


def _case_rows(text: str) -> int:
    return len(re.findall(r"^case \d+ \|", text, re.MULTILINE))


def check_invocation(inv: Invocation, code: int, out_dir: Path, checks: Checks,
                     keep_bytes: dict | None = None) -> None:
    """Check one invocation's exit code and every output it must leave.

    ``keep_bytes``, when given, collects report.txt/cases.csv contents by
    label so that passes can be compared byte for byte.
    """
    name = inv.argv[0]
    checks.check(code == 0, f"{name}: exit code {code}")
    run_dirs = [p for p in out_dir.iterdir() if p.is_dir()] if out_dir.is_dir() else []
    checks.check(len(run_dirs) == 1, f"{name}: expected one run directory, found {len(run_dirs)}")
    if not run_dirs:
        return
    run_dir = run_dirs[0]
    checks.out_bytes += sum(p.stat().st_size for p in run_dir.rglob("*") if p.is_file())
    for label in inv.outputs:
        if label == "transcript":
            _check_transcript(name, run_dir, checks)
            continue
        report = run_dir / label / "report.txt"
        text = report.read_text() if report.is_file() else ""
        checks.check("\npassed = true\n" in text, f"{name}/{label}: passed = true")
        checks.cases += _case_rows(text)
        if label.startswith("exact-"):
            err = _stat(text, "max_abs_error")
            checks.check(err is not None and err <= EXACT_BOUND,
                         f"{name}/{label}: max_abs_error {err} > {EXACT_BOUND}")
        if label.startswith("mc-"):
            checks.samples += int(_stat(text, "samples_per_pair") or 0) * _case_rows(text)
        if label == "covering":
            checks.samples += int(_stat(text, "directions") or 0)
        if keep_bytes is not None:
            for fname in ("report.txt", "cases.csv"):
                path = run_dir / label / fname
                keep_bytes[f"{name}/{label}/{fname}"] = path.read_bytes() if path.is_file() else b""


def _check_transcript(name: str, run_dir: Path, checks: Checks) -> None:
    path = run_dir / "transcript.txt"
    text = path.read_text() if path.is_file() else ""
    checks.check(text.endswith("\npassed = true\n"), f"{name}: transcript passed = true")
    pairs = len(re.findall(r"^pair \d+$", text, re.MULTILINE))
    rounds = int(_stat(text, "rounds_per_pair") or 0)
    messages = run_dir / "messages.bin"
    size = messages.stat().st_size if messages.is_file() else -1
    checks.check(size == pairs * rounds * MESSAGE_BYTES and size > 0,
                 f"{name}: messages.bin holds {size} bytes for {pairs} x {rounds} rounds")
    checks.cases += pairs
    checks.samples += pairs * rounds


def compare_bytes(reference: dict, other: dict, checks: Checks, what: str) -> None:
    """Every report file of ``other`` must equal ``reference`` byte for byte."""
    keys = sorted(set(reference) | set(other))
    for key in keys:
        checks.check(key in reference and reference.get(key) == other.get(key),
                     f"{what}: {key} differs from the workers=1 pass")
