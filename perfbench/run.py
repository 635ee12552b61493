#!/usr/bin/env python3
"""Benchmark of onticsim through its real user path, ``onticsim.cli.main``.

Run from the repository root:

    python3 perfbench/run.py --workload {exact,mc} --seed N \\
        --seconds S --trace {0,1}

Load is a closed loop: one process and one client, each CLI invocation
starting after the previous one returns. A pass is all of a workload's
invocations (see ``workloads.py``); pass time counts only the time
inside ``cli.main``. Every invocation's outputs are checked (exit code,
``passed = true``, the 1e-12 bound on exact kinds, the 10-byte message
size, and on ``mc`` byte identity with a workers=1 pass).

``--trace 0`` times passes for ``--seconds`` (at least ``MIN_PASSES``)
and prints the end-to-end metrics. ``--trace 1`` runs one traced pass
at one worker and prints per-layer calls and self times, plus the pool
speed-up, tracing overhead and the criterion-01 loop time.

The last stdout line is one JSON object with keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The package is imported from
``src/`` next to this directory; without it the script exits with 2.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

sys.path.insert(0, str(HERE))

from tracing import LAYER_KEYS, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_WORKERS,
    WORKLOADS,
    Checks,
    check_invocation,
    compare_bytes,
    hard_place_config,
    log,
    plan,
    protocol_config_rounds,
)

# The tail percentile needs ten passes beyond it, so every run makes at
# least twelve, even past --seconds. Passes take 0.8-1.5 s, so a run of
# 50 s makes thirty to sixty and the tail is near p70-p80.
MIN_PASSES = 12
TAIL_BEYOND = 10
# Fresh-interpreter set-up samples per run, spread evenly over its passes.
SETUP_SAMPLES = 11
# Untraced passes at each worker count in a traced run.
REFERENCE_PASSES = 5
CRITERION01_PAIRS = 10**4

# Workloads whose timed (workers=2) passes must match a workers=1 pass
# byte for byte (criterion 9, checked from outside).
BYTE_IDENTITY = ("mc",)

_SETUP_CODE = """\
import contextlib, io
import onticsim.cli
from onticsim.icosa import build_frame
build_frame()
with contextlib.redirect_stdout(io.StringIO()):
    onticsim.cli.main(["--help"])
"""


def import_cli():
    """Import ``onticsim.cli`` from this checkout's ``src/`` or exit with 2."""
    package = SRC / "onticsim"
    if not (package / "__init__.py").is_file():
        log(f"perfbench: no onticsim package under {SRC}; run from a full checkout")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import onticsim.cli

    if Path(onticsim.cli.__file__).resolve().parent != package.resolve():
        log(f"perfbench: imported onticsim from {onticsim.cli.__file__}, not {package}")
        sys.exit(2)
    return onticsim.cli


class Runner:
    """Runs passes of one workload through ``cli.main`` and checks them."""

    def __init__(self, cli, workload: str, seed: int, tiny: bool, work_dir: Path) -> None:
        self.cli = cli
        self.workload = workload
        self.seed = seed
        shutil.rmtree(work_dir, ignore_errors=True)
        work_dir.mkdir(parents=True)
        self.work_dir = work_dir
        config = work_dir / "hard-places.cfg"
        config.write_text(hard_place_config(seed, protocol_config_rounds(tiny)))
        self.invocations = plan(workload, config, tiny)
        self.total = Checks()
        self._passes = 0

    def run_pass(self, workers: int, keep_bytes: bool = False):
        """One pass; returns (seconds inside cli.main, per-pass Checks, bytes)."""
        self._passes += 1
        pass_dir = self.work_dir / f"pass-{self._passes}"
        checks = Checks()
        kept = {} if keep_bytes else None
        elapsed = 0.0
        for i, inv in enumerate(self.invocations):
            out_dir = pass_dir / str(i)
            argv = [*inv.argv, "--seed", str(self.seed), "--workers", str(workers),
                    "--out-dir", str(out_dir)]
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                start = time.perf_counter()
                try:
                    code = self.cli.main(argv)
                except Exception:  # a crash is a failed check, not a lost run
                    code = -1
                    sink.write(traceback.format_exc())
                elapsed += time.perf_counter() - start
            if code != 0:
                log(f"{' '.join(argv)} exited {code}:\n{sink.getvalue()}")
            check_invocation(inv, code, out_dir, checks, kept)
        shutil.rmtree(pass_dir, ignore_errors=True)
        self.total.add(checks)
        return elapsed, checks, kept

    def compare(self, reference: dict | None, other: dict | None, what: str) -> None:
        if reference is not None and other is not None:
            compare_bytes(reference, other, self.total, what)

    def close(self) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)


def environment() -> dict:
    """Machine facts recorded with each result, plus a fixed calibration loop."""
    import numpy

    def calibration() -> float:
        start = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i % 7
        return time.perf_counter() - start

    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "calibration_s": statistics.median(calibration() for _ in range(5)),
    }


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def source_digest() -> str:
    """SHA-256 over the package sources, an identity that needs no .git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "onticsim").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def setup_time(checks: Checks) -> float:
    """Wall time of a fresh interpreter that imports the CLI, builds the frame and parser."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", _SETUP_CODE], cwd=ROOT, env=env,
                          capture_output=True, timeout=60)
    elapsed = time.perf_counter() - start
    checks.check(proc.returncode == 0, f"setup exited {proc.returncode}: {proc.stderr!r}")
    return elapsed


def rss_probe(workload: str, seed: int, tiny: bool, checks: Checks) -> float:
    """Peak RSS in MB of one pass run in a process of its own."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--rss-probe"] + (["--tiny"] if tiny else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    checks.check(proc.returncode == 0, f"rss probe exited {proc.returncode}: {proc.stderr}")
    if proc.returncode != 0:
        return 0.0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    checks.attempted += result["attempted"]
    checks.failed += result["failed"]
    return result["peak_rss_mb"]


def run_rss_probe(args) -> int:
    cli = import_cli()
    runner = Runner(cli, args.workload, args.seed, args.tiny, WORK / f"{args.workload}-probe")
    runner.run_pass(DEFAULT_WORKERS[args.workload])
    runner.close()
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    print(json.dumps({"peak_rss_mb": kb / 1024.0, "attempted": runner.total.attempted,
                      "failed": runner.total.failed}))
    return 0


def tail(times: list) -> tuple:
    """Highest percentile with TAIL_BEYOND passes beyond it: (value, percentile)."""
    ordered = sorted(times)
    at_or_below = len(ordered) - TAIL_BEYOND
    return ordered[at_or_below - 1], 100.0 * at_or_below / len(ordered)


def end_to_end(runner: Runner, seconds: float, tiny: bool):
    """Timed passes; returns (metrics, notes) for the end-to-end set."""
    workers = DEFAULT_WORKERS[runner.workload]
    identity = runner.workload in BYTE_IDENTITY
    runner.run_pass(workers)  # untimed, so lazy imports and caches are ready
    reference = runner.run_pass(1, keep_bytes=True)[2] if identity else None
    rss = rss_probe(runner.workload, runner.seed, tiny, runner.total)

    # Set-up samples are taken between passes, spread over the whole run,
    # so that they do not all share one stretch of machine load.
    times, setup = [], []
    cases = samples = 0
    start = time.perf_counter()
    while len(times) < MIN_PASSES or time.perf_counter() - start < seconds:
        elapsed, checks, kept = runner.run_pass(workers, keep_bytes=identity)
        runner.compare(reference, kept, f"timed pass {len(times) + 1}")
        times.append(elapsed)
        cases += checks.cases
        samples += checks.samples
        if len(setup) * seconds <= (time.perf_counter() - start) * SETUP_SAMPLES:
            setup.append(setup_time(runner.total))

    tail_s, tail_pct = tail(times)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "pass_s_p50": (statistics.median(times), "s"),
        "pass_s_tail": (tail_s, "s"),
        "cases_per_s": (cases / sum(times), "1/s"),
        "samples_per_s": (samples / sum(times), "1/s"),
        "peak_rss_mb": (rss, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters spread over the run",
        "pass_s_p50": f"median of {len(times)} passes: "
                      + " ".join(f"{t:.4f}" for t in times),
        "pass_s_tail": f"p{tail_pct:.1f} of {len(times)} passes, {TAIL_BEYOND} beyond",
        "cases_per_s": f"{cases} cases over {sum(times):.3f} s of passes",
        "samples_per_s": f"{samples} samples over {sum(times):.3f} s of passes",
        "peak_rss_mb": "one pass, RUSAGE_SELF + RUSAGE_CHILDREN, own process",
    }
    return metrics, notes


def criterion01_seconds(seed: int, pairs: int, checks: Checks) -> float:
    """The criterion-01 scalar loop: in-cone pairs through exact_event_probability."""
    import numpy as np
    from onticsim import THETA0, born_probability_qubit, exact_event_probability
    from onticsim import random_bloch, to_spherical

    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    max_err = 0.0
    for _ in range(pairs):
        v = random_bloch(rng)
        while to_spherical(v).theta >= THETA0:
            v = random_bloch(rng)
        w = random_bloch(rng)
        max_err = max(max_err, abs(exact_event_probability(v, w) - born_probability_qubit(v, w)))
    elapsed = time.perf_counter() - start
    checks.check(max_err < 1e-12, f"criterion-01 loop: max error {max_err!r}")
    return elapsed


def per_layer(runner: Runner, tiny: bool):
    """One traced pass at one worker plus untraced reference passes."""
    runner.run_pass(DEFAULT_WORKERS[runner.workload])  # untimed warm-up
    identity = runner.workload in BYTE_IDENTITY
    tracer = Tracer()
    with tracer:
        traced_s, traced, traced_bytes = runner.run_pass(1, keep_bytes=identity)
    one, two = [], []
    for _ in range(REFERENCE_PASSES):
        one.append(runner.run_pass(1)[0])
        elapsed, _, kept = runner.run_pass(2, keep_bytes=identity)
        runner.compare(traced_bytes, kept, "workers=2 pass")
        two.append(elapsed)
    crit_pairs = 200 if tiny else CRITERION01_PAIRS
    crit = statistics.median(
        criterion01_seconds(runner.seed, crit_pairs, runner.total) for _ in range(3))

    WORK.mkdir(parents=True, exist_ok=True)
    tracer.save(WORK / f"trace-{runner.workload}.npz")
    layers = tracer.summary()
    counters = tracer.counters
    metrics = {}
    for key in LAYER_KEYS:
        calls, busy = layers[key]
        metrics[f"{key}.calls"] = (calls, "count")
        metrics[f"{key}.self_s"] = (busy, "s")
    draws = counters["harness.draws"]
    metrics.update({
        "harness.rng.variates": (counters["harness.rng.variates"], "count"),
        "harness.cases": (counters["harness.cases"], "count"),
        "harness.accept_ratio": (counters["harness.cases"] / draws if draws else 1.0, "ratio"),
        "harness.pool_speedup": (statistics.median(one) / statistics.median(two), "ratio"),
        "reports.bytes": (counters["reports.bytes"], "bytes"),
        "cli.bytes": (traced.out_bytes, "bytes"),
        "cone.criterion01_s": (crit, "s"),
        "trace.overhead_ratio": (traced_s / statistics.median(one), "ratio"),
    })
    notes = {
        "trace": f"self-time sum {tracer.self_times().sum():.6f} s, traced wall {traced_s:.6f} s, "
                 f"{len(tracer.names)} spans",
        "cone.criterion01_s": f"median of 3 loops of {crit_pairs} pairs",
        "harness.pool_speedup": f"median of {REFERENCE_PASSES} workers=1 passes / "
                                f"median of {REFERENCE_PASSES} workers=2 passes",
    }
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    parser.add_argument("--rss-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.rss_probe:
        return run_rss_probe(args)

    cli = import_cli()
    env = environment()
    runner = Runner(cli, args.workload, args.seed, args.tiny, WORK / args.workload)
    try:
        if args.trace:
            metrics, notes = per_layer(runner, args.tiny)
        else:
            metrics, notes = end_to_end(runner, args.seconds, args.tiny)
    finally:
        runner.close()

    total = runner.total
    for name, (value, unit) in metrics.items():
        note = notes.get(name)
        print(f"{name} = {value} {unit}" + (f"  ({note})" if note else ""))
    if "trace" in notes:
        print(f"trace: {notes['trace']}")
    print(f"fail_frac = {total.failed / max(total.attempted, 1)} "
          f"({total.failed} of {total.attempted} checks failed)")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": total.failed == 0 and total.attempted > 0,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
