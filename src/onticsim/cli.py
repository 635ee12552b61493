"""Command-line front end for the verification experiments.

Each subcommand runs one or more harness experiments, or the
prepare/transmit/measure protocol, in memory; ``onticsim --help`` lists
them. Options come from one table (``_COMMON`` and ``_COMMANDS``):
defaults, overridden by a ``--config FILE`` of flat ``key = value``
lines (``#`` comments allowed), overridden by explicit flags. Every
option is checked before any run, and ``main`` creates the fresh run
directory only after every run has returned, then writes the reports
into it: neither bad input nor a failed run (exit 3) leaves anything behind.

Exit status: 0 all checks passed, 1 a check failed, 2 bad usage or
config, 3 any other error (its traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time
import traceback
from dataclasses import fields
from pathlib import Path

import numpy as np

from .geometry import as_bloch, born_probability_qubit, random_bloch
from .harness import ExperimentConfig, Z_LIMIT, case_rng, run_experiment, z_score
from .icosa import (
    MESSAGE_SIZE,
    build_frame,
    deserialize_message,
    measure_messages,
    prepare_messages,
    serialize_message,
)
from .reports import format_float, format_value, write_bytes_atomic, write_report

__all__ = ["main", "entry"]

# The only list of options: name -> (type or choices, default, help).
# Flags, --config keys and their merge are all built from it. Each
# subcommand but simulate-protocol also names the experiments it runs:
# (label, kind, fixed config fields); mc-* kinds run only when samples
# is nonzero.
_COMMON = {
    "seed": (int, 0, "run seed"),
    "workers": (int, 1, "accepted (at least 1) but unused: every run uses one process"),
    "out_dir": (str, None, "report root (default ./runs or $ONTICSIM_OUT_DIR)"),
    "format": (("structured", "tabular", "both"), "both", "report formats to write"),
}
_COMMANDS = {
    "verify-qubit": ("exact qubit identity (cone and sphere), optional Monte Carlo", {
        "pairs": (int, 1000, "state/event pairs"),
        "samples": (int, 0, "Monte Carlo samples per pair, 0 skips"),
    }, [
        ("exact-cone", "exact-qubit", {"region": "cone"}),
        ("exact-sphere", "exact-qubit", {"region": "sphere"}),
        ("mc-sphere", "mc-qubit", {"region": "sphere"}),
    ]),
    "verify-ndim": ("exact N-level identity, optional Monte Carlo", {
        "pairs": (int, 500, "state/event pairs"),
        "samples": (int, 0, "Monte Carlo samples per pair, 0 skips"),
        "dim": (int, 2, "levels N"),
        "scheme": (("uniform", "ground"), "uniform", "cell weight scheme"),
        "pole_mass": (float, 0.6, "ground-scheme pole weight"),
        "radius": (float, None, "in-region disc radius (default 0.2 / dim)"),
    }, [("exact-ndim", "exact-ndim", {}), ("mc-ndim", "mc-ndim", {})]),
    "sweep-positivity": ("grid scan of the response functions", {
        "x_step": (float, 1e-3, "ontic coordinate grid step"),
        "events": (int, 10000, "event directions"),
    }, [("sweep", "positivity-sweep", {})]),
    "covering": ("patch covering radius and vertex geometry", {
        "directions": (int, 100000, "random directions"),
    }, [("covering", "covering", {})]),
    "simulate-protocol": ("prepare/transmit/measure rounds, 10-byte messages to disk", {
        "rounds": (int, 100000, "rounds per pair"),
        "pairs": (int, 1, "random state/event pairs to run"),
    }, None),
    "demo-nonmarkov": ("print the two-preparation memory witness", {
        "theta": (float, 0.5, "shared zenith"),
        "phi_a": (float, 0.0, "azimuth of preparation a"),
        "phi_b": (float, math.pi / 2.0, "azimuth of preparation b"),
    }, [("witness", "witness", {})]),
}
_CONFIG_FIELDS = {f.name for f in fields(ExperimentConfig)} - {"kind", "samples"}


def _table(command: str) -> dict:
    return {**_COMMON, **_COMMANDS[command][1]}


@functools.lru_cache(maxsize=1)  # the help is static and parse_args returns a fresh Namespace
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onticsim",
        description="Verification experiments for compressed hidden-variable models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, _, plan) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        p.add_argument("--config", help="key = value options file")
        for name, (kind, default, help_text) in _table(command).items():
            if name == "format" and plan is None:
                continue  # writes no reports; a shared config file may still set it
            choices = kind if isinstance(kind, tuple) else None
            p.add_argument(
                "--" + name.replace("_", "-"),
                type=None if choices else kind,
                choices=choices,
                help=help_text if default is None else f"{help_text} (default {default})",
            )
    return parser


def _convert(kind, text: str):
    if isinstance(kind, tuple):
        if text not in kind:
            raise ValueError(f"expected one of {kind}")
        return text
    if kind is float and text.lower() == "none":
        return None
    return kind(text)


def _parse_config_file(path: str, command: str) -> dict:
    """Flat key = value lines; '#' starts a comment line."""
    table = _table(command)
    options: dict = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if not sep:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        if key.startswith("pair."):  # simulate-protocol pairs; other commands ignore them
            options.setdefault("explicit_pairs", []).append((key, value))
        elif key not in table:
            raise ValueError(f"{path}:{lineno}: option {key!r} is not valid for {command}")
        else:
            try:
                options[key] = _convert(table[key][0], value)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad value for {key!r}: {value!r}") from exc
    return options


def _options(args: argparse.Namespace) -> dict:
    """Table defaults, overridden by the config file, overridden by flags."""
    table = _table(args.command)
    opts = {name: default for name, (_, default, _) in table.items()}
    if args.config:
        opts.update(_parse_config_file(args.config, args.command))
    opts.update((k, v) for k, v in vars(args).items() if k in table and v is not None)
    return opts


def _plan(command: str, opts: dict) -> list:
    """The (label, config) pairs a report subcommand runs, all validated."""
    base = {k: v for k, v in opts.items() if k in _CONFIG_FIELDS}
    if "directions" in opts:  # covering counts its random directions in pairs
        base["pairs"] = opts["directions"]
    plan = []
    for label, kind, fixed in _COMMANDS[command][2]:
        if kind.startswith("mc-"):
            # A negative sample count reaches ExperimentConfig and is rejected.
            if opts["samples"] == 0:
                continue
            fixed = {**fixed, "samples": opts["samples"]}
        plan.append((label, ExperimentConfig(kind=kind, **base, **fixed)))
    return plan


def _run_plan(plan: list) -> tuple:
    """Run every experiment; returns the (label, report) pairs to write and the exit code."""
    reports = []
    for label, cfg in plan:
        report = run_experiment(cfg)
        reports.append((label, report))
        if cfg.kind == "witness":
            stats = dict(report.summary.stats)
            print(f"shared zenith-branch coordinate x = {format_float(stats['shared_ontic_x'])}")
            print(f"zenith rate of preparation a = {format_float(stats['rate_a'])}")
            print(f"zenith rate of preparation b = {format_float(stats['rate_b'])}")
            print(f"rate discrepancy = {format_float(stats['discrepancy'])}")
            print("same ontic state, different velocities: the update rule needs the preparation")
        failing = [name for name, ok in report.summary.criteria if not ok]
        status = "PASS" if report.passed else "FAIL(" + ", ".join(failing) + ")"
        stats = report.summary.stats
        print(f"[{label}] {status} | " + ", ".join(f"{k} = {format_value(v)}" for k, v in stats))
    return reports, 0 if all(report.passed for _, report in reports) else 1


def _protocol_pairs(opts: dict) -> list:
    """Fixed (v, w) pairs from the config's pair.N keys, else None per random pair."""
    for name in ("rounds", "pairs", "workers"):
        if opts[name] < 1:
            raise ValueError(f"{name} must be at least 1")
    if not 0 <= opts["seed"] < 2**64:  # the rule ExperimentConfig applies to every other command
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    pairs = []
    for key, value in sorted(opts.get("explicit_pairs", []), key=lambda kv: kv[0]):
        try:
            nums = [float(p) for p in value.split(",")]
        except ValueError as exc:
            raise ValueError(f"{key}: bad float in {value!r}") from exc
        if len(nums) != 6:
            raise ValueError(f"{key}: expected 6 comma-separated floats, got {value!r}")
        v = np.array(nums[:3])
        w = np.array(nums[3:])
        if np.linalg.norm(v) < 1e-12 or np.linalg.norm(w) < 1e-12:
            raise ValueError(f"{key}: vectors must be nonzero")
        # as_bloch rejects what does not normalise, e.g. non-finite input
        pairs.append((as_bloch(v / np.linalg.norm(v)), as_bloch(w / np.linalg.norm(w))))
    return pairs or [None] * opts["pairs"]


def _run_protocol(pair_list: list, opts: dict) -> tuple:
    """Run every pair; returns the (file name, bytes) pairs to write and the exit code."""
    rounds = opts["rounds"]
    frame = build_frame()
    transcript = [
        "protocol: patched qubit transmission",
        f"rounds_per_pair = {rounds}",
        f"message_bytes = {MESSAGE_SIZE}",
        f"seed = {opts['seed']}",
    ]
    blobs = []
    all_ok = True
    for i, fixed in enumerate(pair_list):
        rng = case_rng(opts["seed"], i)
        v, w = (random_bloch(rng), random_bloch(rng)) if fixed is None else fixed
        messages = prepare_messages(frame, v, rounds, rng)
        blob = messages.tobytes()
        blobs.append(blob)
        first = blob[:MESSAGE_SIZE]
        if serialize_message(deserialize_message(first)) != first:
            raise RuntimeError(f"pair {i}: wire message {first.hex()} does not round-trip")
        # The measurer sees only the wire bytes and the event.
        hits = rng.random(rounds) < measure_messages(frame, w, blob)
        freq = float(hits.mean())
        born = born_probability_qubit(v, w)
        z = z_score(freq, born, rounds)
        ok = (abs(z) <= Z_LIMIT) if z is not None else (freq == born)
        all_ok = all_ok and ok

        transcript.append(f"pair {i}")
        transcript.append(f"  v = {format_value(tuple(float(c) for c in v))}")
        transcript.append(f"  w = {format_value(tuple(float(c) for c in w))}")
        transcript.append(f"  patch = {int(messages['k'][0])}")
        transcript.append(f"  born_p = {format_float(born)}")
        checkpoint = 10
        while checkpoint <= rounds:
            transcript.append(
                f"  checkpoint {checkpoint} freq = {format_float(float(hits[:checkpoint].mean()))}"
            )
            checkpoint *= 10
        transcript.append(f"  freq = {format_float(freq)}")
        if z is not None:
            transcript.append(f"  z = {format_float(z)}")
        transcript.append(f"  status = {'ok' if ok else 'outside tolerance'}")
    transcript.append(f"passed = {'true' if all_ok else 'false'}")

    blob_all = b"".join(blobs)
    print(f"{len(pair_list)} pair(s), {rounds} rounds each, {len(blob_all)} message bytes")
    text = "\n".join(transcript) + "\n"
    return [("messages.bin", blob_all), ("transcript.txt", text.encode())], 0 if all_ok else 1


def _resolve_run_dir(opts: dict, command: str) -> Path:
    """Create a fresh run directory; a name taken, even by a run started meanwhile, gets -N."""
    base = Path(opts.get("out_dir") or os.environ.get("ONTICSIM_OUT_DIR") or "runs")
    name = f"{command}-{opts['seed']}-{time.strftime('%Y%m%dT%H%M%S')}"
    run_dir = base / name
    counter = 1
    while True:
        try:
            run_dir.mkdir(parents=True)  # FileExistsError only when run_dir itself exists
            return run_dir
        except FileExistsError:
            run_dir = base / f"{name}-{counter}"
            counter += 1


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    protocol = args.command == "simulate-protocol"
    try:
        opts = _options(args)
        work = _protocol_pairs(opts) if protocol else _plan(args.command, opts)
    except ValueError as exc:  # bad flags, config file or option values
        print(f"error: {exc}", file=sys.stderr)
        return 2
    formats = ("structured", "tabular") if opts["format"] == "both" else (opts["format"],)
    try:
        outputs, code = _run_protocol(work, opts) if protocol else _run_plan(work)
        # Every run has returned: only now does the run directory exist.
        run_dir = _resolve_run_dir(opts, args.command)
        for name, output in outputs:
            if isinstance(output, bytes):
                write_bytes_atomic(run_dir / name, output)
            else:
                write_report(output, run_dir / name, formats=formats)
        print(f"reports written to {run_dir}")
        return code
    except Exception:  # the run itself failed: not a usage error
        traceback.print_exc()
        return 3


def entry() -> None:
    sys.exit(main(sys.argv[1:]))
