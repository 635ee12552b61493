"""Command-line front end for the verification experiments.

Each subcommand runs one or more harness experiments in memory;
``onticsim --help`` lists them. Options come from one table (``_COMMON``
and ``_COMMANDS``): defaults, overridden by a ``--config FILE`` of flat
``key = value`` lines (``#`` comments allowed), overridden by explicit
flags. Every option is checked before any run, and a radius that admits
no pair by the run's own draw. ``main`` creates the run directory only
after every run has returned, then writes each report and the files it
carries (the protocol's ``messages.bin`` and transcript): neither bad
input (exit 2) nor a failed run (exit 3) leaves anything behind.

Exit status: 0 all checks passed, 1 a check failed, 2 bad usage, config
or radius, 3 any other error (its traceback goes to stderr).
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

from .harness import ExperimentConfig, RadiusError, run_experiment
from .reports import format_float, format_value, write_bytes_atomic, write_report

__all__ = ["main", "entry"]

# The only list of options: name -> (type or choices, default, help).
# Flags, --config keys and their merge are all built from it. Each
# subcommand also names the experiments it runs: (label, kind, fixed
# config fields); mc-* kinds run only when samples is nonzero.
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
    }, [("protocol", "protocol", {})]),
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
    for command, (summary, _, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        p.add_argument("--config", help="key = value options file")
        for name, (kind, default, help_text) in _table(command).items():
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
        if key.startswith("pair.") and command == "simulate-protocol":  # its fixed pairs
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
    """The (label, config) pairs a subcommand runs, all validated."""
    base = {k: v for k, v in opts.items() if k in _CONFIG_FIELDS}
    if "directions" in opts:  # covering counts its random directions in pairs
        base["pairs"] = opts["directions"]
    if "rounds" in opts:  # the protocol counts its rounds in samples; pair.N keys fix its pairs
        base["samples"] = opts["rounds"]
        base["fixed_pairs"] = _fixed_pairs(opts.get("explicit_pairs", ()))
        if base["fixed_pairs"] and opts["pairs"] >= 1:  # a bad pairs value is still refused
            base["pairs"] = len(base["fixed_pairs"])
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


def _fixed_pairs(entries) -> tuple:
    """Unit (v, w) tuples from the config's pair.N keys, in the order of N."""
    pairs = {}
    for key, value in entries:
        n = key[len("pair."):]
        if not n.isdecimal() or int(n) in pairs:
            raise ValueError(f"{key}: N must be a whole number that no other pair.N key has")
        try:
            v, w = np.array([float(p) for p in value.split(",")]).reshape(2, 3)
        except ValueError as exc:
            raise ValueError(f"{key}: expected 6 comma-separated floats, got {value!r}") from exc
        if np.linalg.norm(v) < 1e-12 or np.linalg.norm(w) < 1e-12:
            raise ValueError(f"{key}: vectors must be nonzero")
        # ExperimentConfig rejects what does not normalise, e.g. non-finite input
        pairs[int(n)] = tuple(tuple((u / np.linalg.norm(u)).tolist()) for u in (v, w))
    return tuple(pairs[n] for n in sorted(pairs))


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
    try:
        opts = _options(args)
        plan = _plan(args.command, opts)
    except ValueError as exc:  # bad flags, config file or option values
        print(f"error: {exc}", file=sys.stderr)
        return 2
    formats = ("structured", "tabular") if opts["format"] == "both" else (opts["format"],)
    try:
        reports, code = _run_plan(plan)
        # Every run has returned: only now does the run directory exist.
        run_dir = _resolve_run_dir(opts, args.command)
        for label, report in reports:
            write_report(report, run_dir / label, formats=formats)
            for name, data in report.files:
                write_bytes_atomic(run_dir / name, data)
        print(f"reports written to {run_dir}")
        return code
    except RadiusError as exc:  # found by an N-level run's own draw, before anything is written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # the run itself failed: not a usage error
        traceback.print_exc()
        return 3


def entry() -> None:
    sys.exit(main(sys.argv[1:]))
