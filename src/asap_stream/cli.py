"""Scenario runner CLI.

``asap run --scenario <name|path> [--seed N] [--out PATH]
[--events-out PATH] [--mode virtual|realtime] [--set key=value ...]``

A scenario is either a bundled name (a key of ``config.SCENARIOS``) or
a path to a flat ``key = value`` config file. The
environment variable ``ASAP_CONFIG`` may point to a base config file
applied beneath the scenario. Unrecognized ``--<dotted.key> value``
flags are accepted as per-key overrides, at the same precedence as
``--set``.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys

import numpy as np

from . import config as cfgmod
from .errors import AsapError, ConfigurationError
from .events import ArraySource, write_event_file
from .pipeline import run, write_metrics_csv

PROG = "asap"


def _parse_extra_flags(extras: list[str]) -> list[str]:
    """Turn leftover ``--dotted.key value`` / ``--dotted.key=value``
    arguments into key=value override strings."""
    out = []
    i = 0
    while i < len(extras):
        arg = extras[i]
        if not arg.startswith("--"):
            raise ConfigurationError(f"unexpected argument: {arg!r}")
        body = arg[2:]
        if "=" in body:
            out.append(body)
            i += 1
        else:
            if i + 1 >= len(extras):
                raise ConfigurationError(f"flag --{body} needs a value")
            out.append(f"{body}={extras[i + 1]}")
            i += 2
    return out


def _reserve(target: str) -> str:
    """Create an empty file beside ``target`` under a name no file held,
    and return that name. It is created as ``open`` creates a file, so
    the umask decides its mode."""
    for n in itertools.count():
        name = f"{target}.{os.getpid()}-{n}.tmp"
        try:
            os.close(os.open(name, os.O_CREAT | os.O_EXCL | os.O_WRONLY,
                             0o666))
            return name
        except FileExistsError:
            pass


def _atomic_write(path: str, writer) -> None:
    """Write the file ``path`` resolves to with ``writer(file_name)``.

    A regular or new file is written to a new temp file beside it (see
    :func:`_reserve`) and then renamed onto it, so a failed run leaves
    no partial output, a symlink keeps pointing at it, and no other file
    is touched. Anything else (a FIFO, a device) is written directly,
    since the rename would replace it. An OS error is reported as an
    :class:`AsapError` that names ``path``.
    """
    target = os.path.realpath(path)
    special = os.path.exists(target) and not os.path.isfile(target)
    tmp = None
    try:
        tmp = target if special else _reserve(target)
        writer(tmp)
        if not special:
            os.replace(tmp, target)
    except BaseException as exc:
        if not special and tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise AsapError(
                f"cannot write {path}: {exc.strerror or exc}") from None
        raise


def _run_command(args, extras: list[str]) -> int:
    layers = []
    base = os.environ.get("ASAP_CONFIG")
    if base:
        layers.append(cfgmod.parse_config_file(base))
    scenario = args.scenario
    if scenario in cfgmod.SCENARIOS:
        layers.append(cfgmod.SCENARIOS[scenario])
    elif os.path.exists(scenario):
        layers.append(cfgmod.parse_config_file(scenario))
    else:
        raise ConfigurationError(
            f"unknown scenario {scenario!r} (not a bundled name or a file)")
    flag_layer = {}
    if args.seed is not None:
        flag_layer["seed"] = args.seed
    if args.mode is not None:
        flag_layer["mode"] = args.mode
    overrides = cfgmod.parse_overrides(
        list(args.set or []) + _parse_extra_flags(extras))
    cfg = cfgmod.merge(*layers, overrides, flag_layer)

    pipeline_config = cfgmod.build_pipeline_config(cfg)
    source = cfgmod.build_source(cfg)

    if args.events_out:
        events = source.events()
        _atomic_write(args.events_out, lambda p: write_event_file(p, events))
        source = ArraySource(events, source.geometry,
                             int(cfg["source.chunk_events"]))

    result = run(pipeline_config, source)
    _atomic_write(args.out, lambda p: write_metrics_csv(p, result.metrics))

    lags = np.array([m.lag_us for m in result.metrics]) if result.metrics else np.zeros(1)
    max_rate_raw = max((m.rate_raw for m in result.metrics), default=0.0)
    print(f"scenario={scenario} packages={len(result.metrics)} "
          f"mean_abs_lag_us={float(np.mean(np.abs(lags))):.1f} "
          f"final_gamma={result.final_gamma:.4f} "
          f"max_rate_raw={max_rate_raw:.3g} "
          f"dropped_filter={result.dropped_by_filter} "
          f"dropped_overflow={result.dropped_by_overflow}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog=PROG, description="Adaptive event packaging scenario runner")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run a scenario and write metrics CSV")
    runp.add_argument("--scenario", required=True,
                      help=f"bundled name ({', '.join(cfgmod.SCENARIOS)}) "
                           "or path to a config file")
    runp.add_argument("--seed", type=int, default=None)
    runp.add_argument("--out", default="metrics.csv",
                      help="metrics CSV output path")
    runp.add_argument("--events-out", default=None,
                      help="also write the source events as CSV")
    runp.add_argument("--mode", choices=("virtual", "realtime"), default=None)
    runp.add_argument("--set", action="append", metavar="KEY=VALUE",
                      help="config override; repeatable")

    try:
        args, extras = parser.parse_known_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _run_command(args, extras)
    except ConfigurationError as exc:
        key = f" ({exc.key})" if exc.key else ""
        print(f"configuration error{key}: {exc}", file=sys.stderr)
        return 2
    except AsapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
