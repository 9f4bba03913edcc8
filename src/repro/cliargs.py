"""Shared argparse fragments for ``repro`` subcommands and ``tools/``.

Every command-line surface in the repo (the ``repro`` CLI, the bench
harness, the profiler, the verify wrapper) builds its machine/format/
trace options from these helpers, so flags spell and behave the same
everywhere — one ``--format {ascii,markdown,csv}``, one ``--trace
OUT.json``, one machine-argument group.
"""

from __future__ import annotations

import argparse
import os
from pathlib import Path

from .util.errors import ConfigurationError
from .util.tables import TextTable
from .util.units import GHZ, GiB

__all__ = [
    "FORMATS",
    "add_engine_arg",
    "add_format_arg",
    "add_machine_args",
    "add_study_scale_args",
    "add_trace_arg",
    "check_store_path",
    "check_trace_path",
    "emit",
    "get_format",
    "machine_from_args",
]

#: Table output formats every surface accepts.
FORMATS = ("ascii", "markdown", "csv")


def add_format_arg(
    parser: argparse.ArgumentParser, top_level: bool = False
) -> None:
    """Add ``--format``.

    The main ``repro`` parser passes ``top_level=True`` and owns the
    ``"ascii"`` default; subcommand parsers default to
    ``argparse.SUPPRESS`` so re-specifying the flag after the
    subcommand works without the subparser's default clobbering a value
    given before it (``repro --format csv study`` and
    ``repro study --format csv`` are both honoured).
    """
    parser.add_argument(
        "--format",
        choices=FORMATS,
        default="ascii" if top_level else argparse.SUPPRESS,
        help="table output format",
    )


def get_format(args: argparse.Namespace) -> str:
    """The resolved ``--format`` value (``"ascii"`` when never added)."""
    return getattr(args, "format", "ascii")


def add_engine_arg(
    parser: argparse.ArgumentParser, default: str | None = None
) -> None:
    """Add ``--engine`` with the full engine registry as choices.

    Every surface that runs the scheduler shares this one flag, so all
    three engines (``reference``/``fast``/``compiled``) are reachable
    everywhere with the same spelling — and an unknown value fails in
    argparse, before any simulation starts.  The default ``None`` lets
    the platform pick (:func:`repro.runtime.scheduler.default_engine`:
    ``compiled`` with a C toolchain, else ``fast`` with a one-time
    warning); use ``repro engines`` to see what this host runs.
    """
    from .runtime.engines import ENGINES

    parser.add_argument(
        "--engine",
        choices=ENGINES,
        default=default,
        help="event kernel (default: 'compiled' when a C toolchain is "
        "found, else 'fast' - identical numbers; naming 'compiled' without "
        "a toolchain is an error; probe with `repro engines`)",
    )


def add_trace_arg(parser: argparse.ArgumentParser) -> None:
    """Add ``--trace OUT.json`` (Chrome trace-event export)."""
    parser.add_argument(
        "--trace",
        metavar="OUT.json",
        default=None,
        help="record phase spans and write a chrome://tracing / Perfetto "
        "JSON file (view with tools/trace.py)",
    )


def check_trace_path(path: str | os.PathLike | None) -> None:
    """Fail fast on an unwritable ``--trace`` destination.

    Called before a study runs so a typo'd output directory surfaces
    as a clean ``error:`` line immediately, not as a traceback after
    minutes of simulation.
    """
    if path is not None:
        _check_parent_dir(path, "--trace")


def _check_parent_dir(path: str | os.PathLike, flag: str) -> None:
    parent = Path(path).parent
    if not parent.is_dir():
        raise ConfigurationError(f"{flag}: directory does not exist: {parent}")
    if not os.access(parent, os.W_OK):
        raise ConfigurationError(f"{flag}: directory not writable: {parent}")


def add_study_scale_args(parser: argparse.ArgumentParser) -> None:
    """The huge-sweep argument group: the checkpoint store (shared by
    ``repro study`` and any tool that drives a parallel study)."""
    g = parser.add_argument_group("scale")
    g.add_argument(
        "--store",
        "--checkpoint",
        "--resume",
        dest="store",
        metavar="DIR",
        default=None,
        help="run the study against the result store in DIR (created if "
        "missing): cells already stored are served, the rest are "
        "simulated and stored, so rerunning an interrupted sweep resumes "
        "it bit-identically (--checkpoint/--resume are aliases)",
    )


def check_store_path(path: str | os.PathLike | None) -> None:
    """Fail fast on a bad ``--store`` destination — before the sweep,
    not hours into it.  A store directory that does not exist yet (the
    first run of a resumable sweep) needs a writable parent."""
    if path is not None and not Path(path).is_dir():
        _check_parent_dir(path, "--store")


def add_machine_args(parser: argparse.ArgumentParser) -> None:
    """The simulated-platform argument group (shared by all surfaces)."""
    g = parser.add_argument_group("machine")
    g.add_argument("--cores", type=int, default=None, help="core count (default: paper platform)")
    g.add_argument("--channels", type=int, default=None, help="DRAM channels")
    g.add_argument("--frequency-ghz", type=float, default=None, help="core clock in GHz")
    g.add_argument("--memory-gib", type=int, default=None, help="DRAM capacity in GiB")


def machine_from_args(args: argparse.Namespace):
    """The paper's Haswell E3-1225 unless any machine flag was given."""
    from .machine.specs import generic_smp, haswell_e3_1225

    cores = getattr(args, "cores", None)
    channels = getattr(args, "channels", None)
    frequency_ghz = getattr(args, "frequency_ghz", None)
    memory_gib = getattr(args, "memory_gib", None)
    if cores is None and channels is None and frequency_ghz is None:
        return haswell_e3_1225()
    return generic_smp(
        cores=cores or 4,
        frequency_hz=(frequency_ghz or 3.2) * GHZ,
        dram_channels=channels or 1,
        dram_capacity_bytes=(memory_gib or 4) * GiB,
    )


def emit(table: TextTable, fmt: str) -> str:
    """Render *table* in the ``--format`` the user picked."""
    if fmt == "markdown":
        return table.to_markdown()
    if fmt == "csv":
        return table.to_csv()
    return table.to_ascii()
