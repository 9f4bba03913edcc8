"""The event kernels' names, importable without the kernels.

The CLI offers them as ``--engine`` choices while it builds its parser,
before any command runs, so they live apart from
:mod:`repro.runtime.scheduler` and its numpy stack.
"""

from __future__ import annotations

from typing import Literal

__all__ = ["ENGINES", "SchedulerEngine"]

SchedulerEngine = Literal["fast", "reference", "compiled"]

#: Every engine name the scheduler knows, in documentation order.
#: ``compiled`` additionally needs a working C toolchain — probe with
#: :func:`repro.runtime.compiledpath.compiled_available`.
ENGINES: tuple[SchedulerEngine, ...] = ("reference", "fast", "compiled")
