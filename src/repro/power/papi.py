"""PAPI-style component API over the emulated RAPL counters.

The paper instruments its test driver with PAPI ("configured to read the
values from the entire package and the primary power plane (PP0)",
§V-C).  This module reproduces the PAPI workflow — component discovery,
event sets with a start/stop lifecycle, and energy values reported in
nanojoules, as PAPI's RAPL component does — so energy can be read the
way the paper's driver read it.  The study driver does not go through
it: a study reads each run's plane energies from the
:class:`~repro.sim.engine.Engine` measurement directly.  This API is
read by the tests and ``examples/power_trace_demo.py``, over an engine's
:class:`~repro.power.msr.MsrFile`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from ..util.errors import MeasurementError
from .msr import MsrFile
from .planes import Plane
from .rapl import RaplReader

__all__ = ["PapiComponent", "EventSetState", "EventSet", "PapiLibrary", "RAPL_EVENTS"]

#: PAPI RAPL event names -> plane (package index 0, as on single-socket).
RAPL_EVENTS: dict[str, Plane] = {
    "rapl:::PACKAGE_ENERGY:PACKAGE0": Plane.PACKAGE,
    "rapl:::PP0_ENERGY:PACKAGE0": Plane.PP0,
    "rapl:::PP1_ENERGY:PACKAGE0": Plane.PP1,
    "rapl:::DRAM_ENERGY:PACKAGE0": Plane.DRAM,
}

_NANOJOULES_PER_JOULE = 1e9


@dataclass(frozen=True)
class PapiComponent:
    """One PAPI component (only ``rapl`` is provided, as in the paper's
    ``--with-components=rapl`` build, Table I)."""

    name: str
    events: tuple[str, ...]

    def describe_event(self, event: str) -> str:
        if event not in self.events:
            raise MeasurementError(f"component {self.name} has no event {event!r}")
        plane = RAPL_EVENTS[event]
        return f"{event}: energy of plane {plane} in nJ"


class EventSetState(Enum):
    """Lifecycle of an event set (mirrors PAPI's state machine)."""

    STOPPED = "stopped"
    RUNNING = "running"


class EventSet:
    """A started/stopped group of counters, as in PAPI.

    Usage (cf. the paper's instrumented driver)::

        lib = PapiLibrary(msr_file)
        es = lib.create_eventset()
        es.add_event("rapl:::PACKAGE_ENERGY:PACKAGE0")
        es.add_event("rapl:::PP0_ENERGY:PACKAGE0")
        es.start()
        ...  # run the kernel (advance the simulation)
        values = es.stop()  # nanojoules per event, in add order
    """

    def __init__(self, library: "PapiLibrary"):
        self._library = library
        self._events: list[str] = []
        self._state = EventSetState.STOPPED
        self._reader: RaplReader | None = None

    @property
    def state(self) -> EventSetState:
        return self._state

    @property
    def events(self) -> tuple[str, ...]:
        return tuple(self._events)

    def add_event(self, name: str) -> None:
        """Add a named event; only legal while stopped."""
        if self._state is not EventSetState.STOPPED:
            raise MeasurementError("cannot add events to a running event set")
        if name not in RAPL_EVENTS:
            raise MeasurementError(
                f"unknown event {name!r}; available: {sorted(RAPL_EVENTS)}"
            )
        if name in self._events:
            raise MeasurementError(f"event {name!r} already in event set")
        self._events.append(name)

    def start(self) -> None:
        """Begin counting: snapshots the counters so values are deltas."""
        if self._state is EventSetState.RUNNING:
            raise MeasurementError("event set already running")
        if not self._events:
            raise MeasurementError("event set is empty")
        planes = tuple(RAPL_EVENTS[e] for e in self._events)
        self._reader = RaplReader(self._library.msr, planes)
        self._state = EventSetState.RUNNING

    def read(self) -> list[float]:
        """Read values (nJ) without stopping — PAPI_read semantics."""
        if self._state is not EventSetState.RUNNING or self._reader is None:
            raise MeasurementError("event set is not running")
        snap = self._reader.snapshot()
        return [snap[RAPL_EVENTS[e]] * _NANOJOULES_PER_JOULE for e in self._events]

    def stop(self) -> list[float]:
        """Stop counting and return final values (nJ) in add order."""
        values = self.read()
        self._state = EventSetState.STOPPED
        self._reader = None
        return values


class PapiLibrary:
    """Top-level PAPI facade bound to one machine's MSR file."""

    def __init__(self, msr: MsrFile):
        self.msr = msr
        self._components = {
            "rapl": PapiComponent("rapl", tuple(RAPL_EVENTS.keys())),
        }

    def num_components(self) -> int:
        return len(self._components)

    def component(self, name: str) -> PapiComponent:
        """Look up a component by name (only ``"rapl"`` exists)."""
        if name not in self._components:
            raise MeasurementError(
                f"no PAPI component {name!r} (built with --with-components=rapl)"
            )
        return self._components[name]

    def create_eventset(self) -> EventSet:
        """Create an empty, stopped event set."""
        return EventSet(self)
