"""Power traces: piecewise-constant watts per plane over a run.

A :class:`PowerTrace` holds one ``(k,)`` float64 column each for the
segment starts, the segment ends and the watts of every plane, and
derives from them the quantities the paper tabulates — average watts
(Table III), peak watts ("the highest observed power for OpenBLAS was
56.4 watts"), and total joules — and can resample to a fixed period the
way a PAPI polling loop would.  The engine builds traces straight from
its bucket columns (:meth:`PowerTrace.from_columns`); callers that
iterate get :class:`PowerSegment` views, built on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..machine.energy import ordered_sum
from ..util.errors import MeasurementError, ValidationError
from ..util.validation import require_nonnegative
from .planes import Plane

__all__ = ["PowerSegment", "PowerTrace"]


@dataclass(frozen=True)
class PowerSegment:
    """Constant power over ``[t_start, t_end)``, per plane (watts)."""

    t_start: float
    t_end: float
    watts: Mapping[Plane, float]

    def __post_init__(self) -> None:
        if self.t_end < self.t_start:
            raise ValidationError(
                f"segment ends before it starts: [{self.t_start}, {self.t_end})"
            )
        for plane, w in self.watts.items():
            if w < 0:
                raise ValidationError(f"negative power on {plane}: {w}")

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    def energy(self, plane: Plane) -> float:
        """Joules contributed by this segment on *plane*."""
        return self.watts.get(plane, 0.0) * self.duration


def _column(values) -> np.ndarray:
    """*values* as a read-only contiguous float64 column."""
    col = np.ascontiguousarray(values, dtype=np.float64)
    col.setflags(write=False)
    return col


class PowerTrace:
    """An ordered, gap-free sequence of power segments, held as columns.

    ``starts``/``ends`` are the segment bounds and ``watts[plane]`` the
    plane's power per segment, all ``(k,)`` read-only float64 arrays in
    time order.  A plane missing from ``watts`` reads 0 W.  Pickles
    hold only the columns.

    ``PowerTrace(segments)`` builds a trace from :class:`PowerSegment`
    objects (sorted by start; a plane some segment lacks reads 0 W
    there); :meth:`from_columns` is the constructor without objects.
    """

    def __init__(self, segments: Iterable[PowerSegment]):
        segs = sorted(segments, key=lambda s: s.t_start)
        planes = dict.fromkeys(p for s in segs for p in s.watts)
        self._set_columns(
            [s.t_start for s in segs],
            [s.t_end for s in segs],
            {p: [s.watts.get(p, 0.0) for s in segs] for p in planes},
        )
        self._segments = segs

    @classmethod
    def from_columns(
        cls,
        starts,
        ends,
        watts: Mapping[Plane, object],
    ) -> "PowerTrace":
        """A trace from ``(k,)`` columns in time order: segment starts,
        segment ends, and watts per plane.  Validated once per column
        (ends ≥ starts, watts ≥ 0, no overlaps); the arrays are made
        read-only, and copied only if they are not contiguous float64.
        """
        trace = cls.__new__(cls)
        trace._set_columns(starts, ends, watts)
        trace._segments = None
        return trace

    def _set_columns(self, starts, ends, watts) -> None:
        starts, ends = _column(starts), _column(ends)
        if starts.ndim != 1 or starts.shape != ends.shape:
            raise ValidationError(
                f"trace columns must be equal-length vectors, got "
                f"{starts.shape} and {ends.shape}"
            )
        watts = {plane: _column(w) for plane, w in watts.items()}
        for plane, w in watts.items():
            if w.shape != starts.shape:
                raise ValidationError(
                    f"{plane} watts column has shape {w.shape}, "
                    f"expected {starts.shape}"
                )
            require_nonnegative(w, f"{plane} watts")
        require_nonnegative(ends - starts, "segment duration")
        overlap = np.flatnonzero(starts[1:] < ends[:-1] - 1e-12)
        if len(overlap):
            i = overlap[0]
            raise ValidationError(
                f"overlapping segments at t={starts[i + 1]} "
                f"(previous ends {ends[i]})"
            )
        self.starts = starts
        self.ends = ends
        self.watts = watts

    def __getstate__(self) -> dict:
        return {"starts": self.starts, "ends": self.ends, "watts": self.watts}

    def __setstate__(self, state: dict) -> None:
        self.starts = _column(state["starts"])
        self.ends = _column(state["ends"])
        self.watts = {p: _column(w) for p, w in state["watts"].items()}
        self._segments = None

    @property
    def segments(self) -> list[PowerSegment]:
        """The trace as :class:`PowerSegment` objects (built on first
        use, then cached; the columns stay the source of truth)."""
        if self._segments is None:
            planes = list(self.watts)
            columns = [self.watts[p].tolist() for p in planes]
            self._segments = [
                PowerSegment(t0, t1, dict(zip(planes, ws)))
                for t0, t1, *ws in zip(
                    self.starts.tolist(), self.ends.tolist(), *columns
                )
            ]
        return self._segments

    def __len__(self) -> int:
        return len(self.starts)

    @property
    def t_start(self) -> float:
        if not len(self):
            raise MeasurementError("empty trace has no start time")
        return self.starts.item(0)

    @property
    def t_end(self) -> float:
        if not len(self):
            raise MeasurementError("empty trace has no end time")
        return self.ends.item(-1)

    @property
    def duration(self) -> float:
        """Covered wall time (end - start)."""
        return self.t_end - self.t_start if len(self) else 0.0

    def planes(self) -> set[Plane]:
        """All planes appearing anywhere in the trace."""
        return set(self.watts)

    def energy(self, plane: Plane) -> float:
        """Total joules on *plane* over the whole trace, folded in
        segment order."""
        w = self.watts.get(plane)
        if w is None:
            return 0.0
        return ordered_sum(w * (self.ends - self.starts))

    def average_power(self, plane: Plane) -> float:
        """Time-averaged watts on *plane* — the paper's ``EAvg``."""
        if self.duration <= 0:
            raise MeasurementError("cannot average power over a zero-length trace")
        return self.energy(plane) / self.duration

    def peak_power(self, plane: Plane) -> float:
        """Highest instantaneous watts on *plane*."""
        if not len(self):
            raise MeasurementError("empty trace has no peak")
        w = self.watts.get(plane)
        return 0.0 if w is None else w.max().item()

    def _sample(self, times: np.ndarray, plane: Plane) -> np.ndarray:
        """Watts on *plane* at each of *times* (0 outside segments)."""
        w = self.watts.get(plane)
        if w is None or not len(self):
            return np.zeros(len(times))
        idx = self.starts.searchsorted(times, side="right") - 1
        clipped = np.maximum(idx, 0)
        inside = (idx >= 0) & (times < self.ends[clipped])
        return np.where(inside, w[clipped], 0.0)

    def power_at(self, t: float, plane: Plane) -> float:
        """Instantaneous watts at time *t* (0 outside the trace)."""
        return self._sample(np.array([t], dtype=np.float64), plane).item(0)

    def resample(self, period: float, plane: Plane) -> list[tuple[float, float]]:
        """Sample watts every *period* seconds, as a PAPI polling loop
        would: at ``t_start + k * period`` while that is before
        ``t_end``.  Returns ``[(t, watts), ...]`` covering the trace.

        Sample times are computed from ``k``, not by adding *period*
        repeatedly, so they do not drift: a 1 s trace sampled every
        0.1 s gives exactly 10 samples."""
        if period <= 0:
            raise ValidationError(f"period must be > 0, got {period}")
        if not len(self):
            return []
        t0, t1 = self.t_start, self.t_end
        count = int(np.ceil((t1 - t0) / period)) + 1
        times = t0 + np.arange(count) * period
        times = times[times < t1]
        return list(zip(times.tolist(), self._sample(times, plane).tolist()))

    @staticmethod
    def concat(traces: Sequence["PowerTrace"]) -> "PowerTrace":
        """Concatenate non-overlapping traces into one."""
        planes = dict.fromkeys(p for tr in traces for p in tr.watts)
        empty = np.empty(0)
        starts = np.concatenate([empty, *(tr.starts for tr in traces)])
        order = np.argsort(starts, kind="stable")
        ends = np.concatenate([empty, *(tr.ends for tr in traces)])
        watts = {
            p: np.concatenate(
                [empty, *(tr.watts.get(p, np.zeros(len(tr))) for tr in traces)]
            )[order]
            for p in planes
        }
        return PowerTrace.from_columns(starts[order], ends[order], watts)
