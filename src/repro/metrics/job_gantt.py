"""Per-job Gantt charts over a *shared* pool's slots.

:mod:`repro.metrics.gantt` draws the paper's Figure 2 — one machine per
row, one compilation.  When the compile service multiplexes many jobs
over one warm pool, the interesting picture is inverted: rows are the
pool's slots and the glyphs say *which job* occupied each slot over
time, so fair-share interleaving (and any monopolization bug) is
visible at a glance.

A job's event log is the service's one record of its tasks: each
``function_done`` event carries its wave's ``start`` beside its own
``time``, and ``CompileService.gantt`` turns the events of the jobs it
still holds into one :class:`JobSpan` per task (wave start → result
arrival).  Real worker attribution never crosses
the process boundary, so spans are laid onto slots greedily — each span
takes the first slot free at its start time, which reconstructs a
feasible slot assignment for the overlap structure the pool actually
produced.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

#: Glyph alphabet for job rows (cycled when there are more jobs).
_GLYPHS = string.ascii_uppercase + string.ascii_lowercase + string.digits

IDLE = "."


@dataclass(frozen=True)
class JobSpan:
    """One task's occupancy of one pool slot, in service-relative
    seconds."""

    job_id: str
    label: str  # "section.function"
    start: float
    end: float

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)


def assign_slots(
    spans: Sequence[JobSpan], slots: Optional[int] = None
) -> List[List[JobSpan]]:
    """Greedy interval-to-slot assignment, deterministic.

    Spans are placed in (start, end, job, label) order onto the first
    slot whose previous span has ended.  With ``slots`` given, the lane
    count is capped: when every lane is busy the span goes to the lane
    that frees up earliest (batched dispatch can make raw spans overlap
    more than the true worker count; capping keeps the chart honest
    about the pool's actual width).
    """
    lanes: List[List[JobSpan]] = []
    lane_free: List[float] = []
    epsilon = 1e-9
    ordered = sorted(
        spans, key=lambda s: (s.start, s.end, s.job_id, s.label)
    )
    for span in ordered:
        placed = False
        for index, free_at in enumerate(lane_free):
            if free_at <= span.start + epsilon:
                lanes[index].append(span)
                lane_free[index] = max(free_at, span.end)
                placed = True
                break
        if placed:
            continue
        if slots is None or len(lanes) < slots:
            lanes.append([span])
            lane_free.append(span.end)
        else:
            index = min(
                range(len(lane_free)), key=lambda i: (lane_free[i], i)
            )
            lanes[index].append(span)
            lane_free[index] = max(lane_free[index], span.end)
    return lanes


def job_glyphs(spans: Sequence[JobSpan]) -> Dict[str, str]:
    """Stable job → glyph mapping, in order of first appearance."""
    glyphs: Dict[str, str] = {}
    for span in sorted(spans, key=lambda s: (s.start, s.job_id)):
        if span.job_id not in glyphs:
            glyphs[span.job_id] = _GLYPHS[len(glyphs) % len(_GLYPHS)]
    return glyphs


def render_job_gantt(
    spans: Sequence[JobSpan],
    width: int = 72,
    slots: Optional[int] = None,
) -> str:
    """Render shared-pool occupancy: one row per slot, one glyph per
    job, ``.`` for idle."""
    if width < 10:
        raise ValueError(f"width must be >= 10, got {width}")
    if not spans:
        return "no task spans recorded"
    t0 = min(span.start for span in spans)
    t1 = max(span.end for span in spans)
    elapsed = t1 - t0
    if elapsed <= 0:
        elapsed = 1e-9
    scale = width / elapsed
    glyphs = job_glyphs(spans)
    lanes = assign_slots(spans, slots=slots)

    lines = [
        f"pool timeline: {elapsed:.3f}s over {len(lanes)} slot(s) "
        f"({IDLE} idle)"
    ]
    label_width = len(f"slot {len(lanes) - 1}")
    for index, lane in enumerate(lanes):
        row = [IDLE] * width
        for span in lane:
            start = min(width - 1, int((span.start - t0) * scale))
            end = min(width, max(start + 1, int((span.end - t0) * scale)))
            for cell in range(start, end):
                row[cell] = glyphs[span.job_id]
        lines.append(f"{f'slot {index}'.rjust(label_width)} |{''.join(row)}|")
    per_job: Dict[str, int] = {}
    for span in spans:
        per_job[span.job_id] = per_job.get(span.job_id, 0) + 1
    legend = ", ".join(
        f"{glyph}={job_id} ({per_job[job_id]} task(s))"
        for job_id, glyph in glyphs.items()
    )
    lines.append(f"jobs: {legend}")
    return "\n".join(lines)
