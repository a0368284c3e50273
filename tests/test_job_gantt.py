"""Per-job Gantt rendering over shared pool slots."""

import pytest

from repro.metrics.job_gantt import (
    JobSpan,
    assign_slots,
    render_job_gantt,
)


def _span(job, start, end, label="s.f"):
    return JobSpan(job_id=job, label=label, start=start, end=end)


class TestAssignSlots:
    def test_sequential_spans_share_one_slot(self):
        lanes = assign_slots([_span("a", 0, 1), _span("b", 1, 2)])
        assert len(lanes) == 1
        assert [s.job_id for s in lanes[0]] == ["a", "b"]

    def test_overlap_opens_a_second_slot(self):
        lanes = assign_slots([_span("a", 0, 2), _span("b", 1, 3)])
        assert len(lanes) == 2

    def test_slot_cap_reuses_earliest_free_lane(self):
        spans = [_span("a", 0, 2), _span("b", 0, 3), _span("c", 0.5, 4)]
        lanes = assign_slots(spans, slots=2)
        assert len(lanes) == 2
        assert sum(len(lane) for lane in lanes) == 3

    def test_assignment_is_deterministic(self):
        spans = [
            _span("b", 0, 2), _span("a", 0, 2),
            _span("c", 1, 3), _span("a", 2, 4),
        ]
        first = assign_slots(spans)
        second = assign_slots(list(reversed(spans)))
        as_ids = lambda lanes: [[s.job_id for s in lane] for lane in lanes]
        assert as_ids(first) == as_ids(second)


class TestRender:
    def test_chart_shows_slots_and_legend(self):
        chart = render_job_gantt(
            [_span("j1", 0, 1), _span("j2", 0.5, 2)], width=20
        )
        assert "slot 0" in chart and "slot 1" in chart
        assert "A=j1" in chart and "B=j2" in chart

    def test_empty_spans(self):
        assert "no task spans" in render_job_gantt([])

    def test_rejects_silly_width(self):
        with pytest.raises(ValueError, match="width"):
            render_job_gantt([_span("a", 0, 1)], width=3)
