"""Tests for the span tracing layer (repro.obs.tracing)."""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import re
import threading

import pytest

from repro.errors import ValidationError
from repro.obs import (
    JsonlSpanSink,
    Recording,
    Span,
    Tracer,
    read_trace,
    render_span_tree,
)


class TestSpanNesting:
    def test_child_parents_under_enclosing_span(self):
        tracer = Tracer()
        with tracer.span("outer") as outer_id:
            with tracer.span("inner") as inner_id:
                pass
        inner, outer = tracer.finished
        assert inner.name == "inner" and outer.name == "outer"
        assert inner.parent_id == outer_id
        assert outer.parent_id is None
        assert inner_id != outer_id

    def test_siblings_share_parent(self):
        tracer = Tracer()
        with tracer.span("root") as root_id:
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        a, b = tracer.finished[0], tracer.finished[1]
        assert a.parent_id == b.parent_id == root_id

    def test_explicit_parent_overrides_stack(self):
        tracer = Tracer()
        reserved = tracer.new_span_id()
        with tracer.span("outer"):
            with tracer.span("adopted", parent_id=reserved):
                pass
        assert tracer.finished[0].parent_id == reserved

    def test_span_records_positive_wall_time(self):
        tracer = Tracer()
        with tracer.span("timed"):
            sum(range(1000))
        span = tracer.finished[0]
        assert span.wall_s >= 0.0 and span.cpu_s >= 0.0
        assert span.trace_id == tracer.trace_id

    def test_attrs_preserved(self):
        tracer = Tracer()
        with tracer.span("s", point="{'n': 1}", rep=3):
            pass
        assert tracer.finished[0].attrs == {"point": "{'n': 1}", "rep": 3}

    def test_empty_name_rejected(self):
        tracer = Tracer()
        with pytest.raises(ValidationError):
            with tracer.span(""):
                pass

    def test_current_span_id_tracks_stack(self):
        tracer = Tracer()
        assert tracer.current_span_id is None
        with tracer.span("s") as sid:
            assert tracer.current_span_id == sid
        assert tracer.current_span_id is None

    def test_thread_local_stacks_do_not_interleave(self):
        tracer = Tracer()
        errors: list[str] = []

        def worker(name: str) -> None:
            with tracer.span(name) as sid:
                if tracer.current_span_id != sid:
                    errors.append(name)

        threads = [
            threading.Thread(target=worker, args=(f"t{i}",)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        # Every thread's span is a root: no cross-thread parenting.
        assert all(s.parent_id is None for s in tracer.finished)

    def test_asyncio_tasks_do_not_nest_across_awaits(self):
        tracer = Tracer()

        async def request(name: str, gate: asyncio.Event) -> None:
            with tracer.span(name):
                await gate.wait()
                with tracer.span(name + "-child"):
                    pass

        async def main() -> None:
            gate = asyncio.Event()
            tasks = [asyncio.create_task(request(f"r{i}", gate)) for i in range(3)]
            await asyncio.sleep(0)  # every task holds its span open
            gate.set()
            await asyncio.gather(*tasks)

        with tracer.span("outside"):
            pass
        asyncio.run(main())
        by_name = {s.name: s for s in tracer.finished}
        for i in range(3):
            assert by_name[f"r{i}"].parent_id is None
            assert by_name[f"r{i}-child"].parent_id == by_name[f"r{i}"].span_id
        assert tracer.current_span_id is None

    def test_ids_are_16_hex_digits_and_distinct(self):
        tracer = Tracer()
        ids = [tracer.new_span_id() for _ in range(10_000)] + [tracer.trace_id]
        assert all(re.fullmatch(r"[0-9a-f]{16}", i) for i in ids)
        assert len(set(ids)) == len(ids)

    def test_emit_logical_span(self):
        tracer = Tracer()
        sid = tracer.emit_logical("design-point", wall_s=1.5, point="{'p': 4}")
        span = tracer.finished[0]
        assert span.span_id == sid
        assert span.wall_s == 1.5 and span.cpu_s == 0.0
        assert span.attrs["point"] == "{'p': 4}"


def _emit_from_child(path: str, trace_id: str, parent: str, idx: int) -> None:
    tracer = Tracer(sink=JsonlSpanSink(path), trace_id=trace_id)
    with tracer.span("measurement-batch", parent_id=parent, index=idx):
        pass


class TestJsonlSink:
    def test_round_trip_through_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(sink=JsonlSpanSink(path))
        with tracer.span("campaign", label="x"):
            pass
        spans = read_trace(path)
        assert len(spans) == 1
        assert spans[0].name == "campaign"
        assert spans[0].attrs == {"label": "x"}

    def test_multiple_processes_share_one_sink(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(sink=JsonlSpanSink(path))
        with tracer.span("parent") as pid:
            ctx = multiprocessing.get_context("spawn")
            procs = [
                ctx.Process(
                    target=_emit_from_child,
                    args=(str(path), tracer.trace_id, pid, i),
                )
                for i in range(4)
            ]
            for p in procs:
                p.start()
            for p in procs:
                p.join()
        spans = read_trace(path)
        assert len(spans) == 5
        batches = [s for s in spans if s.name == "measurement-batch"]
        assert sorted(s.attrs["index"] for s in batches) == [0, 1, 2, 3]
        assert all(s.parent_id == pid for s in batches)
        assert len({s.pid for s in batches}) == 4  # each from its own process

    def test_sink_tracer_keeps_no_spans_in_memory(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(sink=JsonlSpanSink(path))
        for i in range(1000):
            with tracer.span("serve-request", i=i):
                pass
        assert tracer.finished == []
        assert len(read_trace(path)) == 1000
        assert len(Tracer().finished) == 0  # a sink-less tracer starts empty

    def test_torn_line_is_skipped(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(sink=JsonlSpanSink(path))
        with tracer.span("whole"):
            pass
        with path.open("a") as fh:
            fh.write('{"name": "torn", "trace_id": "x", "span')
        spans = read_trace(path)
        assert [s.name for s in spans] == ["whole"]

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ValidationError):
            read_trace(tmp_path / "nope.jsonl")

    def test_span_dict_round_trip(self):
        span = Span(
            name="n", trace_id="t", span_id="s", parent_id=None,
            start_s=1.0, wall_s=2.0, cpu_s=0.5, attrs={"k": "v"}, pid=42,
        )
        assert Span.from_dict(json.loads(json.dumps(span.to_dict()))) == span


class TestRecording:
    def test_span_goes_straight_into_the_tracer(self):
        tracer = Tracer()
        recording = Recording(tracer=tracer)
        with recording.span("measurement-batch", tracer.trace_id, "p", index=3) as sid:
            pass
        (span,) = tracer.finished
        assert (span.name, span.span_id, span.parent_id) == ("measurement-batch", sid, "p")
        assert span.trace_id == tracer.trace_id and span.attrs == {"index": 3}
        assert span.wall_s >= 0.0 and recording.spans == []

    def test_collected_spans_merge_into_the_sink(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        worker = Recording()
        with worker.span("measurement-batch", "t", "p", index=3):
            pass
        assert len(worker.spans) == 1 and not path.exists()
        Recording(tracer=Tracer(sink=JsonlSpanSink(path))).merge(worker.export())
        (span,) = read_trace(path)
        assert (span.name, span.trace_id, span.parent_id) == ("measurement-batch", "t", "p")
        assert span.attrs == {"index": 3}

    def test_collected_spans_merge_into_a_memory_tracer(self):
        worker = Recording()
        with worker.span("measurement-batch", "t", "p", index=3):
            pass
        tracer = Tracer()
        Recording(tracer=tracer).merge(worker.export())
        assert [s.to_dict() for s in tracer.finished] == worker.spans

    def test_recordings_nest_and_restore(self):
        from repro.obs import current_recording

        outer, inner = Recording(), Recording()
        assert current_recording() is None
        with outer.active():
            with inner.active():
                assert current_recording() is inner
            assert current_recording() is outer
        assert current_recording() is None


class TestRenderTree:
    def test_nested_tree_shape(self):
        tracer = Tracer()
        with tracer.span("campaign"):
            with tracer.span("experiment"):
                with tracer.span("measurement-batch"):
                    pass
        out = render_span_tree(tracer.finished)
        lines = out.splitlines()
        assert lines[0].startswith("campaign")
        assert "└─ experiment" in lines[1]
        assert "└─ measurement-batch" in lines[2]
        assert "wall=" in out and "cpu=" in out

    def test_orphan_becomes_root(self):
        tracer = Tracer()
        tracer.emit_logical("lost-child", wall_s=0.1, parent_id="gone")
        out = render_span_tree(tracer.finished)
        assert out.startswith("lost-child")

    def test_empty_trace(self):
        assert render_span_tree([]) == "(no spans)"

    def test_siblings_ordered_by_start(self):
        tracer = Tracer()
        tracer.emit_logical("late", wall_s=0.1, start_s=10.0)
        tracer.emit_logical("early", wall_s=0.1, start_s=1.0)
        out = render_span_tree(tracer.finished)
        assert out.index("early") < out.index("late")
