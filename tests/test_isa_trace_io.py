"""Unit tests for trace serialization."""

import io

import pytest

from repro.isa.instructions import MemRequest, TCADescriptor
from repro.isa.trace import TraceBuilder
from repro.isa.trace_io import (
    dump_trace,
    load_trace,
    load_trace_stream,
    save_trace,
)


def sample_trace():
    builder = TraceBuilder("sample", metadata={"k": 1})
    builder.alu(0, (1, 2))
    builder.load(3, 0x1000, 16)
    builder.store(3, 0x2000)
    builder.branch(srcs=(0,), mispredicted=True)
    builder.branch(srcs=(1,), low_confidence=True)
    builder.alu(4, (), latency=9)
    builder.tca(
        TCADescriptor(
            name="t",
            compute_latency=7,
            reads=(MemRequest(0x100, 64),),
            writes=(MemRequest(0x200, 32, is_write=True),),
            replaced_instructions=12,
            replaced_cycles=30,
        ),
        srcs=(1,),
        dsts=(2,),
    )
    return builder.build()


class TestRoundtrip:
    def test_stream_roundtrip_preserves_everything(self):
        trace = sample_trace()
        buffer = io.StringIO()
        dump_trace(trace, buffer)
        buffer.seek(0)
        loaded = load_trace_stream(buffer)
        assert loaded.name == trace.name
        assert loaded.metadata == trace.metadata
        assert len(loaded) == len(trace)
        for original, restored in zip(trace, loaded):
            assert original == restored

    def test_file_roundtrip(self, tmp_path):
        trace = sample_trace()
        path = str(tmp_path / "trace.jsonl")
        save_trace(trace, path)
        loaded = load_trace(path)
        assert loaded.instructions == trace.instructions

    def test_simulation_equivalence(self, tmp_path, tiny_sim_config):
        from repro.sim.simulator import simulate

        trace = sample_trace()
        path = str(tmp_path / "trace.jsonl")
        save_trace(trace, path)
        loaded = load_trace(path)
        assert (
            simulate(trace, tiny_sim_config).cycles
            == simulate(loaded, tiny_sim_config).cycles
        )


class TestErrors:
    def test_empty_stream(self):
        with pytest.raises(ValueError, match="empty"):
            load_trace_stream(io.StringIO(""))

    def test_foreign_header(self):
        with pytest.raises(ValueError, match="bad header"):
            load_trace_stream(io.StringIO('{"format": "other"}\n'))

    def test_newer_version_rejected(self):
        stream = io.StringIO('{"format": "repro-trace", "version": 99}\n')
        with pytest.raises(ValueError, match="newer"):
            load_trace_stream(stream)

    def test_length_mismatch(self):
        stream = io.StringIO(
            '{"format": "repro-trace", "version": 1, "length": 2}\n'
            '{"op": "nop"}\n'
        )
        with pytest.raises(ValueError, match="declares 2"):
            load_trace_stream(stream)

    def test_blank_lines_tolerated(self):
        stream = io.StringIO(
            '{"format": "repro-trace", "version": 1, "length": 1}\n'
            "\n"
            '{"op": "nop"}\n'
            "\n"
        )
        assert len(load_trace_stream(stream)) == 1

    @pytest.mark.parametrize(
        "lines, bad_line",
        [
            (["[1]"], 1),
            (['"repro-trace"'], 1),
            (["null"], 1),
            (["", '{"format": "repro-trace", "version": 1}', "[1]"], 3),
            (['{"format": "repro-trace", "version": 1}', "7"], 2),
        ],
    )
    def test_non_object_line_rejected(self, lines, bad_line):
        stream = io.StringIO("\n".join(lines) + "\n")
        message = f"line {bad_line}: expected a JSON object"
        with pytest.raises(ValueError, match=message):
            load_trace_stream(stream)

    @pytest.mark.parametrize(
        "lines",
        [
            # two values on one line
            ['{"op": "nop"},{"op": "nop"}'],
            # one value split over two lines, padded back to two values
            ['{"op": "int_alu", "s": [[1', '2]]}, {"op": "nop"}'],
            # a string that swallows the line break
            ['{"op": "nop", "x": "}', '{"}, {"op": "nop"}'],
        ],
    )
    def test_each_line_must_hold_exactly_one_value(self, lines):
        header = '{"format": "repro-trace", "version": 1}'
        stream = io.StringIO("\n".join([header, *lines]) + "\n")
        with pytest.raises(ValueError, match="line 2: "):
            load_trace_stream(stream)

    def test_bad_line_is_named(self):
        stream = io.StringIO(
            '{"format": "repro-trace", "version": 1}\n{"op": "nop"}\n{"op": \n'
        )
        with pytest.raises(ValueError, match="line 3: "):
            load_trace_stream(stream)
