"""End-to-end tests of the HTTP service over a real socket.

One ephemeral-port server per test class; requests go through the full
stdlib HTTP stack, so routing, size bounds, error mapping, and response
encoding are all exercised exactly as a client would see them.  The
compiled-trace lookup tests drive :class:`ServeApp` in process, where
they can count parses and share a store between two apps.
"""

import io
import json
import os
import sys
import threading
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_sim_properties import _random_trace

from repro import api
from repro.isa.instructions import TCADescriptor
from repro.isa.trace import TraceBuilder
from repro.isa.trace_io import dump_trace, load_trace_stream
from repro.obs.metrics import get_registry
from repro.serve import service
from repro.serve.params import parse_sim_config
from repro.serve.service import ServeApp, make_server


@pytest.fixture(scope="module")
def server_port():
    server = make_server(port=0, app=ServeApp())
    port = server.server_address[1]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield port
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


def _request(port, path, payload=None, method=None):
    """(status, decoded-JSON body) for one request to the test server."""
    data = None if payload is None else json.dumps(payload).encode("utf-8")
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=data,
        headers={"Content-Type": "application/json"},
        method=method or ("POST" if data is not None else "GET"),
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def _trace_text(name="svc-trace", latency=10):
    builder = TraceBuilder(name)
    builder.independent_block(40, [0, 1, 2, 3])
    builder.tca(
        TCADescriptor(
            name="t", compute_latency=latency, replaced_instructions=50
        )
    )
    builder.independent_block(40, [4, 5, 6, 7])
    buffer = io.StringIO()
    dump_trace(builder.build(), buffer)
    return buffer.getvalue()


EVALUATE_QUERY = {
    "core": "a72",
    "accelerator": {"acceleration": 3.0},
    "workload": {"granularity": 53, "acceleratable_fraction": 0.3},
}


class TestHealthz:
    def test_reports_ok_with_cache_and_manifest(self, server_port):
        status, body = _request(server_port, "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert "+" in body["schema"]
        assert set(body["cache"]) == {"memory", "shared", "disk"}
        assert body["manifest"]["package_version"]
        assert body["manifest"]["cache"]["memory"]["max_entries"] >= 1


class TestEvaluate:
    def test_repeat_request_is_a_cache_hit(self, server_port):
        query = dict(
            EVALUATE_QUERY,
            workload={"granularity": 77, "acceleratable_fraction": 0.4},
        )
        status1, body1 = _request(server_port, "/evaluate", query)
        status2, body2 = _request(server_port, "/evaluate", query)
        assert status1 == status2 == 200
        assert not body1["results"][0]["cached"]
        assert body2["results"][0]["cached"]
        assert body1["results"][0]["speedups"] == body2["results"][0]["speedups"]

    def test_batched_queries_come_back_in_order(self, server_port):
        granularities = [11, 222, 3333, 44]
        payload = {
            "queries": [
                dict(
                    EVALUATE_QUERY,
                    workload={
                        "granularity": g,
                        "acceleratable_fraction": 0.3,
                    },
                )
                for g in granularities
            ]
        }
        status, body = _request(server_port, "/evaluate", payload)
        assert status == 200
        assert len(body["results"]) == len(granularities)
        # from_granularity sets v = a / g, so g echoes back as a / v
        echoed = [
            r["workload"]["acceleratable_fraction"]
            / r["workload"]["invocation_frequency"]
            for r in body["results"]
        ]
        assert echoed == pytest.approx(granularities)

    def test_mode_subset_and_best_mode(self, server_port):
        query = dict(EVALUATE_QUERY, modes=["L_T", "NL_NT"])
        status, body = _request(server_port, "/evaluate", query)
        assert status == 200
        result = body["results"][0]
        assert set(result["speedups"]) == {"L_T", "NL_NT"}
        assert result["best_mode"] in result["speedups"]

    def test_unknown_preset_is_structured_400(self, server_port):
        status, body = _request(
            server_port, "/evaluate", dict(EVALUATE_QUERY, core="bogus")
        )
        assert status == 400
        assert "bogus" in body["error"]
        assert body["field"] == "core"

    def test_bad_workload_reports_field_path(self, server_port):
        payload = {
            "queries": [
                EVALUATE_QUERY,
                dict(EVALUATE_QUERY, workload={"granularity": -5}),
            ]
        }
        status, body = _request(server_port, "/evaluate", payload)
        assert status == 400
        assert body["field"].startswith("queries[1].workload")

    def test_invalid_json_is_400(self, server_port):
        req = urllib.request.Request(
            f"http://127.0.0.1:{server_port}/evaluate",
            data=b"{nope",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=30)
        assert err.value.code == 400

    def test_too_deeply_nested_json_is_400(self, server_port):
        req = urllib.request.Request(
            f"http://127.0.0.1:{server_port}/evaluate",
            data=b"[" * 100_000,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=30)
        assert err.value.code == 400


class TestSweep:
    def test_granularity_sweep_round_trips(self, server_port):
        payload = {
            "kind": "granularity",
            "core": "hp",
            "accelerator": {"acceleration": 3.0},
            "x": [10, 100, 1000],
            "acceleratable_fraction": 0.3,
        }
        status, body = _request(server_port, "/sweep", payload)
        assert status == 200
        result = body["result"]
        assert result["x"] == [10.0, 100.0, 1000.0]
        assert set(result["speedups"]) == {"NL_NT", "L_NT", "NL_T", "L_T"}

    def test_missing_fixed_axis_is_400(self, server_port):
        payload = {
            "kind": "fraction",
            "core": "a72",
            "accelerator": {"acceleration": 2.0},
            "x": [0.1, 0.5],
        }
        status, body = _request(server_port, "/sweep", payload)
        assert status == 400
        assert "granularity" in body["error"]


def _pareto_payload(**overrides):
    payload = {
        "kind": "pareto",
        "cores": ["a72", "hp"],
        "accelerator": {"acceleration": 4.0},
        "fractions": {"start": 0.0, "stop": 1.0, "num": 9},
        "frequencies": {"start": 1e-3, "stop": 1.0, "num": 6, "space": "log"},
        "tech": ["cmos-hp-45", "finfet-hp-20"],
        "block_size": 40,
    }
    payload.update(overrides)
    return payload


def _ndjson_request(port, payload):
    """(status, content-type, parsed NDJSON lines) for one /sweep POST."""
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}/sweep",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(req, timeout=60) as resp:
        raw = resp.read()
        lines = [
            _strict_loads(line)
            for line in raw.split(b"\n")
            if line.strip()
        ]
        return resp.status, resp.headers.get("Content-Type"), lines


class TestParetoSweepEndpoint:
    def test_streaming_ndjson_chunks_and_summary(self, server_port):
        status, content_type, lines = _ndjson_request(
            server_port, _pareto_payload()
        )
        assert status == 200
        assert content_type == "application/x-ndjson"
        # Every line is strict JSON; all but the last are chunk records.
        chunks, summary = lines[:-1], lines[-1]
        assert len(chunks) >= 2
        for index, record in enumerate(chunks):
            assert record["chunk"] == index
            assert record["mode"] in {"NL_NT", "L_NT", "NL_T", "L_T"}
            assert record["tech"] in {"cmos-hp-45", "finfet-hp-20"}
            assert record["lattice_points"] <= 40
            assert record["frontier_size"] >= 0
        assert summary["summary"]["frontier_size"] == len(
            summary["summary"]["frontier"]
        )
        assert summary["summary"]["total_points"] == 2 * 4 * 2 * 9 * 6
        assert "cache" in summary

    def test_stream_false_matches_streamed_summary(self, server_port):
        status, body = _request(
            server_port, "/sweep", _pareto_payload(stream=False)
        )
        assert status == 200
        _, _, lines = _ndjson_request(server_port, _pareto_payload())
        assert body["result"] == lines[-1]["summary"]

    def test_repeat_request_is_served_from_cache(self, server_port):
        payload = _pareto_payload(
            fractions=[0.25, 0.5, 0.75], frequencies=[0.1, 0.2]
        )
        _ndjson_request(server_port, payload)
        _, _, lines = _ndjson_request(server_port, payload)
        assert all(record["cached"] for record in lines[:-1])

    def test_frontier_matches_api_facade(self, server_port):
        from repro import api
        from repro.core.parameters import ARM_A72, AcceleratorParameters

        payload = _pareto_payload(
            cores=["a72"], fractions=[0.2, 0.6, 1.0], frequencies=[0.05, 0.5]
        )
        status, body = _request(
            server_port, "/sweep", dict(payload, stream=False)
        )
        assert status == 200
        expected = api.pareto_sweep(
            ARM_A72,
            AcceleratorParameters(acceleration=4.0),
            [0.2, 0.6, 1.0],
            [0.05, 0.5],
            tech=["cmos-hp-45", "finfet-hp-20"],
        )
        assert body["result"]["frontier"] == [
            p.to_dict() for p in expected.frontier
        ]

    def test_bad_axis_is_400(self, server_port):
        status, body = _request(
            server_port,
            "/sweep",
            _pareto_payload(fractions={"start": 0, "stop": 1}),
        )
        assert status == 400
        assert "fractions" in body["field"]
        status, body = _request(
            server_port,
            "/sweep",
            _pareto_payload(
                frequencies={"start": 0, "stop": 1, "num": 4, "space": "log"}
            ),
        )
        assert status == 400
        assert "frequencies" in body["field"]
        assert "positive" in body["error"]

    def test_unknown_tech_is_400(self, server_port):
        status, body = _request(
            server_port, "/sweep", _pareto_payload(tech=["not-a-node"])
        )
        assert status == 400
        assert "tech" in body["field"]

    def test_unknown_energy_field_is_400(self, server_port):
        status, body = _request(
            server_port, "/sweep", _pareto_payload(energy={"warp_drive": 1})
        )
        assert status == 400
        assert "energy" in body["field"]
        assert "warp_drive" in body["error"]


class TestSimulate:
    def test_simulation_and_cache_hit(self, server_port):
        payload = {"trace": _trace_text(), "config": "a72"}
        status1, body1 = _request(server_port, "/simulate", payload)
        status2, body2 = _request(server_port, "/simulate", payload)
        assert status1 == status2 == 200
        assert not body1["result"]["cached"]
        assert body2["result"]["cached"]
        assert (
            body1["result"]["stats"]["cycles"]
            == body2["result"]["stats"]["cycles"]
            > 0
        )

    def test_multi_run_request_preserves_order(self, server_port):
        payload = {
            "runs": [
                {
                    "trace": _trace_text("multi", latency),
                    "config": {"preset": "a72", "mode": "NL_T"},
                }
                for latency in (5, 30)
            ]
        }
        status, body = _request(server_port, "/simulate", payload)
        assert status == 200
        cycles = [r["stats"]["cycles"] for r in body["results"]]
        assert cycles[0] < cycles[1]
        assert all(r["mode"] == "NL_T" for r in body["results"])

    def test_malformed_trace_is_400(self, server_port):
        status, body = _request(
            server_port, "/simulate", {"trace": "not a trace", "config": "a72"}
        )
        assert status == 400
        assert body["field"] == "trace"

    @pytest.mark.parametrize(
        "text",
        [
            "[1]\n",
            '"header"\n',
            '{"format": "repro-trace", "version": 1}\n[1]\n',
            '{"format": "repro-trace", "version": 1}\n'
            '{"op": "int_alu"},{"op": "int_alu"}\n',
        ],
        ids=["list-header", "string-header", "list-line", "two-values-line"],
    )
    def test_non_object_line_is_400_every_time(self, server_port, text):
        good = {"trace": _trace_text(), "config": "a72"}
        _request(server_port, "/simulate", good)
        _, before = _request(server_port, "/healthz")
        for _ in range(2):
            status, body = _request(
                server_port, "/simulate", {"runs": [good, {"trace": text}]}
            )
            assert status == 400
            assert body["field"] == "runs[1].trace"
            assert "line" in body["error"]
        _, after = _request(server_port, "/healthz")
        old, new = before["compiled_traces"], after["compiled_traces"]
        # The bad text misses (and is parsed) both times; nothing is cached.
        assert new["misses"] - old["misses"] == 2
        assert new["hits"] - old["hits"] == 2
        assert new["entries"] == old["entries"]

    def test_unknown_config_override_is_400(self, server_port):
        status, body = _request(
            server_port,
            "/simulate",
            {
                "trace": _trace_text(),
                "config": {"preset": "a72", "bogus_knob": 1},
            },
        )
        assert status == 400
        assert "bogus_knob" in body["error"]


class TestLimitsAndRouting:
    def test_oversize_request_is_413(self):
        server = make_server(port=0, max_request_bytes=256)
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            big = dict(EVALUATE_QUERY, padding="x" * 1024)
            status, body = _request(port, "/evaluate", big)
            assert status == 413
            assert "limit" in body["error"]
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)

    def test_unknown_endpoint_is_404(self, server_port):
        status, body = _request(server_port, "/nope", {"x": 1})
        assert status == 404

    def test_get_on_post_endpoint_is_404(self, server_port):
        status, _ = _request(server_port, "/evaluate")
        assert status == 404

    def test_request_metrics_recorded(self, server_port):
        from repro.obs.metrics import get_registry

        registry = get_registry()
        before = registry.counter("serve.requests.evaluate").value
        _request(server_port, "/evaluate", EVALUATE_QUERY)
        assert registry.counter("serve.requests.evaluate").value == before + 1


def _strict_loads(raw: bytes):
    """Parse as an RFC 8259-strict client would: bare NaN/Infinity fail."""

    def _reject(token):
        raise ValueError(f"non-standard JSON constant {token!r}")

    return json.loads(raw, parse_constant=_reject)


def _heap_trace_text():
    from repro.workloads import HeapWorkloadSpec, generate_heap_program

    program = generate_heap_program(HeapWorkloadSpec(slots=100, seed=7))
    buffer = io.StringIO()
    dump_trace(program.baseline, buffer)
    return buffer.getvalue()


class TestStrictJson:
    """Every response must parse under a strict (non-Python) JSON reader.

    ``json.dumps`` defaults to emitting bare ``NaN``/``Infinity`` tokens
    for non-finite floats — the model emits ``inf`` speedups for
    degenerate cells (zero-latency accelerator at full coverage), which
    used to make the whole ``/sweep`` response unparseable outside
    Python.
    """

    def test_sweep_with_infinite_cells_is_strict_json(self, server_port):
        payload = {
            "kind": "fraction",
            "x": [0.5, 1.0],
            "granularity": 1,
            "core": "a72",
            "accelerator": {"latency": 0.0},
        }
        req = urllib.request.Request(
            f"http://127.0.0.1:{server_port}/sweep",
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(req, timeout=30) as resp:
            raw = resp.read()
            assert resp.status == 200
        body = _strict_loads(raw)  # must not hit a bare Infinity token
        speedups = body["result"]["speedups"]
        flat = [value for series in speedups.values() for value in series]
        assert "Infinity" in flat  # the sentinel string survives
        assert all(
            isinstance(value, (int, float)) or value == "Infinity"
            for value in flat
        )

    def test_json_safe_sanitizes_every_nonfinite_shape(self):
        from repro.serve.service import _json_safe

        payload = {
            "nan": float("nan"),
            "nested": [{"inf": float("inf")}, (float("-inf"), 1.5)],
        }
        safe = _json_safe(payload)
        assert safe["nan"] is None
        assert safe["nested"][0]["inf"] == "Infinity"
        assert safe["nested"][1] == ["-Infinity", 1.5]
        # allow_nan=False round-trips cleanly once sanitized
        _strict_loads(json.dumps(safe, allow_nan=False).encode("utf-8"))


class TestSimulateSampling:
    SAMPLING = {
        "interval": 200,
        "period": 4,
        "warmup": 100,
        "head": 400,
        "min_instructions": 1000,
    }

    def test_sampled_run_reports_mode_and_confidence(self, server_port):
        text = _heap_trace_text()
        payload = {
            "runs": [
                {"trace": text, "config": "a72"},
                {"trace": text, "config": "a72", "sampling": self.SAMPLING},
                {"trace": text, "config": "a72", "sampling": "exact"},
            ]
        }
        status, body = _request(server_port, "/simulate", payload)
        assert status == 200
        exact, sampled, forced = body["results"]
        assert exact["sim_mode"] == forced["sim_mode"] == "exact"
        assert sampled["sim_mode"] == "sampled"
        assert sampled["sampling"]["windows"] >= 2
        assert sampled["sampling"]["confidence"]["cycles"]["ci95"] >= 0
        # explicit exact-mode sampling is byte-identical to the default
        assert forced["stats"] == exact["stats"]
        # the sampled estimate lands near the oracle even on this short
        # trace (the tight acceptance bound lives in test_sim_sample)
        truth = exact["stats"]["cycles"]
        assert abs(sampled["stats"]["cycles"] - truth) / truth < 0.10

    def test_sampled_results_cache_with_their_mode(self, server_port):
        text = _heap_trace_text()
        run = {"trace": text, "config": "a72", "sampling": self.SAMPLING}
        status1, body1 = _request(server_port, "/simulate", run)
        status2, body2 = _request(server_port, "/simulate", run)
        assert status1 == status2 == 200
        assert body2["result"]["cached"]
        assert body2["result"]["sim_mode"] == "sampled"
        assert body2["result"]["sampling"] == body1["result"]["sampling"]

    def test_exact_sampling_shares_cache_with_default(self, server_port):
        text = _trace_text("share-check")
        _request(server_port, "/simulate", {"trace": text, "config": "a72"})
        status, body = _request(
            server_port,
            "/simulate",
            {"trace": text, "config": "a72", "sampling": "exact"},
        )
        assert status == 200
        assert body["result"]["cached"]  # exact mode keys like no sampling

    def test_bad_sampling_spec_is_structured_400(self, server_port):
        status, body = _request(
            server_port,
            "/simulate",
            {
                "trace": _trace_text(),
                "config": "a72",
                "sampling": {"interval": 0},
            },
        )
        assert status == 400
        assert body["field"] == "sampling"

    def test_mode_counters_reach_metrics(self, server_port):
        text = _trace_text("metrics-mode")
        _request(server_port, "/simulate", {"trace": text, "config": "a72"})
        req = urllib.request.Request(
            f"http://127.0.0.1:{server_port}/metrics", method="GET"
        )
        with urllib.request.urlopen(req, timeout=30) as resp:
            page = resp.read().decode("utf-8")
        assert "serve_simulate_exact_runs" in page


_CONFIGS = [
    "a72",
    "lp",
    {"preset": "hp", "mode": "NL_NT"},
    {"preset": "a72", "mode": "L_NT"},
    {"preset": "a72", "mode": "NL_T", "rob_size": 64},
]


def _dumps(trace):
    buffer = io.StringIO()
    dump_trace(trace, buffer)
    return buffer.getvalue()


class TestTraceTextLookup:
    """The compiled-trace lookup keyed on a digest of the posted text."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        length=st.integers(1, 40),
        with_tca=st.booleans(),
        picks=st.lists(
            st.sampled_from(range(len(_CONFIGS))), min_size=2, max_size=2, unique=True
        ),
    )
    def test_repeat_text_skips_parsing_and_matches_the_oracle(
        self, seed, length, with_tca, picks
    ):
        trace = _random_trace(seed, length, with_tca)
        text = _dumps(trace)
        app = ServeApp()
        calls = []
        real_parse = service.parse_trace

        def counting_parse(*args, **kwargs):
            calls.append(args)
            return real_parse(*args, **kwargs)

        bodies = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(service, "parse_trace", counting_parse)
            for pick in picks:
                bodies.append(
                    app.handle_simulate({"trace": text, "config": _CONFIGS[pick]})
                )
                assert len(calls) == 1  # the second post parses nothing
        oracle_trace = load_trace_stream(io.StringIO(text))
        for pick, body in zip(picks, bodies):
            oracle = api.simulate(oracle_trace, parse_sim_config(_CONFIGS[pick]))
            assert json.dumps(body["result"]["stats"]) == json.dumps(
                oracle.stats.to_dict()
            )
            assert body["result"]["trace_name"] == trace.name
        stats = bodies[1]["compiled_traces"]
        assert (stats["compiles"], stats["hits"], stats["misses"]) == (1, 1, 1)

    def test_header_name_gets_its_own_entry_but_shares_the_result(self):
        app = ServeApp()
        first = app.handle_simulate({"trace": _trace_text("name-a"), "config": "lp"})
        second = app.handle_simulate({"trace": _trace_text("name-b"), "config": "lp"})
        assert not first["result"]["cached"]
        assert second["result"]["cached"]
        assert first["result"]["trace_name"] == "name-a"
        assert second["result"]["trace_name"] == "name-b"
        assert first["result"]["stats"] == second["result"]["stats"]
        stats = second["compiled_traces"]
        assert (stats["entries"], stats["compiles"], stats["hits"]) == (2, 2, 0)

    def test_text_with_a_lone_surrogate_is_hashed(self):
        # A JSON body can carry "\\ud800", which decodes to a lone
        # surrogate that strict UTF-8 cannot encode.
        text = _trace_text("x").replace('"name": "x"', '"name": "\ud800"')
        body = ServeApp().handle_simulate({"trace": text, "config": "a72"})
        assert body["result"]["trace_name"] == "\ud800"

    def test_lookups_are_counted_in_the_registry(self, server_port):
        registry = get_registry()
        names = ("trace_text_hits", "trace_parses")
        before = {n: registry.counter(f"serve.simulate.{n}").value for n in names}
        text = _trace_text("counted")
        for config in ("a72", "hp", "lp"):
            _request(server_port, "/simulate", {"trace": text, "config": config})
        after = {n: registry.counter(f"serve.simulate.{n}").value for n in names}
        assert after["trace_parses"] - before["trace_parses"] == 1
        assert after["trace_text_hits"] - before["trace_text_hits"] == 2
        req = urllib.request.Request(
            f"http://127.0.0.1:{server_port}/metrics", method="GET"
        )
        with urllib.request.urlopen(req, timeout=30) as resp:
            page = resp.read().decode("utf-8")
        for name in names:
            assert f"repro_serve_simulate_{name}_total" in page

    @pytest.mark.skipif(
        os.name != "posix", reason="shared segments ride across os.fork"
    )
    def test_sibling_worker_is_served_from_the_shared_store(self):
        from repro.serve.shm import SharedBlobStore, unpickle_blob

        store = SharedBlobStore.create(4 * 1024 * 1024, 64, "test-traces")
        try:
            text = _trace_text("shared")
            first = ServeApp(shared_traces=store)
            second = ServeApp(shared_traces=store)
            first.handle_simulate({"trace": text, "config": "a72"})
            registry = get_registry()
            shared = registry.counter("serve.simulate.trace_text_shared_hits")
            shared_before = shared.value
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(service, "parse_trace", None)  # must not be called
                body = second.handle_simulate({"trace": text, "config": "hp"})
            stats = body["compiled_traces"]
            assert (stats["shared_hits"], stats["compiles"]) == (1, 0)
            assert shared.value == shared_before + 1
            assert store.stats()["entries"] == 1
            # The published blob carries the content fingerprint.
            (digest,) = first._compiled
            published = unpickle_blob(store.get(digest))
            assert published.source._fingerprint is not None
        finally:
            store.destroy()

    def test_concurrent_posts_keep_the_lru_consistent(self):
        app = ServeApp(compiled_traces=2)  # three texts: forces evictions
        texts = [_trace_text(f"stress-{i}", latency=5 + i) for i in range(3)]
        expected = {
            text: app.handle_simulate({"trace": text, "config": "a72"})["result"]
            for text in texts
        }
        errors = []

        def post(offset):
            try:
                for j in range(12):
                    text = texts[(offset + j) % len(texts)]
                    result = app.handle_simulate({"trace": text, "config": "a72"})
                    if result["result"]["stats"] != expected[text]["stats"]:
                        errors.append(f"stats differ for {text[:40]!r}")
            except Exception as exc:  # reported below, not lost in the thread
                errors.append(repr(exc))

        threads = [threading.Thread(target=post, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        stats = app.compiled_trace_stats()
        assert stats["hits"] + stats["misses"] == len(texts) + 8 * 12
        assert stats["compiles"] == stats["misses"]
        assert stats["entries"] <= 2
