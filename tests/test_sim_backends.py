"""Tests of the simulator engine selection (:mod:`repro.sim.backend`).

Three layers: selection semantics (environment parsing, programmatic
overrides, the C-else-Python resolution), the representability guards
that route unsupported runs back to the Python oracle, and
byte-identical equivalence of the C kernel against the pure-Python hot
loop.  The kernel tests run whenever a system C compiler is present.
"""

import dataclasses
import json
import shutil

import pytest

from repro.core.modes import TCAMode
from repro.sim import backend
from repro.sim.compile import compile_trace
from repro.sim.config import HIGH_PERF_SIM, LOW_PERF_SIM
from repro.sim.core import CoreSim, DeadlockError
from repro.workloads.heap import HeapWorkloadSpec, generate_heap_program
from repro.workloads.synthetic import SyntheticSpec, generate_synthetic_program

HAS_CC = any(shutil.which(cc) for cc in ("cc", "gcc", "clang"))
needs_cc = pytest.mark.skipif(not HAS_CC, reason="no C compiler on this host")

MODES = TCAMode.all_modes()


@pytest.fixture(autouse=True)
def _restore_backend_selection():
    """Leave the module-level backend selection exactly as we found it."""
    previous = backend._requested
    yield
    backend.set_backend(previous)


def _cases():
    heap = generate_heap_program(
        HeapWorkloadSpec(slots=48, call_probability=0.3, seed=7)
    )
    synth = generate_synthetic_program(
        SyntheticSpec(total_instructions=900, num_invocations=3)
    )
    return [
        ("heap-base", heap.baseline, heap.baseline.metadata.get("warm_ranges")),
        ("heap-accel", heap.accelerated(), heap.baseline.metadata.get("warm_ranges")),
        ("synth-accel", synth.accelerated(), None),
    ]


CASES = _cases()


def _dump(stats) -> str:
    return json.dumps(stats.to_dict(), sort_keys=False)


def _run(backend_name, config, trace, warm_ranges=None):
    with backend.use_backend(backend_name):
        return CoreSim(config, trace, warm_ranges=warm_ranges).run()


def _select_c():
    """Select ``auto`` and insist it resolved to the C kernel."""
    backend.set_backend("auto")
    assert backend.effective_backend() == "c"


# =================================================================== selection


class TestSelection:
    def test_env_request_parses_valid_values(self, monkeypatch):
        for name in backend.VALID_BACKENDS:
            monkeypatch.setenv("REPRO_SIM_BACKEND", name.upper() + " ")
            assert backend._env_request() == name

    def test_unknown_env_value_warns_and_uses_auto(self, monkeypatch):
        # Includes the engines this module no longer has: a stale
        # environment keeps working, on the default selection.
        backend.set_backend(None)
        for value in ("fortran", "numba", "interpreted", "cython", "c"):
            monkeypatch.setenv("REPRO_SIM_BACKEND", value)
            with pytest.warns(RuntimeWarning, match="unknown REPRO_SIM_BACKEND"):
                assert backend.requested_backend() == "auto"

    def test_cython_request_warns_and_falls_through_auto(self, monkeypatch):
        backend.set_backend(None)
        monkeypatch.setenv("REPRO_SIM_BACKEND", "cython")
        with pytest.warns(RuntimeWarning, match="unknown REPRO_SIM_BACKEND"):
            effective = backend.effective_backend()
        assert effective == ("c" if HAS_CC else "python")
        with pytest.raises(ValueError, match="unknown sim backend"):
            backend.set_backend("cython")

    def test_numba_request_without_numba_warns_and_falls_back(self, monkeypatch):
        backend.set_backend(None)
        monkeypatch.setenv("REPRO_SIM_BACKEND", "numba")
        with pytest.warns(RuntimeWarning, match="unknown REPRO_SIM_BACKEND"):
            effective = backend.effective_backend()
        assert effective == ("c" if HAS_CC else "python")
        with pytest.raises(ValueError, match="unknown sim backend"):
            backend.set_backend("numba")

    def test_set_backend_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="unknown sim backend"):
            backend.set_backend("fortran")

    def test_override_beats_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_BACKEND", "python")
        backend.set_backend("auto")
        assert backend.requested_backend() == "auto"
        backend.set_backend(None)
        assert backend.requested_backend() == "python"

    def test_use_backend_restores_on_exit(self):
        backend.set_backend("python")
        with backend.use_backend("auto"):
            assert backend.requested_backend() == "auto"
        assert backend.requested_backend() == "python"

    def test_python_backend_resolves_to_no_impl(self):
        backend.set_backend("python")
        assert backend.effective_backend() == "python"
        assert backend._impl() is None

    def test_auto_prefers_a_native_backend_when_available(self, monkeypatch):
        backend.set_backend("auto")
        assert backend.effective_backend() == ("c" if HAS_CC else "python")

        def no_compiler():
            raise RuntimeError("no C compiler found")

        monkeypatch.setattr(backend, "_build_c_kernel", no_compiler)
        backend.set_backend("auto")
        assert backend.effective_backend() == "python"
        assert backend._impl() is None

    @needs_cc
    def test_c_backend_resolves_when_compiler_present(self):
        _select_c()
        sim = CoreSim(HIGH_PERF_SIM, CASES[0][1])
        assert backend.try_run_native(sim) is not None

    def test_packed_trace_is_memoized_on_the_compiled_trace(self):
        compiled = compile_trace(CASES[0][1])
        assert backend.get_packed(compiled) is backend.get_packed(compiled)


# ====================================================== representability guards


def _foreign_snapshots(l1):
    """L1 snapshots the kernel's fixed-geometry arrays cannot hold."""
    return {
        # A set wider than the configured associativity.
        "wide-set": {"l1": {"0": list(range(l1.assoc + 1))}},
        # Set indices outside [0, num_sets): past the end, and negative
        # (which numpy indexing would silently wrap to the last set).
        "index-past-end": {"l1": {str(l1.num_sets + 5): [1]}},
        "index-negative": {"l1": {"-1": [123456]}},
    }


class TestNativeGuards:
    def _sim(self, **config_overrides):
        config = dataclasses.replace(HIGH_PERF_SIM, **config_overrides)
        return CoreSim(config, CASES[0][1])

    def test_python_backend_never_runs_native(self):
        backend.set_backend("python")
        assert backend.try_run_native(self._sim()) is None

    @needs_cc
    def test_when_packing_bound_routes_to_the_oracle(self):
        _select_c()
        sim = self._sim(max_cycles=backend._WHEN_LIMIT)
        assert backend.try_run_native(sim) is None

    @needs_cc
    def test_oversized_cache_snapshot_routes_to_the_oracle(self):
        # A loaded residency snapshot that does not fit the configured
        # geometry routes the run to the oracle, which then runs it
        # exactly: same stats, same exported residency.
        _, trace, _ = CASES[2]
        l1 = CoreSim(HIGH_PERF_SIM, trace).cache.l1.config
        for label, snapshot in _foreign_snapshots(l1).items():
            _select_c()
            sim = CoreSim(HIGH_PERF_SIM, trace, cache_state=snapshot)
            assert backend.try_run_native(sim) is None, label
            runs = {}
            for name in ("python", "auto"):
                with backend.use_backend(name):
                    sim = CoreSim(HIGH_PERF_SIM, trace, cache_state=snapshot)
                    stats = sim.run()
                runs[name] = (_dump(stats), json.dumps(sim.cache.export_state()))
            assert runs["auto"] == runs["python"], label

    @needs_cc
    def test_guard_fallback_leaves_the_run_exact(self):
        # A run that trips a guard must produce stats identical to an
        # unguarded python run: the fallback path is the same oracle.
        trace = CASES[0][1]
        config = dataclasses.replace(HIGH_PERF_SIM, max_cycles=backend._WHEN_LIMIT)
        expected = _run("python", config, trace)
        _select_c()
        actual = _run("auto", config, trace)
        assert _dump(actual) == _dump(expected)

    @needs_cc
    def test_watchdog_maps_to_deadlock_error(self):
        config = dataclasses.replace(HIGH_PERF_SIM, max_cycles=40)
        with pytest.raises(DeadlockError):
            _run("python", config, CASES[0][1])
        _select_c()
        with pytest.raises(DeadlockError, match="max_cycles"):
            _run("auto", config, CASES[0][1])


# ================================================================= equivalence


@needs_cc
class TestCEquivalence:
    """Full matrix on the compiled C kernel (fast enough to afford it)."""

    @pytest.fixture(autouse=True)
    def _c_kernel_builds(self):
        # Without this a broken build would turn "auto" into the Python
        # loop and the matrix would compare the oracle with itself.
        _select_c()

    @pytest.mark.parametrize("config_name", ["high", "low"])
    @pytest.mark.parametrize("mode", MODES, ids=[m.value for m in MODES])
    @pytest.mark.parametrize("case", CASES, ids=[label for label, _, _ in CASES])
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_matches_python(self, config_name, mode, case, warm):
        label, trace, warm_ranges = case
        if warm and not warm_ranges:
            pytest.skip(f"{label} has no warm ranges")
        base = HIGH_PERF_SIM if config_name == "high" else LOW_PERF_SIM
        config = dataclasses.replace(base, tca_mode=mode)
        ranges = warm_ranges if warm else None
        expected = _run("python", config, trace, ranges)
        actual = _run("auto", config, trace, ranges)
        assert _dump(actual) == _dump(expected), label

    def test_repeated_runs_reuse_pooled_state(self):
        _, trace, _ = CASES[0]
        compiled = compile_trace(trace)
        with backend.use_backend("auto"):
            first = CoreSim(HIGH_PERF_SIM, compiled).run()
            second = CoreSim(HIGH_PERF_SIM, compiled).run()
        assert _dump(first) == _dump(second)
        assert backend.get_packed(compiled)._pool  # state block returned
