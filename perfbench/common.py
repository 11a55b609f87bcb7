"""Shared plumbing: private run directories, the server, HTTP, statistics.

Everything the benchmark writes lives under ``<checkout>/.perfbench/``
and is removed when the run ends.  The server is always launched with
the same command line (:func:`server_command`), each launch with fresh
cache, native-build and temp directories, so no disk or shared-memory
state carries over from one launch to the next.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

#: Launches of the program per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Per-request client timeout; a request that takes longer is a failure.
REQUEST_TIMEOUT_S = 60.0


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))


def server_command(workers: int) -> list[str]:
    """The fixed ``repro-serve`` command line every launch uses."""
    return [
        sys.executable, "-m", "repro.serve.service",
        "--host", "127.0.0.1", "--port", "0",
        "--workers", str(workers), "--jobs", "1",
    ]


class RunDir:
    """A private directory tree for one benchmark run, removed on close."""

    def __init__(self) -> None:
        WORK.mkdir(exist_ok=True)
        self.path = WORK / f"run-{os.getpid()}-{time.monotonic_ns()}"
        self.path.mkdir()
        self._count = 0

    def program_env(self) -> dict[str, str]:
        """Environment for one program launch, with fresh private dirs.

        ``REPRO_CACHE_DIR`` (disk cache), ``REPRO_NATIVE_CACHE_DIR``
        (the C kernel build) and ``TMPDIR`` (pool state files) all point
        into a directory no earlier launch used.
        """
        self._count += 1
        base = self.path / f"launch-{self._count}"
        env = dict(os.environ)
        for var, name in (
            ("REPRO_CACHE_DIR", "cache"),
            ("REPRO_NATIVE_CACHE_DIR", "native"),
            ("TMPDIR", "tmp"),
        ):
            (base / name).mkdir(parents=True)
            env[var] = str(base / name)
        env["PYTHONPATH"] = str(SRC)
        return env

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


def stop_process(proc: subprocess.Popen) -> None:
    """SIGTERM (graceful drain), then SIGKILL; always reaps the process."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10)
    for stream in (proc.stdout, proc.stderr):
        if stream is not None:
            stream.close()


def process_tree(pid: int) -> list[int]:
    """``pid`` and all its live descendants."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    tree, todo = [], [pid]
    while todo:
        current = todo.pop()
        tree.append(current)
        todo.extend(children.get(current, ()))
    return tree


def peak_rss_mb(pid: int) -> float:
    """Summed peak resident set (VmHWM) of ``pid``'s process tree, MiB."""
    total_kb = 0
    for member in process_tree(pid):
        try:
            with open(f"/proc/{member}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


class Server:
    """One ``repro-serve`` pool launched with :func:`server_command`."""

    def __init__(self, env: dict[str, str], workers: int) -> None:
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            server_command(workers),
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        banner = self.proc.stdout.readline()
        try:
            address = banner.split("http://", 1)[1].split()[0]
            self.port = int(address.rsplit(":", 1)[1])
        except (IndexError, ValueError):
            stop_process(self.proc)
            raise RuntimeError(f"server did not start: {banner!r}") from None
        deadline = time.monotonic() + 60
        while True:
            try:
                status, _ = request(self.port, "GET", "/healthz", timeout=5)
                if status == 200:
                    break
            except OSError:
                pass
            if time.monotonic() > deadline or self.proc.poll() is not None:
                stop_process(self.proc)
                raise RuntimeError("server never became healthy")
            time.sleep(0.005)

    def ready(self) -> float:
        """Seconds from launch to now (call after warm-up requests)."""
        return time.perf_counter() - self.started

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        stop_process(self.proc)


def _exchange(port: int, method: str, path: str, body: bytes | None,
              timeout: float) -> socket.socket:
    """Open a connection and send one HTTP/1.0 request."""
    body = body or b""
    head = (f"{method} {path} HTTP/1.0\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n")
    sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
    try:
        sock.sendall(head.encode() + body)
    except OSError:
        sock.close()
        raise
    return sock


def _split(raw: bytes) -> tuple[int, bytes]:
    header, _, payload = raw.partition(b"\r\n\r\n")
    try:
        return int(header.split(b" ", 2)[1]), payload
    except (IndexError, ValueError):
        raise OSError(f"malformed HTTP response {raw[:80]!r}") from None


def request(
    port: int,
    method: str,
    path: str,
    body: bytes | None = None,
    timeout: float = REQUEST_TIMEOUT_S,
) -> tuple[int, bytes]:
    """One HTTP/1.0 exchange on a fresh connection: ``(status, body)``.

    A raw socket keeps the load generator's own CPU cost per request
    small; the server closes the connection after each response.
    """
    sock = _exchange(port, method, path, body, timeout)
    with sock:
        chunks = []
        while data := sock.recv(1 << 16):
            chunks.append(data)
    return _split(b"".join(chunks))


def stream_request(port: int, path: str, body: bytes,
                   timeout: float = REQUEST_TIMEOUT_S) -> tuple[int, float, bytes]:
    """POST and read a streamed reply: ``(status, s to first line, body)``."""
    started = time.perf_counter()
    sock = _exchange(port, "POST", path, body, timeout)
    first = None
    with sock:
        chunks = []
        while data := sock.recv(1 << 16):
            chunks.append(data)
            if first is None:
                raw = b"".join(chunks)
                end = raw.find(b"\r\n\r\n")
                if end >= 0 and raw.find(b"\n", end + 4) >= 0:
                    first = time.perf_counter() - started
    status, payload = _split(b"".join(chunks))
    return status, first if first is not None else time.perf_counter() - started, payload


def strict_json(raw: bytes | str) -> Any:
    """Decode an RFC 8259 body (bare NaN/Infinity are errors)."""

    def refuse(token: str) -> Any:
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(raw, parse_constant=refuse)


def scrape_metrics(port: int) -> dict[str, float]:
    """``GET /metrics`` as ``{sample name: value}`` (unlabelled samples)."""
    status, raw = request(port, "GET", "/metrics", timeout=10)
    if status != 200:
        return {}
    samples = {}
    for line in raw.decode().splitlines():
        if line and not line.startswith("#") and "{" not in line:
            name, _, value = line.partition(" ")
            try:
                samples[name] = float(value)
            except ValueError:
                continue
    return samples


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (0 for an empty list)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def cpu_times() -> tuple[int, int]:
    """Machine-wide ``(busy, steal)`` jiffies from ``/proc/stat``."""
    with open("/proc/stat") as handle:
        fields = [int(x) for x in handle.readline().split()[1:]]
    user, nice, system, idle, iowait, irq, softirq, steal = fields[:8]
    return user + nice + system + irq + softirq, steal


class StealMeter:
    """Host CPU steal over the intervals one metric is measured in.

    On a shared host the hypervisor runs other tenants on the CPUs this
    machine asks for: for a share ``s`` of the CPU time the program is
    ready to run, it waits instead (``steal`` in ``/proc/stat``).  That
    share swings from 0 to about 50% within minutes, and a CPU-bound
    request path takes ``1 / (1 - s)`` times as long.  The timed metrics
    are therefore reported steal-corrected: times multiplied by
    ``1 - s`` and rates divided by it, with ``s`` measured over exactly
    the intervals the metric is timed in.  The program's own speed moves
    them as it moves the raw figures; runs print both.
    """

    def __init__(self) -> None:
        self.busy = 0
        self.steal = 0

    @contextmanager
    def measure(self) -> Iterator[None]:
        before = cpu_times()
        try:
            yield
        finally:
            busy, steal = (b - a for a, b in zip(before, cpu_times()))
            self.busy += busy
            self.steal += steal

    @property
    def share(self) -> float:
        return self.steal / max(1, self.busy + self.steal)


def provenance() -> dict[str, Any]:
    """Git sha (a hash of ``src/`` outside a git checkout), CPUs, Python."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    if sha:
        source = {"git_sha": sha}
    else:
        digest = hashlib.sha256()
        for path in sorted(SRC.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(SRC)).encode())
                digest.update(path.read_bytes())
        source = {"source_sha256": digest.hexdigest()[:16]}
    return {**source, "nproc": nproc(), "python": platform.python_version()}
