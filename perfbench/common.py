"""Shared pieces of the benchmark: paths, statistics, host fingerprint and
program-process management.

Nothing here imports the program (``repro``); the program is only ever
imported by the child processes (``child.py``) and, outside the timed
windows, by the correctness gates.
"""

from __future__ import annotations

import json
import math
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: Scratch space of one invocation (deleted when it ends) and the kept
#: outputs (run records, Chrome traces).  Both live inside the checkout.
WORK_DIR_NAME = ".perfbench_work"
OUT_DIR_NAME = ".perfbench_out"

#: Percentiles the tail rule may report, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)
#: Samples the tail rule keeps beyond the percentile it reports.
TAIL_BEYOND = 10
#: Set-up times sampled per run (``setup_s`` is their median).
SETUP_SAMPLES = 5


# ------------------------------------------------------------------ statistics


def tail_percentile(values: list[float]) -> tuple[float, float, int] | None:
    """The highest percentile of :data:`TAIL_LADDER` that keeps at least
    :data:`TAIL_BEYOND` samples above it: ``(pct, value, n_beyond)``, or
    None when the sample is too small for any of them."""
    ordered = sorted(values)
    n = len(ordered)
    best = None
    for pct in TAIL_LADDER:
        rank = max(1, math.ceil(pct / 100.0 * n))
        beyond = n - rank
        if beyond >= TAIL_BEYOND:
            best = (pct, ordered[rank - 1], beyond)
    return best


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# ------------------------------------------------------------ host fingerprint


def calibration_score(iterations: int = 200_000, repeats: int = 9) -> float:
    """Score of a fixed pure-Python loop, in million iterations per second
    (best of *repeats*): a same-host yardstick, so numbers from hosts of
    different speed are never compared silently."""
    best = math.inf
    for _ in range(repeats):
        started = time.perf_counter()
        acc = 0
        table = {}
        for i in range(iterations):
            acc = (acc * 31 + i) % 1_000_003
            table[i & 255] = acc
        best = min(best, time.perf_counter() - started)
    return iterations / best / 1e6


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def host_fingerprint() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": usable_cpus(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "calibration_mips": round(calibration_score(), 3),
    }


# --------------------------------------------------------------- the program


def program_src(tree: Path) -> Path:
    return tree / "src"


def check_program(tree: Path) -> str | None:
    """Why *tree* cannot be benchmarked, or None when it can."""
    if not (program_src(tree) / "repro" / "__init__.py").is_file():
        return f"no program source at {program_src(tree)}"
    if not (tree / ".repro_artifacts").is_dir():
        return f"no committed artifact store at {tree / '.repro_artifacts'}"
    return None


def import_program(tree: Path) -> None:
    """Make the program under *tree* importable in this process (gates)."""
    src = str(program_src(tree))
    if src not in sys.path:
        sys.path.insert(0, src)


class Child:
    """One program process started from ``child.py``.

    The child prints ``READY <json>`` once its set-up is done; the time
    from spawn to that line is the set-up time.  :meth:`finish` reaps it
    with ``wait4`` so its peak resident set (and that of the processes it
    waited for, such as probe workers) is known.
    """

    def __init__(self, tree: Path, role: str, spec: dict, work: Path) -> None:
        self.spec_path = work / f"spec-{role}-{time.monotonic_ns()}.json"
        self.result_path = self.spec_path.with_suffix(".result.json")
        spec = dict(spec, role=role, result=str(self.result_path))
        self.spec_path.write_text(json.dumps(spec))
        env = dict(os.environ)
        env["PYTHONPATH"] = str(program_src(tree))
        env["PYTHONHASHSEED"] = "0"
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "child.py"), str(self.spec_path)],
            stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL,
            env=env,
            text=True,
        )
        self.ready_info: dict = {}
        self.setup_s: float | None = None
        self.peak_rss_mb: float | None = None
        self.returncode: int | None = None

    def _wait_line(self, prefix: str, timeout: float) -> str:
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([self.proc.stdout], [], [], remaining)[0]:
                break
            line = self.proc.stdout.readline()
            if not line:
                break
            if line.startswith(prefix):
                return line[len(prefix):]
        self.kill()
        raise RuntimeError(f"program process never printed {prefix.strip()} ({self.spec_path.name})")

    def wait_ready(self, timeout: float = 120.0) -> dict:
        info = self._wait_line("READY ", timeout)
        self.setup_s = time.perf_counter() - self.started
        self.ready_info = json.loads(info)
        return self.ready_info

    def mark(self, timeout: float = 30.0) -> None:
        """Have a running child restart its spans and counter deltas
        (SIGUSR1) and wait until it has."""
        self.proc.send_signal(signal.SIGUSR1)
        self._wait_line("MARKED", timeout)

    def finish(self, timeout: float = 170.0, terminate: bool = False) -> dict:
        """Stop (when *terminate*) and reap the child; return its result."""
        if terminate and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + timeout
        status = None
        while status is None:
            pid, status_, rusage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                status = status_
                break
            if time.monotonic() > deadline:
                self.proc.kill()
                pid, status, rusage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.02)
        self.returncode = os.waitstatus_to_exitcode(status)
        self.proc.returncode = self.returncode
        self.proc.stdout.close()
        self.peak_rss_mb = rusage.ru_maxrss / 1024.0
        if self.returncode != 0 or not self.result_path.is_file():
            raise RuntimeError(
                f"program process exited with {self.returncode} ({self.spec_path.name})"
            )
        return json.loads(self.result_path.read_text())

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.returncode = self.proc.wait()
        self.proc.stdout.close()


#: Body of a keep-awake process: drop to ``SCHED_IDLE`` (nice 19 where
#: that is refused), then spin until killed, until its parent is gone or
#: for at most :data:`SPIN_LIMIT_S` seconds, whichever comes first.
SPIN_LIMIT_S = 170
_SPIN = f"""
import os, time
parent = os.getppid()
try:
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
except (AttributeError, OSError):
    os.nice(19)
deadline = time.monotonic() + {SPIN_LIMIT_S}
while os.getppid() == parent and time.monotonic() < deadline:
    for _ in range(100_000):
        pass
"""


class KeepAwake:
    """One lowest-priority spinning process per usable CPU, for the timed
    window of a run.

    An idle virtual CPU halts, and waking it goes through the hypervisor,
    whose cost varies with what else the host runs: a request that crosses
    a handful of thread and process wake-ups measures that more than the
    program.  ``SCHED_IDLE`` spinners keep the CPUs running without taking
    time from the program, whose threads preempt them at once.
    """

    def __init__(self) -> None:
        self.procs: list[subprocess.Popen] = []

    def __enter__(self) -> "KeepAwake":
        for _ in range(usable_cpus()):
            self.procs.append(subprocess.Popen(
                [sys.executable, "-c", _SPIN], stdin=subprocess.DEVNULL
            ))
        return self

    def __exit__(self, *exc) -> None:
        for proc in self.procs:
            proc.kill()
        for proc in self.procs:
            proc.wait()


class RunContext:
    """One workload run: its inputs and the program processes it starts.

    Every child is remembered so the benchmark can stop whatever is still
    alive if a run ends early.
    """

    def __init__(self, tree: Path, seed: int, seconds: float, trace: bool,
                 work: Path) -> None:
        self.tree = tree
        self.committed = tree / ".repro_artifacts"
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.children: list[Child] = []

    def start(self, role: str, spec: dict) -> Child:
        child = Child(self.tree, role, dict(spec, trace=self.trace), self.work)
        self.children.append(child)
        return child

    def setup_samples(self, role: str, spec: dict, count: int) -> list[float]:
        """Set-up times of *count* processes that stop right after set-up."""
        out = []
        for _ in range(count):
            child = self.start(role, dict(spec, setup_only=True))
            child.wait_ready()
            child.finish()
            out.append(child.setup_s)
        return out

    def stop_all(self) -> None:
        for child in self.children:
            if child.returncode is None:
                child.kill()
