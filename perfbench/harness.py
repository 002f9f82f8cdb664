"""Program processes: launch, watch, stop — and the run's provenance.

Every program process is a real ``repro`` CLI process started from the
checkout's ``src/`` tree: ``python3 -m repro.cli ...`` untraced, or
``python3 perfbench/launch.py <trace-file> ...`` traced. Each is pinned to
one BLAS thread (two workers on two cores would otherwise oversubscribe
them), writes its output to a log file in the run's work directory, and is
watched through a pidfd so its exit is seen the moment it happens. Peak
RSS is the ``VmHWM`` high-water mark sampled from ``/proc`` while the
process lives.
"""

from __future__ import annotations

import hashlib
import os
import platform
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAUNCHER = Path(__file__).resolve().parent / "launch.py"

#: Thread settings applied to every program process and to this process.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: How often live processes' RSS high-water marks are sampled.
SAMPLE_S = 0.02

now = time.perf_counter


class ProgramError(RuntimeError):
    """A program process misbehaved (exit code, timeout, missing output)."""


class Program:
    """One launched ``repro`` CLI process."""

    def __init__(self, name: str, args: Sequence[str], workdir: Path,
                 trace_dir: Optional[Path]) -> None:
        self.name = name
        self.log_path = workdir / f"{name}.log"
        self.trace_path = None if trace_dir is None else trace_dir / f"{name}.json"
        env = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(SRC), "PYTHONUNBUFFERED": "1"}
        if self.trace_path is None:
            command = [sys.executable, "-m", "repro.cli", *args]
        else:
            command = [sys.executable, str(LAUNCHER), str(self.trace_path), *args]
        self.started = now()
        env["PERFBENCH_SPAWNED"] = repr(self.started)
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(
                command, stdout=log, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
                env=env, cwd=ROOT,
            )
        self.pidfd = os.pidfd_open(self.process.pid)
        self.ended: Optional[float] = None
        self.peak_rss_kb = 0

    @property
    def alive(self) -> bool:
        return self.ended is None

    def sample_rss(self) -> None:
        try:
            with open(f"/proc/{self.process.pid}/status", "rb") as status:
                for line in status:
                    if line.startswith(b"VmHWM:"):
                        self.peak_rss_kb = max(self.peak_rss_kb, int(line.split()[1]))
                        return
        except (FileNotFoundError, ProcessLookupError, ValueError):
            pass

    def exited(self) -> bool:
        """Reap the process if it has exited (without blocking)."""
        if self.alive and self.process.poll() is not None:
            self.reap(now())
        return not self.alive

    def reap(self, moment: float) -> None:
        self.process.wait()
        self.ended = moment
        os.close(self.pidfd)

    @property
    def returncode(self) -> Optional[int]:
        return self.process.returncode

    def output(self) -> str:
        return self.log_path.read_text(errors="replace")


class Fleet:
    """The program processes of one run; all are stopped on exit."""

    def __init__(self, workdir: Path, trace_dir: Optional[Path] = None) -> None:
        self.workdir = workdir
        self.trace_dir = trace_dir
        self.programs: List[Program] = []

    def __enter__(self) -> "Fleet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop_all()

    def start(self, name: str, args: Sequence[str]) -> Program:
        program = Program(name, args, self.workdir, self.trace_dir)
        self.programs.append(program)
        return program

    def poll(self, timeout: float) -> None:
        """Sample RSS, then wait up to ``timeout`` for any program to exit."""
        live = [p for p in self.programs if p.alive]
        for program in live:
            program.sample_rss()
        if not live:
            time.sleep(timeout)
            return
        ready, _, _ = select.select([p.pidfd for p in live], [], [], timeout)
        moment = now()
        for program in live:
            if program.pidfd in ready:
                program.reap(moment)

    def wait(self, program: Program, timeout: float) -> float:
        """Block until ``program`` exits; returns its exit time."""
        deadline = now() + timeout
        while program.alive:
            if now() > deadline:
                raise ProgramError(f"{program.name} did not exit within {timeout:.0f}s")
            self.poll(SAMPLE_S)
        return program.ended  # type: ignore[return-value]

    def until(self, condition, timeout: float, step: float = 0.002,
              watch: Sequence[Program] = ()) -> float:
        """Poll ``condition()`` until true; returns the moment it held."""
        deadline = now() + timeout
        last_sample = 0.0
        while True:
            if condition():
                return now()
            for program in watch:
                if program.exited():
                    raise ProgramError(
                        f"{program.name} exited early ({program.returncode}):\n"
                        f"{program.output()[-2000:]}"
                    )
            if now() > deadline:
                raise ProgramError(f"condition not met within {timeout:.0f}s")
            if now() - last_sample > SAMPLE_S:
                for program in self.programs:
                    if program.alive:
                        program.sample_rss()
                last_sample = now()
            time.sleep(step)

    def interrupt(self, program: Program, timeout: float) -> float:
        """Stop ``program`` with SIGINT (``repro serve``'s clean shutdown)."""
        program.process.send_signal(signal.SIGINT)
        return self.wait(program, timeout)

    def stop_all(self) -> None:
        for program in self.programs:
            if program.alive:
                program.process.kill()
        for program in self.programs:
            if program.alive:
                program.process.wait()
                program.reap(now())

    def peak_rss_mb(self) -> float:
        return max((p.peak_rss_kb for p in self.programs), default=0) / 1024.0


def source_digest() -> str:
    """SHA-256 over the checkout's ``src/`` tree (the program measured)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _commit() -> str:
    if not (ROOT / ".git").exists():  # a plain checkout: src_sha256 identifies it
        return "unknown"
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def provenance(workload: str, seed: int, trace: bool) -> Dict[str, object]:
    """What the numbers of this run were measured on."""
    import numpy

    blas = "unknown"
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        pass
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "commit": _commit(),
        "src_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": THREAD_ENV,
        "machine": platform.machine(),
    }
