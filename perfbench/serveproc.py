"""Launch, probe and stop an ``rpcheck serve`` daemon in its own process.

The daemon always runs as a separate interpreter (never on a thread of
the benchmark), so the load generator and the server never share an
interpreter lock.  CPU time and peak memory are read from ``/proc``.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from typing import List, Optional

from repro.serve import ServeClient, ServeError

#: Seconds a daemon may take from launch to its first pong.
START_TIMEOUT = 60.0

_TICKS = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> Optional[List[str]]:
    """Fields of ``/proc/PID/stat`` after the command name, or ``None``."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            raw = handle.read().decode("ascii", "replace")
    except OSError:
        return None
    return raw[raw.rindex(")") + 2:].split()


def _descendants(root: int) -> List[int]:
    parents = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None:
                parents[int(entry)] = int(fields[1])
    found, frontier = [], [root]
    while frontier:
        parent = frontier.pop()
        children = [pid for pid, ppid in parents.items() if ppid == parent]
        found += children
        frontier += children
    return found


def tree_cpu_seconds(pid: int) -> float:
    """User+system seconds of *pid*, its reaped children and live descendants."""
    total = 0
    for member in [pid] + _descendants(pid):
        fields = _stat_fields(member)
        if fields is None:
            continue
        # utime, stime, cutime, cstime are stat fields 14-17 (1-based);
        # the list starts at field 3, the process state
        total += sum(int(value) for value in fields[11:15])
    return total / _TICKS


def peak_rss_mib(pid: int) -> float:
    """``VmHWM`` of *pid*: its peak resident set, in MiB."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Daemon:
    """One daemon subprocess bound to *socket_path* (relative to *root*)."""

    def __init__(self, root: str, socket_path: str, command: List[str], log_path: str) -> None:
        self.root = root
        self.socket_path = socket_path
        self.command = command
        self.log_path = log_path
        self.process: Optional[subprocess.Popen] = None

    @classmethod
    def serve(cls, root: str, socket_path: str, log_path: str) -> "Daemon":
        """``rpcheck serve`` with default settings."""
        command = [sys.executable, "-m", "repro.cli", "serve", "--socket", socket_path]
        return cls(root, socket_path, command, log_path)

    @classmethod
    def traced(cls, root: str, socket_path: str, log_path: str, trace_path: str) -> "Daemon":
        """The benchmark's traced launcher, with default serve settings."""
        command = [
            sys.executable,
            os.path.join("perfbench", "launcher.py"),
            "--out",
            trace_path,
            "--socket",
            socket_path,
        ]
        return cls(root, socket_path, command, log_path)

    @property
    def pid(self) -> int:
        assert self.process is not None
        return self.process.pid

    def start(self) -> float:
        """Launch and wait for the first pong; returns the seconds it took."""
        env = {k: v for k, v in os.environ.items() if not k.startswith("RPCHECK_")}
        env["PYTHONPATH"] = os.path.join(self.root, "src")
        with open(self.log_path, "ab") as log:
            started = time.perf_counter()
            self.process = subprocess.Popen(
                self.command,
                cwd=self.root,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        deadline = started + START_TIMEOUT
        while True:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"daemon exited with {self.process.returncode} before "
                    f"answering (see {self.log_path})"
                )
            try:
                with ServeClient(self.socket_path, max_retries=0, timeout=5.0) as client:
                    client.ping()
                return time.perf_counter() - started
            except OSError:
                if time.perf_counter() > deadline:
                    self.stop()
                    raise RuntimeError("daemon did not answer a ping in time")
                time.sleep(0.005)

    def stop(self) -> None:
        """Ask the daemon to shut down; kill its process group if it lingers."""
        process = self.process
        if process is None:
            return
        if process.poll() is None:
            try:
                with ServeClient(self.socket_path, max_retries=0, timeout=10.0) as client:
                    client.shutdown()
            except (OSError, ServeError):
                process.terminate()
            try:
                process.wait(timeout=60.0)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=10.0)
        # forked exploration workers share the daemon's process group
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.process = None
