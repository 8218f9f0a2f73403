"""Process accounting, statistics, digests and the environment record."""

from __future__ import annotations

import contextlib
import hashlib
import os
import platform
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass

LAUNCHER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "launch.py")


@dataclass(frozen=True)
class ChildRun:
    exit_code: int
    wall_s: float
    peak_rss_mb: float
    stdout_path: str


def spawn(argv: list[str], cwd: str, env: dict, stdout_path: str) -> ChildRun:
    """Run one process to completion through launch.py; argv[0] must be a path.

    Wall time runs from spawn to reap. Peak RSS is os.wait4's ru_maxrss for
    this process alone, taken in the small launcher so the benchmark's own
    memory does not leak into it. RUSAGE_CHILDREN is not used: it reports the
    largest peak of any child reaped so far.
    """
    launcher = subprocess.Popen(
        [sys.executable, "-I", "-S", LAUNCHER, cwd, stdout_path, *argv],
        env=env, stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        report, _ = launcher.communicate()
    except BaseException:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(launcher.pid, signal.SIGKILL)
        launcher.wait()
        raise
    if launcher.returncode != 0:
        raise RuntimeError(f"launcher exited {launcher.returncode} for {argv}")
    code, wall, maxrss_kib = report.split()
    return ChildRun(int(code), float(wall), int(maxrss_kib) / 1024.0, stdout_path)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single sample gives itself three times."""
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def failed_share(failed: int, attempted: int) -> float:
    if attempted < 1:
        raise ValueError("nothing attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed {failed} outside [0, {attempted}]")
    return failed / attempted


def file_digest(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def tree_digest(root: str) -> str:
    """One digest over every file below root, keyed by relative path."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, root).encode() + b"\0")
            digest.update(file_digest(path).encode())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha(root: str) -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree."""
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(root: str) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_sha": _git_sha(root),
        "src_digest": tree_digest(os.path.join(root, "src", "urlsentry")),
    }
