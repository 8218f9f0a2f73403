"""Start one command, wait for it, print its exit code, wall seconds and peak RSS.

Usage: python3 -I -S perfbench/launch.py CWD STDOUT_PATH PROGRAM ARG...

PROGRAM must be a path. stdout goes to STDOUT_PATH, stderr to STDOUT_PATH.err.

Linux copies the high-water RSS of the process that calls exec into the new
program's ru_maxrss. A command spawned straight from the benchmark process
would report the benchmark's own peak when that is larger. This launcher
imports nothing beyond the interpreter's core, so its peak stays far below
any command it starts, and os.wait4 gives that command's own peak.
"""

import os
import sys
import time


def main() -> int:
    cwd, out_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    os.chdir(cwd)
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, out_path + ".err", flags, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    # ru_maxrss is in KiB on Linux
    print(os.waitstatus_to_exitcode(status), repr(wall), usage.ru_maxrss)
    return 0


if __name__ == "__main__":
    sys.exit(main())
