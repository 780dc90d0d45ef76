"""Starts the benchmark's child processes from a small process.

Linux carries a process's peak RSS over ``exec`` from the process that
spawned it, so a child spawned by the benchmark itself, which holds
corpora and stores, would report the benchmark's peak as its own.  This
launcher is started before the benchmark grows and imports only the
standard library; children it spawns report their own peak.

Protocol: one JSON request per line on stdin, ``{"cmd", "cwd", "env",
"log", "timeout"}``; one JSON reply per line on stdout, ``{"rc", "wall",
"maxrss_kb"}``.  The launcher exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
from time import perf_counter


def run(req: dict) -> dict:
    with open(req["log"], "wb") as log:
        start = perf_counter()
        proc = subprocess.Popen(req["cmd"], cwd=req["cwd"], env=req["env"], stdout=log, stderr=subprocess.STDOUT)
        killer = threading.Timer(req["timeout"], proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "wall": wall, "maxrss_kb": usage.ru_maxrss}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
