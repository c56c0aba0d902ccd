"""Child-process launcher that stays small, so each child's peak RSS is its own.

Linux starts a child's peak-RSS figure at the peak of the address space it
was spawned from (with vfork, the parent's whole history), so children
launched straight from the benchmark, which loads CSVs and traces in-process,
would all read at least the benchmark's own peak. The benchmark starts this
process before it grows and sends it one JSON request per line:

    {"argv": [...], "env": {...}, "stdout": path, "stderr": path}

It runs each request to completion, one at a time, and answers with one line
``{"code": int, "seconds": float, "maxrss_kb": int}`` taken from ``os.wait4``
for that child alone. End of input ends the process.
"""

import json
import os
import subprocess
import sys
import time


def main():
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                req["argv"], stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=req["env"]
            )
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"code": proc.returncode, "seconds": seconds, "maxrss_kb": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
