"""Record bench/references.json from the named specs at the current commit.

Usage, from the root of a source checkout: python3 bench/record_references.py

Run it only when the program's outputs are meant to change; the benchmark
compares every later run against this file.
"""

from __future__ import annotations

import json
import sys
import time

import run


def main() -> int:
    runner = run.Runner(time.monotonic() + 600)
    refs = {}
    for commands in run.WORKLOADS.values():
        for command, spec in commands:
            o = runner.run(command, run.cli_argv(command, spec))
            if o.returncode != 0:
                print(f"{command} {spec}: exit {o.returncode}", file=sys.stderr)
                return 1
            if command == "verify":
                summary = o.stdout.decode().splitlines()[-1]
                refs["verify"] = {"summary": summary}
                total = int(summary.split("/")[1].split()[0])
                refs["verify-traced"] = {"reports": total, "failed": 0}
            else:
                refs[f"{command} {spec}"] = run.invariants(command, json.loads(o.stdout))
    lines = [f" {json.dumps(key)}: {json.dumps(value)}" for key, value in refs.items()]
    (run.BENCH / "references.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
