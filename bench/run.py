"""The maxcyc benchmark.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

It drives the CLI from ``src`` (``python3 -m maxcyc.cli``), one command per
fresh process, and checks every output against ``bench/references.json``.
The serial pass is a closed loop with one client, which starts the next
command only after the previous one has exited; ``wall_jobs2_s`` repeats
the pass with two such clients, or runs ``maxcyc verify --jobs 2`` on the
corpus workload.  Passes repeat until the next would end after ``--seconds``.

With ``--trace 0`` the last line of stdout reports the end-to-end metrics.
With ``--trace 1`` each pass runs once untraced and once through
``bench/stages.py``, which times each module's stages with spans, and the
last line reports the per-layer metrics.  Lines before the last give every
metric by name and unit with its sample count, ``failed_ratio`` and the
environment.  The full report, and the spans of a traced run, are written
to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import layers
from relabel import relabelled_spec

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Every (command, spec) is one CLI process.  W(5) and AGL1(127,126) are left
# out of `normals`: at the parent of the benchmark they take about 54 s and
# 442 s, too long to run 22 times per check.
WORKLOADS = {
    "verify-corpus": [("verify", None)],
    "cap-eta": [
        ("eta", "S(7)"),
        ("eta", "W(5)"),
        ("eta", "AGL1(127,126)"),
        ("eta", "A(7)"),
        ("gkgraph", "AGL1(127,126)"),
    ],
    "lattice": [
        ("normals", "A(7)"),
        ("normals", "EA(2,4) x C(4)"),
        ("xsub", "Heis(5) x C(5)"),
    ],
}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "wall_jobs2_s": "s",
    "cmd_max_s": "s",
    "peak_rss_mb": "MB",
}

SETUP_SAMPLES = 15
DEADLINE_S = 150.0  # every run exits well within 180 s, even when commands hang


@dataclass
class Outcome:
    """One finished process."""

    label: str
    seconds: float
    rss_mb: float
    returncode: int
    stdout: bytes
    stderr: bytes
    timed_out: bool


class Runner:
    """Starts processes, times them, and keeps the run inside its deadline.

    A forked child starts with this process's current RSS as the floor of its
    ru_maxrss, so this process imports no maxcyc code and holds no spans.
    """

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if k != "MAXCYC_CORPUS"}
        self.env["PYTHONPATH"] = str(SRC)

    def run(self, label: str, argv: list[str]) -> Outcome:
        """Run argv to completion; max-RSS comes from this child's own wait4."""
        timeout = max(1.0, self.deadline - time.monotonic())
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], cwd=ROOT, env=self.env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
        )
        lock = threading.Lock()
        state = {"exited": False, "killed": False}

        def kill() -> None:
            with lock:
                if not state["exited"]:
                    state["killed"] = True
                    try:
                        os.killpg(proc.pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass

        timer = threading.Timer(timeout, kill)
        timer.daemon = True
        timer.start()
        err: list[bytes] = []
        reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        reader.start()
        out = proc.stdout.read()
        reader.join()
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        with lock:
            state["exited"] = True
        timer.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
        return Outcome(label, seconds, usage.ru_maxrss / 1024, proc.returncode,
                       out, err[0], state["killed"])


def cli_argv(command: str, spec: str | None) -> list[str]:
    argv = ["-m", "maxcyc.cli", command]
    if spec is not None:
        argv += [spec, "--format", "json"]
    return argv


def invariants(command: str, payload: dict) -> dict:
    """What the checks compare: the same for every relabelling of a group."""
    if command == "eta":
        return {
            "order": payload["order"],
            "eta": payload["eta"],
            "l": payload["l"],
            "gminus_size": payload["gminus_size"],
            "classes": sorted([c["subgroup_order"], c["class_size"]] for c in payload["classes"]),
        }
    if command == "normals":
        return {"orders": sorted(r["order"] for r in payload["normal_subgroups"])}
    if command == "xsub":
        return {k: payload[k] for k in ("x_order", "eta_g", "eta_g_mod_x", "cyclic")}
    if command == "gkgraph":
        return {
            "vertices": sorted(payload["vertices"]),
            "edges": sorted(sorted(e) for e in payload["edges"]),
            "components": payload["components"],
        }
    raise ValueError(f"no invariants for {command!r}")


def load_references() -> dict:
    return json.loads((BENCH / "references.json").read_text("utf-8"))


class Checker:
    """Counts attempted and failed operations and says why each failed."""

    def __init__(self, references: dict):
        self.references = references
        self.attempted = 0
        self.failures: list[str] = []

    def fail(self, label: str, why: str) -> None:
        self.failures.append(f"{label}: {why}")

    def process(self, o: Outcome) -> bool:
        self.attempted += 1
        if o.timed_out:
            self.fail(o.label, "timed out")
        elif o.returncode != 0:
            tail = o.stderr.decode(errors="replace").strip().splitlines()[-1:]
            self.fail(o.label, f"exit {o.returncode} {' '.join(tail)}")
        else:
            return True
        return False

    def cli(self, key: str, command: str, o: Outcome, serial_verify: bytes | None = None) -> None:
        if not self.process(o):
            return
        if command == "verify":
            lines = o.stdout.decode().splitlines()
            if lines[-1:] != [self.references["verify"]["summary"]]:
                self.fail(o.label, f"summary {lines[-1:]!r}")
            elif serial_verify is not None and o.stdout != serial_verify:
                self.fail(o.label, "stdout differs from the serial run")
            return
        try:
            got = invariants(command, json.loads(o.stdout))
        except (ValueError, KeyError, TypeError) as exc:
            self.fail(o.label, f"malformed output ({exc!r}): {o.stdout[:80]!r}")
            return
        self.compare(o.label, key, got)

    def compare(self, label: str, key: str, got: dict) -> None:
        want = self.references[key]
        if got != want:
            self.fail(label, f"expected {want}, got {got}")


def median_tail(samples: list[float]) -> str:
    """Median, the highest percentile with at least ten samples beyond it, n."""
    n = len(samples)
    text = f"median {statistics.median(samples):.6g} n={n}"
    if n >= 11:
        text += f" p{100 * (n - 10) // n}={sorted(samples)[n - 11]:.6g}"
    return text


def measure_setup(runner: Runner, checker: Checker) -> list[float]:
    """Fresh-interpreter `import maxcyc.cli`, which every command pays."""
    argv = ["-c", "import maxcyc.cli"]
    checker.process(runner.run("setup warm-up", argv))
    samples = []
    for i in range(SETUP_SAMPLES):
        o = runner.run(f"setup {i}", argv)
        if checker.process(o):
            samples.append(o.seconds)
    return samples


def serial_pass(runner, checker, commands, tag) -> tuple[float, list[Outcome]]:
    """The closed loop with one client."""
    start = time.perf_counter()
    outcomes = []
    for key, command, spec in commands:
        o = runner.run(f"{tag} {key}", cli_argv(command, spec))
        checker.cli(key, command, o)
        outcomes.append(o)
    return time.perf_counter() - start, outcomes


def jobs2_pass(runner, checker, commands, serial_verify: bytes) -> tuple[float, list[Outcome]]:
    """`verify --jobs 2`, or the command list shared by two closed-loop clients."""
    start = time.perf_counter()
    if commands[0][1] == "verify":
        o = runner.run("jobs2 verify", ["-m", "maxcyc.cli", "verify", "--jobs", "2"])
        checker.cli("verify", "verify", o, serial_verify)
        return time.perf_counter() - start, [o]
    pending = list(reversed(commands))
    lock = threading.Lock()
    outcomes: list[tuple[str, str, Outcome]] = []

    def client() -> None:
        while True:
            with lock:
                if not pending:
                    return
                key, command, spec = pending.pop()
            o = runner.run(f"jobs2 {key}", cli_argv(command, spec))
            with lock:
                outcomes.append((key, command, o))

    clients = [threading.Thread(target=client) for _ in range(2)]
    for c in clients:
        c.start()
    for c in clients:
        c.join()
    wall = time.perf_counter() - start
    for key, command, o in outcomes:
        checker.cli(key, command, o)
    return wall, [o for _, _, o in outcomes]


def another_pass(t0: float, pass_start: float, seconds: float, runner: Runner) -> bool:
    """Whether a pass as long as the last one still ends within `seconds`."""
    now = time.perf_counter()
    return now - t0 + (now - pass_start) <= seconds and time.monotonic() < runner.deadline


class Bench:
    """One run of one workload."""

    def __init__(self, args: argparse.Namespace, runner: Runner, checker: Checker):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.runner = runner
        self.checker = checker
        self.report: dict = {"commands": []}
        self.generators: dict = {}
        specs = sorted({spec for _, spec in WORKLOADS[self.workload] if spec is not None})
        if self.seed != 0 and specs:
            o = runner.run("realize for relabelling", [str(BENCH / "relabel.py"), *specs])
            if checker.process(o):
                self.generators = json.loads(o.stdout)

    def commands(self, variant: int) -> list[tuple[str, str, str | None]]:
        """(reference key, command, spec as handed to the CLI) for one pass.

        Each pass of a run relabels the groups afresh, so that a run's medians
        do not rest on one labelling.
        """
        out = []
        for command, spec in WORKLOADS[self.workload]:
            key = command if spec is None else f"{command} {spec}"
            if spec is not None and self.seed != 0:
                spec = relabelled_spec(spec, self.generators[spec], self.seed, variant)
            out.append((key, command, spec))
        self.report["commands"].append(out)
        return out

    def untraced(self) -> dict[str, float]:
        setup = measure_setup(self.runner, self.checker)
        t0 = time.perf_counter()
        walls, walls2, rss = [], [], []
        latencies: list[list[float]] = [[] for _ in WORKLOADS[self.workload]]
        while True:
            pass_start = time.perf_counter()
            commands = self.commands(len(walls))
            wall, outcomes = serial_pass(self.runner, self.checker, commands, f"pass {len(walls)}")
            wall2, outcomes2 = jobs2_pass(self.runner, self.checker, commands, outcomes[0].stdout)
            walls.append(wall)
            walls2.append(wall2)
            for lat, o in zip(latencies, outcomes):
                lat.append(o.seconds)
            rss.extend(o.rss_mb for o in outcomes + outcomes2)
            if not another_pass(t0, pass_start, self.seconds, self.runner):
                break
        slowest = max(range(len(commands)), key=lambda i: statistics.median(latencies[i]))
        self.report["samples"] = {
            "setup_s": median_tail(setup),
            "wall_s": median_tail(walls),
            "wall_jobs2_s": median_tail(walls2),
            "cmd_max_s": f"{commands[slowest][0]}: {median_tail(latencies[slowest])}",
            "peak_rss_mb": f"max over {len(rss)} processes",
        }
        self.report["walls"] = {"setup_s": setup, "wall_s": walls, "wall_jobs2_s": walls2}
        return {
            "setup_s": statistics.median(setup or [0.0]),
            "wall_s": statistics.median(walls),
            "wall_jobs2_s": statistics.median(walls2),
            "cmd_max_s": statistics.median(latencies[slowest]),
            "peak_rss_mb": max(rss),
        }

    def traced_pass(self, commands, trace_prefix: str) -> tuple[float, dict, list[bytes]]:
        """Run each command through stages.py; spans come back unparsed."""
        start = time.perf_counter()
        totals: dict[str, float] = dict.fromkeys(layers.per_layer_units(), 0)
        caches: dict[str, list[int]] = {name: [0, 0] for name in layers.CACHED}
        spans = []
        for i, (key, command, spec) in enumerate(commands):
            task = {"trace": f"{trace_prefix}/{i}", "command": command, "spec": spec}
            o = self.runner.run(f"traced {key}", [str(BENCH / "stages.py"), json.dumps(task)])
            if not self.checker.process(o):
                continue
            line, _, span_line = o.stdout.partition(b"\n")
            result = json.loads(line)
            payload = result["payload"]
            if command == "verify":
                got = {"reports": payload["reports"], "failed": payload["failed"]}
                self.checker.compare(o.label, "verify-traced", got)
            else:
                self.checker.compare(o.label, key, invariants(command, payload))
            for name, value in result["metrics"].items():
                if name.startswith("mem."):
                    totals[name] = max(totals[name], value)
                else:
                    totals[name] += value
            for name, (hits, misses) in result["caches"].items():
                caches[name][0] += hits
                caches[name][1] += misses
            spans.append(span_line)
        for name, (hits, misses) in caches.items():
            totals[f"corpus.cache.{name}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        return time.perf_counter() - start, totals, spans

    def traced(self, spans_path: Path) -> dict[str, float]:
        """Untraced and traced passes in turn; per-layer values are medians.

        Each command's spans are written out after its pass, outside the
        timed region, so that this process stays small: a process it starts
        inherits its current RSS as the floor of ru_maxrss.
        """
        trace_id = f"{self.workload}/seed{self.seed}"
        t0 = time.perf_counter()
        untraced, traced, per_pass = [], [], []
        spans_path.write_bytes(b"")
        while True:
            pass_start = time.perf_counter()
            commands = self.commands(len(traced))
            wall, _ = serial_pass(self.runner, self.checker, commands, f"untraced {len(untraced)}")
            untraced.append(wall)
            wall, totals, spans = self.traced_pass(commands, f"{trace_id}/pass{len(traced)}")
            traced.append(wall)
            per_pass.append(totals)
            with spans_path.open("ab") as f:
                f.writelines(spans)
            del spans
            if not another_pass(t0, pass_start, self.seconds, self.runner):
                break
        metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        self.report["samples"] = {
            "untraced wall_s": median_tail(untraced),
            "traced wall_s": median_tail(traced),
            "per-layer values": f"median over {len(per_pass)} traced passes",
            "spans": f"one JSON list per command in {spans_path.relative_to(ROOT)}",
        }
        self.report["walls"] = {"untraced": untraced, "traced": traced}
        self.report["per_pass"] = per_pass
        return metrics


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu,
        "commit": git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git; None when it is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description="maxcyc benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "maxcyc" / "cli.py").is_file():
        print(f"bench: no maxcyc sources at {SRC}", file=sys.stderr)
        return 2
    runner = Runner(time.monotonic() + DEADLINE_S)
    checker = Checker(load_references())
    bench = Bench(args, runner, checker)
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics = bench.traced(OUT / f"{name}.spans.jsonl")
        units = layers.per_layer_units()
    else:
        metrics = bench.untraced()
        units = END_TO_END
    failed = len(checker.failures)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(), **bench.report,
              "failures": checker.failures, "metrics": metrics}
    (OUT / f"{name}.json").write_text(json.dumps(report, indent=1))

    for line in checker.failures:
        print(f"bench: FAILED {line}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} environment {json.dumps(report['environment'])}")
    for key, text in report["samples"].items():
        print(f"# {key}: {text}")
    for key, unit in units.items():
        print(f"{key:<45} {metrics[key]!r} {unit}")
    print(f"{'failed_ratio':<45} {failed / max(1, checker.attempted)!r} ratio "
          f"({failed}/{checker.attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": checker.attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
