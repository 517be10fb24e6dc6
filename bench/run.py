"""swarmdec benchmark: closed-loop CLI workloads, end-to-end and per layer.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Runs from the root of a checkout; the package is taken from the checkout's
``src/`` (put first on ``PYTHONPATH``) and the run stops with an error if
``swarmdec`` would import from anywhere else.

``--trace 0`` (end to end): one client issues the workload's commands one
at a time, each as a fresh ``python -m swarmdec.cli`` process, in whole
rounds until ``--seconds`` is used up (at least ``MIN_ROUNDS``).  Before
every round and after the last, ``SETUP_PER_ROUND`` fresh ``swarmdec
--version`` processes are timed.  Reported: ``setup_s`` (the fastest of
these ``--version`` processes), ``wall_s`` (one round's commands, start-up
included, each command at its fastest in the run) and ``peak_rss_mb``
(median over rounds of the largest ``ru_maxrss`` of a round's command
processes).  The per-block ``--version`` times are printed
with the result, so a change in the host's speed during a run shows there.

``--trace 1`` (per layer): pairs of in-process rounds (``inproc.py``),
one untraced and one traced, in fresh processes, at least ``MIN_PAIRS``;
reports the per-layer metrics of the traced rounds and ``trace.overhead_s``
(fastest traced minus fastest untraced command-loop time).

Every round's output files are checked: the first round's against the
independent reference (``checks.py``, after the timed rounds), later
rounds byte for byte against the first.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from workloads import WORKLOADS, Outcome, Plan, succeeded

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Fresh ``swarmdec --version`` processes timed before every round and after the last.
SETUP_PER_ROUND = 3
#: Every run makes at least this many rounds, however long one round takes.
MIN_ROUNDS = 2
#: Every traced run makes at least this many (untraced, traced) pairs.
MIN_PAIRS = 2
#: Hard limit for one run, which must end within 180 s.
RUN_DEADLINE_S = 170.0

#: Metric names, units and the run length, as the benchmark declares them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class BenchError(Exception):
    """The benchmark cannot run here (no checkout, wrong import, ...)."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("SWARMDEC_SEED", None)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def probe(env: dict[str, str], cwd: Path) -> dict:
    """Check that swarmdec imports from this checkout; return version info."""
    if not (SRC / "swarmdec" / "cli.py").is_file():
        raise BenchError(f"no swarmdec sources under {SRC}")
    code = (
        "import json, sys, numpy, swarmdec, swarmdec.cli;"
        "print(json.dumps({'module': swarmdec.__file__, 'swarmdec': swarmdec.__version__,"
        "'numpy': numpy.__version__, 'python': sys.version.split()[0]}))"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise BenchError(f"importing swarmdec failed:\n{proc.stderr}")
    info = json.loads(proc.stdout.strip().splitlines()[-1])
    module = Path(info.pop("module")).resolve()
    if SRC.resolve() not in module.parents:
        raise BenchError(f"swarmdec imports from {module}, not from {SRC}")
    info["commit"] = git_commit()
    info["nproc"] = len(os.sched_getaffinity(0))
    return info


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def run_process(argv: list[str], cwd: Path, env: dict, out: Path, err: Path,
                timeout: float) -> tuple[int, float, int]:
    """Run one process to completion: exit code, wall seconds, ru_maxrss (KiB)."""
    with out.open("wb") as fo, err.open("wb") as fe:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=fo, stderr=fe)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


def read_outcomes(round_dir: Path, codes: list[int]) -> list[Outcome]:
    return [
        Outcome(code,
                (round_dir / f"op{i}.out").read_text(encoding="utf-8", errors="replace"),
                (round_dir / f"op{i}.err").read_text(encoding="utf-8", errors="replace"))
        for i, code in enumerate(codes)
    ]


def digest(round_dir: Path) -> dict[str, str]:
    """SHA-256 of every output file of a round (standard error excluded)."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(round_dir.iterdir())
        if p.is_file() and not p.name.endswith(".err")
    }


class Judge:
    """Counts operations and checks every round's outputs.

    The first round's directory is kept and checked against the reference
    in ``finish``, after the timed rounds; every later round is compared
    with it byte for byte and deleted at once.
    """

    def __init__(self, plan: Plan):
        self.plan = plan
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first: tuple[Path, list[Outcome], dict[str, str]] | None = None

    def round_done(self, round_dir: Path, codes: list[int], label: str) -> None:
        outcomes = read_outcomes(round_dir, codes)
        for op, outcome in zip(self.plan.ops, outcomes):
            self.attempted += 1
            if succeeded(op, outcome):
                continue
            self.failed += 1
            if op.expect == "ok":
                self.problems.append(
                    f"{label}: `swarmdec {' '.join(op.argv)}` exited {outcome.code}: "
                    f"{outcome.stderr.strip()[-300:]}"
                )
        files = digest(round_dir)
        if self.first is None:
            self.first = (round_dir, outcomes, files)
            return
        if files != self.first[2]:
            changed = sorted(k for k in files.keys() | self.first[2].keys()
                             if files.get(k) != self.first[2].get(k))
            self.problems.append(f"{label}: outputs differ from the first round: {changed}")
        shutil.rmtree(round_dir)

    def finish(self) -> None:
        round_dir, outcomes, _ = self.first
        try:
            self.problems += [f"first round: {p}" for p in self.plan.check(round_dir, outcomes)]
        except Exception as exc:  # a missing or malformed file
            self.problems.append(f"first round: check raised {type(exc).__name__}: {exc}")
        shutil.rmtree(round_dir)

    @property
    def correct(self) -> bool:
        return not self.problems


def measure_setup(env: dict, work: Path, deadline: float, count: int) -> list[float]:
    """Wall times of ``count`` fresh ``swarmdec --version`` processes."""
    argv = [sys.executable, "-m", "swarmdec.cli", "--version"]
    times = []
    for _ in range(count):
        code, wall, _ = run_process(argv, work, env, work / "version.out", work / "version.err",
                                    deadline - time.perf_counter())
        text = (work / "version.out").read_text()
        if code != 0 or not text.startswith("swarmdec "):
            raise BenchError(f"`swarmdec --version` failed ({code}): {text!r}")
        times.append(wall)
    return times


def run_end_to_end(plan: Plan, env: dict, work: Path, seconds: float, deadline: float) -> dict:
    measure_setup(env, work, deadline, 1)  # warm-up, not counted
    judge = Judge(plan)
    setup, walls, peaks, op_walls = [], [], [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        setup.append(measure_setup(env, work, deadline, SETUP_PER_ROUND))
        round_dir = work / f"round{len(walls)}"
        round_dir.mkdir()
        codes, wall, peak = [], 0.0, 0
        for i, op in enumerate(plan.ops):
            code, t, rss = run_process(
                [sys.executable, "-m", "swarmdec.cli", *op.argv], round_dir, env,
                round_dir / f"op{i}.out", round_dir / f"op{i}.err",
                deadline - time.perf_counter(),
            )
            codes.append(code)
            wall += t
            peak = max(peak, rss)
            op_walls.append(t)
        walls.append(wall)
        peaks.append(peak * 1024 / 1e6)
        judge.round_done(round_dir, codes, f"round {len(walls) - 1}")
        now = time.perf_counter()
        if now + 2 * (now - round_start) > deadline:
            break
        if len(walls) >= MIN_ROUNDS and now - start + (now - round_start) > seconds:
            break
    setup.append(measure_setup(env, work, deadline, SETUP_PER_ROUND))
    judge.finish()
    per_op = [op_walls[i::len(plan.ops)] for i in range(len(plan.ops))]
    metrics = {
        "setup_s": min(min(block) for block in setup),
        "wall_s": sum(min(times) for times in per_op),
        "peak_rss_mb": statistics.median(peaks),
    }
    return {"judge": judge, "metrics": metrics, "units": END_TO_END_UNITS,
            "detail": {"rounds": len(walls), "wall_s": walls, "setup_s": setup, "op_s": op_walls}}


def run_inproc(plan: Plan, env: dict, work: Path, ops_path: Path, index: int, trace: bool,
               judge: Judge, deadline: float) -> dict:
    round_dir = work / f"inproc{index}"
    round_dir.mkdir()
    argv = [sys.executable, str(Path(__file__).with_name("inproc.py")),
            str(round_dir), str(ops_path), "1" if trace else "0"]
    code, _, _ = run_process(argv, work, env, work / "inproc.out", work / "inproc.err",
                             deadline - time.perf_counter())
    if code != 0:
        raise BenchError(f"in-process round failed ({code}):\n"
                         + (work / "inproc.err").read_text()[-2000:])
    result = json.loads((work / "inproc.out").read_text().strip().splitlines()[-1])
    if SRC.resolve() not in Path(result["module"]).parents:
        raise BenchError(f"in-process round imported {result['module']}")
    judge.round_done(round_dir, result["codes"], f"{'traced' if trace else 'untraced'} round {index}")
    return result


def run_traced(plan: Plan, env: dict, work: Path, seconds: float, deadline: float) -> dict:
    ops_path = work / "ops.json"
    ops_path.write_text(json.dumps([list(op.argv) for op in plan.ops]))
    judge = Judge(plan)
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        plain.append(run_inproc(plan, env, work, ops_path, 2 * len(traced), False, judge, deadline))
        traced.append(run_inproc(plan, env, work, ops_path, 2 * len(traced) + 1, True, judge, deadline))
        now = time.perf_counter()
        if now + 2 * (now - pair_start) > deadline:
            break
        if len(traced) >= MIN_PAIRS and now - start + (now - pair_start) > seconds:
            break
    judge.finish()
    metrics = {
        name: statistics.median(r["metrics"][name] for r in traced)
        for name in traced[0]["metrics"]
    }
    metrics["cli.import_s"] = statistics.median(r["import_s"] for r in plain + traced)
    metrics["trace.overhead_s"] = (min(r["loop_s"] for r in traced)
                                   - min(r["loop_s"] for r in plain))
    missing = PER_LAYER_UNITS.keys() - metrics.keys()
    if missing:
        raise BenchError(f"traced run did not produce {sorted(missing)}")
    return {"judge": judge, "metrics": {k: metrics[k] for k in PER_LAYER_UNITS},
            "units": PER_LAYER_UNITS,
            "detail": {"pairs": len(traced), "spans": traced[-1]["spans"],
                       "loop_s": {"untraced": [r["loop_s"] for r in plain],
                                  "traced": [r["loop_s"] for r in traced]}}}


def run_workload(name: str, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    deadline = time.perf_counter() + RUN_DEADLINE_S
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".benchrun-") as tmp:
        work = Path(tmp)
        info = probe(env, work)
        inputs = work / "inputs"
        inputs.mkdir()
        plan = WORKLOADS[name](seed, inputs)
        runner = run_traced if trace else run_end_to_end
        outcome = runner(plan, env, work, seconds, deadline)
    judge: Judge = outcome["judge"]
    info["workload"] = name
    info["seed"] = seed
    info["inputs"] = plan.seeds
    info.update(outcome["detail"])
    return {
        "info": info,
        "problems": judge.problems,
        "result": {
            "correct": judge.correct,
            "attempted": judge.attempted,
            "failed": judge.failed,
            "metrics": {k: {"value": v, "unit": outcome["units"][k]}
                        for k, v in outcome["metrics"].items()},
        },
    }


def report(run: dict) -> None:
    """Human-readable lines for one workload (standard output, before the JSON)."""
    info, result = run["info"], run["result"]
    spans = info.pop("spans", None)
    print(f"# {info['workload']}: " + json.dumps(info, sort_keys=True))
    for problem in run["problems"][:20]:
        print(f"# PROBLEM {problem}")
    if len(run["problems"]) > 20:
        print(f"# ... and {len(run['problems']) - 20} more problems")
    print(f"{info['workload']:16s} attempted {result['attempted']}  failed {result['failed']}  "
          f"correct {str(result['correct']).lower()}")
    for name, metric in result["metrics"].items():
        print(f"{info['workload']:16s} {name:38s} {metric['value']:14.6g} {metric['unit']}")
    if spans:
        print(f"# spans of the last traced round ({info['workload']}): name calls total_s self_s")
        for name, row in sorted(spans.items(), key=lambda kv: -kv[1]["total_s"]):
            print(f"#   {name:36s} {row['calls']:8d} {row['total_s']:10.4f} {row['self_s']:10.4f}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    env = child_env()
    runs = {}
    try:
        for name in names:
            runs[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), env)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for run in runs.values():
        report(run)
    if len(names) == 1:
        print(json.dumps(runs[names[0]]["result"]))
    else:
        print(json.dumps({name: run["result"] for name, run in runs.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
