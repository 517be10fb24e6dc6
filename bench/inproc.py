"""Run one round of CLI commands inside a single process, optionally traced.

Usage: ``python3 bench/inproc.py ROUND_DIR OPS_JSON TRACE`` with the
checkout's ``src`` first on ``PYTHONPATH``.  The commands in ``OPS_JSON``
(a JSON list of argument lists) are executed in order through
``swarmdec.cli.main(argv)`` with ``ROUND_DIR`` as working directory; each
command's standard output and error go to ``opN.out`` / ``opN.err`` there.

With ``TRACE=1`` the public functions of ``cli``, ``schema``, ``hypergeom``,
``drift`` and ``ssa`` are wrapped, at every module attribute through which
swarmdec code looks them up, by spans recording (name, start, end, parent)
plus per-call details.  The spans stay in memory until the round ends; the
per-layer metrics and a per-span-name table (calls, inclusive and self
time) are then computed from them.

Prints one JSON object: exit codes, ``import_s`` (time to import
``swarmdec.cli``), ``loop_s`` (time of the command loop) and, when traced,
``metrics`` and ``spans``.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import inspect
import io
import json
import os
import sys
import time
import tracemalloc
import traceback
from pathlib import Path


def _resident_bytes() -> int:
    try:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except OSError:
        return 0


class Tracer:
    """Spans ``[name, start, end, parent, info]`` kept in call order."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []

    def wrap(self, name: str, fn, detail=None, memory: str | None = None):
        """A wrapper recording one span per call.

        ``detail(arguments, result)`` stores per-call information;
        ``memory`` is ``"heap"`` for the tracemalloc peak during the call or
        ``"rss"`` for the resident-set growth across it (bytes).
        """
        spans, stack = self.spans, self.stack
        signature = inspect.signature(fn)
        generator = inspect.isgeneratorfunction(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            if memory == "heap":
                tracemalloc.start()
            rss_before = _resident_bytes() if memory == "rss" else 0
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if generator:
                    # The caller drains it at once (str.join); drain it here
                    # so the formatting time lands inside this span.
                    result = list(result)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            info = {}
            if memory == "heap":
                info["memory"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            elif memory == "rss":
                info["memory"] = _resident_bytes() - rss_before
            if detail is not None:
                info.update(detail(signature.bind(*args, **kwargs).arguments, result))
            span[4] = info
            return iter(result) if generator else result

        return wrapper


#: (module, attribute, span name, detail, memory) of every traced boundary.
TARGETS = [
    ("swarmdec.cli", "resolve_config", "cli.resolve_config", None, None),
    ("swarmdec.cli", "_write_text", "cli.write",
     lambda a, r: {"bytes": os.path.getsize(a["path"])}, None),
    ("swarmdec.schema", "parse_schema", "schema.parse_schema", None, None),
    ("swarmdec.hypergeom", "pmf_table", "hypergeom.pmf_table",
     lambda a, r: {"key": (a["n_agents"], a["count_x1"], a["group_size"])}, None),
    ("swarmdec.drift", "analytic_drift", "drift.analytic_drift", None, None),
    ("swarmdec.drift", "analytic_drift_curve", "drift.analytic_drift_curve", None, None),
    ("swarmdec.drift", "find_fixed_points", "drift.find_fixed_points", None, None),
    ("swarmdec.drift", "_bisect", "drift.bisect", None, None),
    ("swarmdec.drift", "rule_firing_probabilities", "drift.rule_firing_probabilities", None, None),
    ("swarmdec.drift", "empirical_drift", "drift.empirical_drift",
     lambda a, r: {"draws": a["samples_per_state"] * (a["n_agents"] + 1)}, "heap"),
    ("swarmdec.drift", "empirical_firing_probabilities", "drift.empirical_firing_probabilities",
     lambda a, r: {"draws": a["draws"]}, "heap"),
    ("swarmdec.ssa", "simulate", "ssa.simulate", None, "rss"),
    ("swarmdec.ssa", "trajectory_csv_lines", "ssa.trajectory_csv_lines",
     lambda a, r: {"rows": len(r) - (2 if a.get("provenance") is not None else 1)}, None),
]


def install(tracer: Tracer) -> None:
    """Replace each target at every swarmdec attribute bound to it."""
    modules = [m for name, m in sys.modules.items() if name == "swarmdec" or name.startswith("swarmdec.")]
    for module_name, attr, span_name, detail, memory in TARGETS:
        original = getattr(sys.modules[module_name], attr)
        wrapper = tracer.wrap(span_name, original, detail, memory)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    handlers = sys.modules["swarmdec.cli"]._HANDLERS
    for command, handler in list(handlers.items()):
        handlers[command] = tracer.wrap(f"cli.{command}", handler)


def _total(spans, name: str) -> tuple[int, float]:
    calls = [s for s in spans if s[0] == name]
    return len(calls), sum(s[2] - s[1] for s in calls)


def layer_metrics(
    spans: list[list], starts: list[int], stdouts: list[tuple[list[str], str]]
) -> dict[str, float]:
    """Per-layer metrics of one traced round (see the benchmark README).

    ``starts[i]`` is the index of the first span of command ``i``; distinct
    pmf keys are counted per command, since each CLI command is a process
    of its own and could share work only within itself.
    """
    m: dict[str, float] = {}

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m["cli.resolve_config_s"] = _total(spans, "cli.resolve_config")[1]
    m["cli.validate_s"] = _total(spans, "cli.validate")[1]
    writes = [s for s in spans if s[0] == "cli.write"]
    m["cli.write_s"] = sum(s[2] - s[1] for s in writes)
    m["cli.write_mb"] = sum(s[4]["bytes"] for s in writes) / 1e6
    m["cli.write_mb_per_s"] = ratio(m["cli.write_mb"], m["cli.write_s"])
    m["schema.parse_s"] = _total(spans, "schema.parse_schema")[1]

    pmf = [s for s in spans if s[0] == "hypergeom.pmf_table"]
    m["hypergeom.pmf_table_calls"] = len(pmf)
    m["hypergeom.pmf_table_s"] = sum(s[2] - s[1] for s in pmf)
    keys = {
        (bisect.bisect_right(starts, i), span[4]["key"])
        for i, span in enumerate(spans)
        if span[0] == "hypergeom.pmf_table"
    }
    m["hypergeom.pmf_table_distinct_ratio"] = ratio(len(keys), len(pmf))

    m["drift.analytic_drift_calls"] = _total(spans, "drift.analytic_drift")[0]
    m["drift.curve_s"] = _total(spans, "drift.analytic_drift_curve")[1]
    m["drift.fixed_points_s"] = _total(spans, "drift.find_fixed_points")[1]
    m["drift.fixed_points_bisect_evals"] = sum(
        1 for s in spans if s[0] == "drift.analytic_drift" and s[3] >= 0 and spans[s[3]][0] == "drift.bisect"
    )
    empirical = [s for s in spans if s[0].startswith("drift.empirical_")]
    m["drift.empirical_s"] = sum(s[2] - s[1] for s in empirical)
    m["drift.empirical_draws"] = sum(s[4]["draws"] for s in empirical)
    m["drift.empirical_ns_per_draw"] = ratio(m["drift.empirical_s"] * 1e9, m["drift.empirical_draws"])
    m["drift.empirical_peak_mb"] = max((s[4]["memory"] for s in empirical), default=0) / 1e6

    sims = [s for s in spans if s[0] == "ssa.simulate"]
    summaries = [json.loads(out) for argv, out in stdouts if argv[:1] == ["simulate"] and out.strip()]
    events = sum(s["n_events"] for s in summaries)
    m["ssa.simulate_s"] = sum(s[2] - s[1] for s in sims)
    m["ssa.events"] = events
    m["ssa.us_per_event"] = ratio(m["ssa.simulate_s"] * 1e6, events)
    m["ssa.null_fraction"] = ratio(sum(s["event_counts"]["null"] for s in summaries), events)
    m["ssa.trajectory_peak_mb"] = max((s[4]["memory"] for s in sims), default=0) / 1e6
    csv = [s for s in spans if s[0] == "ssa.trajectory_csv_lines"]
    m["ssa.csv_s"] = sum(s[2] - s[1] for s in csv)
    m["ssa.csv_us_per_row"] = ratio(m["ssa.csv_s"] * 1e6, sum(s[4]["rows"] for s in csv))
    return m


def span_table(spans: list[list]) -> dict[str, dict]:
    """Calls, inclusive time and self time (minus child spans) per span name."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]
    table: dict[str, dict] = {}
    for span, children in zip(spans, child_time):
        row = table.setdefault(span[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += span[2] - span[1]
        row["self_s"] += span[2] - span[1] - children
    return table


def main() -> int:
    round_dir, ops_path, trace = Path(sys.argv[1]), Path(sys.argv[2]), sys.argv[3] == "1"
    ops = json.loads(ops_path.read_text())
    t0 = time.perf_counter()
    import swarmdec.cli as cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    if trace:
        install(tracer)
    os.chdir(round_dir)
    captured = []
    codes = []
    starts = []
    loop_start = time.perf_counter()
    for argv in ops:
        starts.append(len(tracer.spans))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except Exception:
                traceback.print_exc()
                code = 1
        codes.append(code)
        captured.append((out.getvalue(), err.getvalue()))
    loop_s = time.perf_counter() - loop_start
    for i, (out, err) in enumerate(captured):
        Path(f"op{i}.out").write_text(out, encoding="utf-8")
        Path(f"op{i}.err").write_text(err, encoding="utf-8")
    result = {"codes": codes, "import_s": import_s, "loop_s": loop_s,
              "module": str(Path(cli.__file__).resolve())}
    if trace:
        stdouts = [(argv, out) for argv, (out, _) in zip(ops, captured)]
        result["metrics"] = layer_metrics(tracer.spans, starts, stdouts)
        result["spans"] = span_table(tracer.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
