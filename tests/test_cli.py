import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random
import re
import signal
import stat
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from swarmdec import cli, drift
from swarmdec.cli import (
    _CONFIG_KEYS,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    EXIT_VALIDATION,
    MAX_GRID,
    MAX_SAMPLES,
    MAX_STATE_AGENTS,
    ConfigError,
    build_parser,
    main,
    resolve_config,
)
from swarmdec.model import MAX_SWARM_SIZE, iter_rulesets

MMm_SCHEMA = """\
X1+6X2 -> 7X2
2X1+5X2 -> X1+6X2
3X1+4X2 -> 4X1+3X2
4X1+3X2 -> 3X1+4X2
5X1+2X2 -> 6X1+X2
6X1+X2 -> 7X1
"""


def read_csv(path):
    comments, header, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line
        else:
            rows.append(line.split(","))
    return comments, header, rows


def assert_config_error(code, capsys, out):
    """Exit 2 with exactly one ``swarmdec:`` line and no output file."""
    assert code == EXIT_CONFIG
    err_lines = capsys.readouterr().err.splitlines()
    assert len(err_lines) == 1 and err_lines[0].startswith("swarmdec: ")
    assert not out.exists()


def read_json_with_header(path):
    text = path.read_text()
    comment, _, body = text.partition("\n")
    assert comment.startswith("# swarmdec ")
    return comment, json.loads(body)


class TestDrift:
    def test_analytic_curve(self, tmp_path):
        out = tmp_path / "mmm0.csv"
        code = main(
            [
                "drift", "--agents", "101", "--group", "7", "--rules", "MMM",
                "--epsilon", "0", "--grid", "201", "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        comments, header, rows = read_csv(out)
        assert header == "z,dzdt"
        assert len(rows) == 201
        assert comments[0].startswith("# swarmdec ")
        assert "agents=101" in comments[0]
        assert "rules=MMM" in comments[0]
        assert float(rows[0][0]) == -1.0 and float(rows[0][1]) == 0.0
        assert float(rows[-1][0]) == 1.0 and float(rows[-1][1]) == 0.0

    def test_complement_rowwise_negation(self, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        base = ["--agents", "101", "--epsilon", "0", "--grid", "201"]
        assert main(["drift", "--rules", "MMM", *base, "--out", str(out_a)]) == EXIT_OK
        assert main(["drift", "--rules", "mmm", *base, "--out", str(out_b)]) == EXIT_OK
        _, _, rows_a = read_csv(out_a)
        _, _, rows_b = read_csv(out_b)
        for row_a, row_b in zip(rows_a, rows_b):
            assert row_a[0] == row_b[0]
            assert float(row_a[1]) == -float(row_b[1])

    def test_pure_noise_rules_none(self, tmp_path):
        out = tmp_path / "noise.csv"
        code = main(
            ["drift", "--rules", "none", "--epsilon", "0.1", "--grid", "21",
             "--out", str(out)]
        )
        assert code == EXIT_OK
        _, _, rows = read_csv(out)
        assert float(rows[0][1]) == 0.1   # drift(-1) = +eps
        assert float(rows[-1][1]) == -0.1  # drift(+1) = -eps

    def test_empirical_sibling(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = main(
            ["drift", "--agents", "21", "--rules", "M", "--epsilon", "0.1",
             "--samples", "5000", "--seed", "3", "--empirical", "--out", str(out)]
        )
        assert code == EXIT_OK
        sibling = tmp_path / "curve.empirical.csv"
        assert sibling.exists()
        _, header, rows = read_csv(sibling)
        assert header == "z,dzdt"
        assert len(rows) == 22  # one row per lattice state

    def test_polarity_length_mismatch(self, tmp_path, capsys):
        code = main(
            ["drift", "--rules", "MM", "--group", "7", "--out",
             str(tmp_path / "x.csv")]
        )
        assert code == EXIT_CONFIG
        assert "length" in capsys.readouterr().err

    def test_missing_out(self):
        assert main(["drift", "--rules", "MMM"]) == EXIT_CONFIG

    def test_missing_rules(self, tmp_path):
        assert main(["drift", "--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG

    def test_io_error(self, tmp_path):
        code = main(
            ["drift", "--rules", "MMM", "--out",
             str(tmp_path / "no_such_dir" / "x.csv")]
        )
        assert code == EXIT_IO

    @pytest.mark.parametrize("flags", [["--rule-rate", "1e308"], ["--epsilon", "1e308"]])
    def test_empirical_overflowing_rate_rejected(self, tmp_path, capsys, flags):
        out = tmp_path / "d.csv"
        code = main(["drift", "--rules", "MMm", "--empirical", *flags, "--out", str(out)])
        assert_config_error(code, capsys, out)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_empirical_overflow_rejected_on_any_pool(self, tmp_path, capsys, workers):
        # Runs sharing a process on a pool of threads each fail on their own.
        outs = [tmp_path / f"d{index}.csv" for index in range(workers)]
        with ThreadPoolExecutor(workers) as pool:
            codes = list(pool.map(
                lambda out: main(
                    ["drift", "--rules", "MMm", "--empirical", "--rule-rate", "1e308",
                     "--out", str(out)]
                ),
                outs,
            ))
        assert codes == [EXIT_CONFIG] * workers
        err_lines = capsys.readouterr().err.splitlines()
        assert len(err_lines) == workers
        assert all(line.startswith("swarmdec: ") for line in err_lines)
        assert list(tmp_path.iterdir()) == []

    def test_csv_is_streamed(self, tmp_path):
        # 200001 rows make a 7 MB CSV; held as two tuples of doubles before
        # the write, the curve peaked at 15.7 MiB here and grew with --grid.
        # Streamed, the peak is a write chunk.
        out = tmp_path / "d.csv"
        tracemalloc.start()
        try:
            code = main(["drift", "--rules", "MMm", "--grid", "200001", "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert out.read_text().count("\n") == 200001 + 2
        assert peak < 4 * 2**20

    def test_empirical_at_subnormal_rule_rate(self, tmp_path, capsys):
        # The group channel's share is subnormal: a geometric waiting time
        # that overflowed to inf must not reach floor(), which raises.
        out = tmp_path / "d.csv"
        argv = ["drift", "--agents", "11", "--rules", "M", "--epsilon", "0.1", "--empirical",
                "--rule-rate", "1e-320", "--out", str(out)]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().err == ""
        assert out.with_suffix(".empirical.csv").read_text().count("\n") == 12 + 2

    def test_empirical_csv_is_streamed(self, tmp_path):
        # The sampled curve was held as two tuples of N + 1 estimates before
        # it was written, so its peak grew by ≈65 bytes per state.  Streamed,
        # the peak is one row.

        def peak(agents: int) -> int:
            out = tmp_path / f"d{agents}.csv"
            argv = ["drift", "--rules", "MMm", "--epsilon", "0.05", "--agents", str(agents),
                    "--empirical", "--samples", "10", "--out", str(out)]
            tracemalloc.start()
            try:
                assert main(argv) == EXIT_OK
                traced = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert out.with_suffix(".empirical.csv").read_text().count("\n") == agents + 3
            return traced

        main(["drift", "--rules", "M", "--agents", "5", "--empirical", "--samples", "10",
              "--out", str(tmp_path / "warm.csv")])  # a warm-up run, untraced
        assert abs(peak(20001) - peak(2001)) < 2**19

    def test_plot_script(self, tmp_path):
        out = tmp_path / "d.csv"
        script = tmp_path / "d.gp"
        code = main(
            ["drift", "--rules", "MMM", "--grid", "11", "--out", str(out),
             "--plot-script", str(script)]
        )
        assert code == EXIT_OK
        assert "plot" in script.read_text()


class TestPlotScript:
    @pytest.mark.parametrize(
        "argv, script, data",
        [(["drift", "--rules", "M", "--out", "x.csv"], "x.csv", "x.csv"),
         (["drift", "--rules", "M", "--empirical", "--samples", "10", "--out", "y.csv"], "y.empirical.csv",
          "y.empirical.csv"),
         (["simulate", "--rules", "M", "--events", "10", "--out", "s.csv"], "./s.csv", "s.csv")],
        ids=["drift-out", "drift-empirical", "simulate-out"],
    )
    def test_script_over_a_data_file_is_refused(self, tmp_path, monkeypatch, capsys, argv, script, data):
        # The script used to replace the data file it plots.
        monkeypatch.chdir(tmp_path)
        code = main([*argv, "--plot-script", script])
        err_lines = capsys.readouterr().err.splitlines()
        assert code == EXIT_CONFIG
        assert err_lines == [f"swarmdec: --plot-script would overwrite the data file {data}"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "name, quoted",
        [("d.csv", '"d.csv"'), ('a"b.csv', '"a\\"b.csv"'), ("q\\x.csv", '"q\\\\x.csv"'),
         ("n\nl.csv", '"n\\nl.csv"')],
        ids=["plain", "quote", "backslash", "newline"],
    )
    def test_file_names_are_escaped(self, tmp_path, monkeypatch, name, quoted):
        # gnuplot's double-quoted strings take \\, \" and \n; names were
        # inserted as they are, so that a quote ended the string early.
        monkeypatch.chdir(tmp_path)
        assert main(["drift", "--rules", "M", "--grid", "5", "--out", name, "--plot-script", "p.gp"]) == EXIT_OK
        lines = (tmp_path / "p.gp").read_text().splitlines()
        assert lines[-1] == f'plot {quoted} using 1:2 with lines title "M"'


class TestProbs:
    def test_rows_normalized(self, tmp_path):
        out = tmp_path / "p7.csv"
        code = main(["probs", "--agents", "101", "--group", "7", "--out", str(out)])
        assert code == EXIT_OK
        _, header, rows = read_csv(out)
        assert header == "z," + ",".join(f"p{k}" for k in range(8))
        assert len(rows) == 102
        for row in rows:
            total = math.fsum(float(cell) for cell in row[1:])
            assert abs(total - 1.0) <= 1e-12

    def test_epsilon_is_refused(self, tmp_path, capsys):
        # The firing probabilities do not depend on the noise level.
        out = tmp_path / "p.csv"
        code = main(["probs", "--agents", "101", "--group", "7", "--epsilon", "0.1", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "unrecognized arguments: --epsilon" in capsys.readouterr().err
        assert not out.exists()

    def test_empirical_sibling_close_to_analytic(self, tmp_path):
        out = tmp_path / "p.csv"
        code = main(
            ["probs", "--agents", "101", "--group", "7", "--empirical",
             "--samples", "20000", "--seed", "42", "--out", str(out)]
        )
        assert code == EXIT_OK
        _, _, analytic_rows = read_csv(out)
        _, _, sampled_rows = read_csv(tmp_path / "p.empirical.csv")
        assert len(sampled_rows) == 102
        for row_a, row_e in zip(analytic_rows, sampled_rows):
            for cell_a, cell_e in zip(row_a[1:], row_e[1:]):
                assert abs(float(cell_a) - float(cell_e)) < 0.02

    def test_csv_is_streamed(self, tmp_path):
        # N = 20001 makes a 2 MB CSV; built as one list before writing, with
        # its tables and lattice, it peaked at 8.7 MB here and grew with N.
        # Streamed, the peak is a write chunk.
        out = tmp_path / "p.csv"
        tracemalloc.start()
        try:
            assert main(["probs", "--group", "3", "--agents", "20001", "--out", str(out)]) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.read_text().count("\n") == 20002 + 2
        assert peak < 4 * 2**20

    def test_empirical_csv_is_streamed(self, tmp_path):
        # The sampled sibling was built from all N + 1 tables before it was
        # written, so its peak grew by ≈350 bytes per state.  Streamed, the
        # peak is one row.

        def peak(agents: int) -> int:
            out = tmp_path / f"p{agents}.csv"
            argv = ["probs", "--group", "3", "--agents", str(agents), "--empirical",
                    "--samples", "10", "--out", str(out)]
            tracemalloc.start()
            try:
                assert main(argv) == EXIT_OK
                traced = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert out.with_suffix(".empirical.csv").read_text().count("\n") == agents + 3
            return traced

        main(["probs", "--group", "3", "--agents", "5", "--empirical", "--samples", "10",
              "--out", str(tmp_path / "warm.csv")])  # a warm-up run, untraced
        assert abs(peak(20001) - peak(2001)) < 2**19

    def test_group_required(self, tmp_path):
        assert main(["probs", "--out", str(tmp_path / "p.csv")]) == EXIT_CONFIG


class TestSimulate:
    def test_absorbs_and_reports(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code = main(
            ["simulate", "--rules", "MMM", "--group", "7", "--epsilon", "0",
             "--events", "100000", "--seed", "7", "--init-z", "0.0099",
             "--out", str(out)]
        )
        assert code == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert abs(summary["final_z"]) == 1.0
        assert summary["n_events"] == 100000
        counts = summary["event_counts"]
        assert counts["rule"] + counts["noise12"] + counts["noise21"] + counts["null"] == 100000
        _, header, rows = read_csv(out)
        assert header == "time,event,k,count_x1,z"
        assert len(rows) == 100000

    def test_byte_identical_reruns(self, tmp_path):
        args = [
            "simulate", "--rules", "MMm", "--epsilon", "0.05", "--events",
            "5000", "--seed", "21",
        ]
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main([*args, "--out", str(out_a)]) == EXIT_OK
        assert main([*args, "--out", str(out_b)]) == EXIT_OK
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_init_z_out_of_range(self, tmp_path):
        code = main(
            ["simulate", "--rules", "MMM", "--init-z", "2.0", "--out",
             str(tmp_path / "t.csv")]
        )
        assert code == EXIT_CONFIG

    def test_init_k_and_z_conflict(self, tmp_path):
        code = main(
            ["simulate", "--rules", "MMM", "--init-z", "0.0", "--init-k", "51",
             "--out", str(tmp_path / "t.csv")]
        )
        assert code == EXIT_CONFIG

    def test_frozen_config_rejected(self, tmp_path):
        code = main(
            ["simulate", "--rules", "none", "--epsilon", "0", "--events", "10",
             "--out", str(tmp_path / "t.csv")]
        )
        assert code == EXIT_CONFIG

    def test_stop_at_consensus_and_elide_nulls(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code = main(
            ["simulate", "--rules", "MMM", "--seed", "3", "--init-k", "51",
             "--stop-at-consensus", "--elide-nulls", "--events", "1000000",
             "--out", str(out)]
        )
        assert code == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert abs(summary["final_z"]) == 1.0
        _, _, rows = read_csv(out)
        assert all(row[1] != "null" for row in rows)


    def test_event_counts_with_elided_nulls(self, tmp_path, capsys):
        args = ["simulate", "--rules", "MMm", "--epsilon", "0.1", "--events", "4000",
                "--seed", "8"]
        full, elided = tmp_path / "full.csv", tmp_path / "elided.csv"
        assert main([*args, "--out", str(full)]) == EXIT_OK
        full_summary = json.loads(capsys.readouterr().out)
        assert main([*args, "--elide-nulls", "--out", str(elided)]) == EXIT_OK
        elided_summary = json.loads(capsys.readouterr().out)
        _, _, full_rows = read_csv(full)
        _, _, elided_rows = read_csv(elided)
        tallies = {label: 0 for label in ("rule", "null", "noise12", "noise21")}
        for row in full_rows:
            tallies[row[1]] += 1
        assert tallies["null"] > 0 and tallies["rule"] > 0
        assert full_summary["event_counts"] == tallies
        assert elided_summary == full_summary
        assert elided_rows == [row for row in full_rows if row[1] != "null"]

    @pytest.mark.parametrize(
        "flags",
        [["--t-max", "inf"], ["--t-max", "nan"], ["--rule-rate", "1e308"],
         ["--epsilon", "1e308", "--events", "10"]],
    )
    def test_unbounded_or_overflowing_run_rejected(self, tmp_path, capsys, flags):
        out = tmp_path / "t.csv"
        code = main(["simulate", "--rules", "MMM", *flags, "--out", str(out)])
        assert_config_error(code, capsys, out)

    def test_stop_at_consensus_alone_is_bounded(self, tmp_path, capsys):
        # All-minority rules from K = 51 never reach consensus; without the
        # default bound this run did not end and its CSV grew until the disk
        # was full.
        out = tmp_path / "t.csv"
        code = main(["simulate", "--rules", "mmm", "--stop-at-consensus", "--out", str(out)])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["n_events"] == cli.DEFAULT_EVENTS == 100_000

    def test_waits_past_the_largest_double_end_the_run(self, tmp_path, capsys):
        # At 1e-320 per agent every waiting time overflows a double: the run
        # ends before its first event, without a warning, where it recorded
        # events at time inf and reported a final time of Infinity.
        out = tmp_path / "t.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["simulate", "--rules", "MMM", "--rule-rate", "1e-320",
                         "--events", "10", "--out", str(out)])
        assert code == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert (summary["n_events"], summary["final_time"]) == (0, 0.0)
        _, header, rows = read_csv(out)
        assert header == "time,event,k,count_x1,z" and rows == []

    def test_clock_summing_past_the_largest_double_ends_the_run(self, tmp_path):
        # At 1e-306 per agent the waits are finite but their sum overflows a
        # double after 18350 events: the run ends there, and no numpy
        # overflow warning reaches standard error.
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        env.pop("SWARMDEC_SEED", None)
        result = subprocess.run(
            [sys.executable, "-m", "swarmdec.cli", "simulate", "--rules", "M",
             "--rule-rate", "1e-306", "--events", "100000", "--out", "r.csv"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert (result.returncode, result.stderr) == (0, "")
        assert json.loads(result.stdout)["n_events"] == 18350
        data = (tmp_path / "r.csv").read_bytes()
        assert data.count(b"\n") == 18352
        assert hashlib.sha256(data).hexdigest() == (
            "637b345cb3cb4d438de590255c6d229571bdc678b6cb4930f951a034c7d068c6"
        )


class TestSimulateMemory:
    def test_peak_does_not_grow_with_events(self, tmp_path, capsys):
        # Held as a Trajectory before the write, the record peaked at 2.0 MiB
        # at 2*10**4 events and 4.0 MiB at 2*10**5 here.  Streamed to the
        # writer process, the peak is 0.3 MiB at both, about one block of
        # columns.  tracemalloc slows the SSA about tenfold, hence 2*10**5.
        args = ["simulate", "--rules", "Mmm", "--epsilon", "0.1", "--seed", "1",
                "--out", str(tmp_path / "run.csv")]
        assert main([*args, "--events", "1000"]) == EXIT_OK  # imports, caches
        peaks = []
        for events in (20_000, 200_000):
            tracemalloc.start()
            try:
                assert main([*args, "--events", str(events)]) == EXIT_OK
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        capsys.readouterr()
        assert peaks[1] < 2**20
        assert abs(peaks[1] - peaks[0]) < 2**18


    def test_writer_peak_does_not_grow_with_events_at_large_n(self, tmp_path):
        # With N = 10**9 + 1 nearly every count is new: the writer that kept
        # the text of every (kind, k, count) it had seen peaked at 127 MiB at
        # 10**6 events and 395 MiB at 3 * 10**6.  Its tables now hold at
        # most 8192 keys across blocks.
        peaks = []
        for events in (100_000, 400_000):
            argv = ["simulate", "--agents", "1000000001", "--rules", "Mmm", "--epsilon", "0.1",
                    "--init-z", "0.5", "--events", str(events), "--out", str(tmp_path / "run.csv")]
            code, peak = json.loads(_fresh_run(_WRITER_PEAK_PROBE, json.dumps(argv), cwd=tmp_path))
            assert code == EXIT_OK
            peaks.append(peak)
        assert peaks[1] - peaks[0] < 2**11  # KiB


#: Runs ``cli.main(argv)`` in a fresh interpreter, then prints the exit code
#: and the peak resident memory, in KiB, of the writer process it forked.
_WRITER_PEAK_PROBE = """\
import json, os, sys
from swarmdec import cli
peaks = []
def waitpid(pid, options):
    pid, status, usage = os.wait4(pid, options)
    peaks.append(usage.ru_maxrss)
    return pid, status
os.waitpid = waitpid
code = cli.main(json.loads(sys.argv[1]))
print(json.dumps([code, peaks[0]]))
"""


#: Runs ``cli.main(argv)`` in a fresh interpreter, then prints the exit code
#: and whether the process still has a child, live or zombie.
_PIPELINE_PROBE = """\
import json, os, sys
from swarmdec import cli
code = cli.main(json.loads(sys.argv[1]))
try:
    os.waitpid(-1, os.WNOHANG)
    children = True
except ChildProcessError:
    children = False
print(json.dumps({"code": code, "children": children}))
"""


def _start_probe(argv: list[str], cwd: Path) -> subprocess.Popen:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.Popen(
        [sys.executable, "-c", _PIPELINE_PROBE, json.dumps(argv)],
        cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def _probe_result(proc: subprocess.Popen, timeout: float = 120) -> tuple[list[dict], str]:
    """The probe's result lines (one per return from ``main``) and its stderr."""
    out, err = proc.communicate(timeout=timeout)
    results = [json.loads(line) for line in out.splitlines() if line.startswith('{"code"')]
    return results, err


def _wait_for_temp_file(directory: Path, proc: subprocess.Popen) -> Path:
    """The temp file the writer process is filling, once rows reach it."""
    for _ in range(6000):
        found = [p for p in directory.glob(".run.csv.*.tmp") if p.stat().st_size]
        if found:
            return found[0]
        assert proc.poll() is None, "the run ended before its writer started"
        time.sleep(0.01)
    raise AssertionError("no temp file appeared")


def _writer_pid(pid: int) -> int:
    """The one child process of ``pid`` (Linux /proc), or skip."""
    path = Path(f"/proc/{pid}/task/{pid}/children")
    if not path.exists():
        pytest.skip("/proc/PID/task/TID/children is not available")
    (child,) = map(int, path.read_text().split())
    return child


class TestWriterProcess:
    """``simulate`` writes its CSV from a forked process; every way that can
    fail leaves no traceback, no file, no temp file and no child process."""

    LONG_RUN = ["simulate", "--rules", "Mmm", "--epsilon", "0.1", "--events", str(10**7),
                "--seed", "1", "--out", "run.csv"]

    def test_success_returns_once(self, tmp_path):
        argv = ["simulate", "--rules", "MMm", "--events", "20000", "--out", "run.csv"]
        results, err = _probe_result(_start_probe(argv, tmp_path))
        assert results == [{"code": EXIT_OK, "children": False}]
        assert err == ""
        assert [p.name for p in tmp_path.iterdir()] == ["run.csv"]

    def test_unwritable_out_directory(self, tmp_path):
        argv = ["simulate", "--rules", "MMm", "--events", "100000", "--out", "missing/run.csv"]
        results, err = _probe_result(_start_probe(argv, tmp_path))
        assert results == [{"code": EXIT_IO, "children": False}]
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("swarmdec: ")
        assert list(tmp_path.iterdir()) == []

    def test_writer_fails_mid_stream(self, tmp_path, monkeypatch, capsys):
        # The parent creates the file, so an unwritable directory fails
        # before the fork; a full disk still fails in the writer, whose
        # _write_lines (patched before the fork) raises after the provenance
        # line, the CSV header and the first block of rows.
        write_lines, fork, children = cli._write_lines, os.fork, []

        def disk_full_after_one_block(fh, lines):
            write_lines(fh, itertools.islice(lines, 3))
            fh.flush()
            raise OSError(28, "No space left on device")

        def recorded_fork():
            pid = fork()
            children.append(pid)
            return pid

        monkeypatch.setattr(cli, "_write_lines", disk_full_after_one_block)
        monkeypatch.setattr(os, "fork", recorded_fork)
        monkeypatch.chdir(tmp_path)
        code = main(["simulate", "--rules", "MMm", "--events", "100000", "--out", "run.csv"])
        assert code == EXIT_IO
        assert capsys.readouterr().err == "swarmdec: [Errno 28] No space left on device\n"
        assert list(tmp_path.iterdir()) == []
        (child,) = children
        with pytest.raises(ChildProcessError):  # already reaped
            os.waitpid(child, os.WNOHANG)

    def test_sigint_exits_130_promptly(self, tmp_path):
        proc = _start_probe(self.LONG_RUN, tmp_path)
        _wait_for_temp_file(tmp_path, proc)
        start = time.monotonic()
        proc.send_signal(signal.SIGINT)
        results, err = _probe_result(proc)
        assert time.monotonic() - start < 1.0
        assert results == [{"code": 130, "children": False}]
        assert err == "swarmdec: interrupted\n"
        assert list(tmp_path.iterdir()) == []

    def test_killed_writer(self, tmp_path):
        proc = _start_probe(self.LONG_RUN, tmp_path)
        _wait_for_temp_file(tmp_path, proc)
        os.kill(_writer_pid(proc.pid), signal.SIGKILL)
        results, err = _probe_result(proc)
        assert results == [{"code": EXIT_IO, "children": False}]
        assert err == "swarmdec: CSV writer process killed by signal 9\n"
        assert list(tmp_path.iterdir()) == []


class TestOutputFiles:
    @pytest.mark.parametrize("umask", [0o022, 0o027], ids=["022", "027"])
    def test_new_file_mode_follows_umask(self, tmp_path, umask):
        out = tmp_path / "d.csv"
        previous = os.umask(umask)
        try:
            assert main(["drift", "--rules", "M", "--grid", "11", "--out", str(out)]) == EXIT_OK
        finally:
            os.umask(previous)
        assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask

    def test_overwrite_keeps_mode(self, tmp_path):
        out = tmp_path / "d.csv"
        out.write_text("old\n")
        out.chmod(0o604)
        assert main(["drift", "--rules", "M", "--grid", "11", "--out", str(out)]) == EXIT_OK
        assert stat.S_IMODE(out.stat().st_mode) == 0o604
        assert out.read_text().startswith("# swarmdec ")

    @pytest.mark.parametrize(
        "argv, flag, name, kind",
        [(["drift", "--rules", "M", "--out", "p"], "--out", "p", "fifo"),
         (["validate", "--out", "p"], "--out", "p", "dir"),
         (["drift", "--rules", "M", "--empirical", "--out", "d.csv"], "--empirical", "d.empirical.csv", "dir"),
         (["simulate", "--rules", "M", "--out", "d.csv", "--plot-script", "p"], "--plot-script", "p", "fifo")],
        ids=["out-fifo", "out-dir", "sibling-dir", "plot-script-fifo"],
    )
    def test_output_that_is_no_regular_file_is_refused(self, tmp_path, monkeypatch, capsys, argv, flag, name, kind):
        # The rename replaced a FIFO (or, as root, a device node); a
        # directory failed with EISDIR only once all the work was done.
        # Never test this with a real device: a run that slipped past the
        # check as root would destroy it.
        monkeypatch.chdir(tmp_path)
        os.mkfifo(name) if kind == "fifo" else os.mkdir(name)
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == f"swarmdec: {flag} {name}: not a regular file\n"
        assert [p.name for p in tmp_path.iterdir()] == [name]
        mode = os.lstat(name).st_mode
        assert stat.S_ISFIFO(mode) if kind == "fifo" else stat.S_ISDIR(mode)

    @pytest.mark.parametrize("stale", [True, False], ids=["stale-target", "dangling"])
    def test_symlinked_output_is_written_through(self, tmp_path, monkeypatch, stale):
        # The rename used to replace the link itself and leave its target stale.
        monkeypatch.chdir(tmp_path)
        os.mkdir("data")
        os.symlink("data/real.csv", "link.csv")
        if stale:
            Path("data/real.csv").write_text("stale\n")
        assert main(["drift", "--rules", "M", "--grid", "5", "--out", "link.csv"]) == EXIT_OK
        assert os.readlink("link.csv") == "data/real.csv"
        assert Path("data/real.csv").read_text().startswith("# swarmdec ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "link.csv"]
        assert [p.name for p in (tmp_path / "data").iterdir()] == ["real.csv"]

    @pytest.mark.parametrize(
        "argv, message",
        [(["drift", "--rules", "M", "--config", "c.json", "--out", "c.json"],
          "--out would overwrite the config file c.json"),
         (["drift", "--schema", "s.txt", "--plot-script", "s.txt", "--out", "d.csv"],
          "--plot-script would overwrite the schema file s.txt"),
         (["rulesets", "--schema", "s.txt", "--out", "./s.txt"],
          "--out would overwrite the schema file s.txt"),
         (["probs", "--group", "3", "--empirical", "--samples", "5", "--config", "c.empirical.csv",
           "--out", "c.csv"], "--empirical would overwrite the config file c.empirical.csv"),
         (["validate", "--config", "c.json", "--out", "alias.json"],
          "--out would overwrite the config file c.json")],
        ids=["out-config", "plot-script-schema", "out-schema", "sibling-config", "out-config-symlink"],
    )
    def test_output_naming_an_input_is_refused(self, tmp_path, monkeypatch, capsys, argv, message):
        # The first two runs used to exit 0 and replace their input.
        monkeypatch.chdir(tmp_path)
        inputs = {"c.json": "{}\n", "c.empirical.csv": "{}\n", "s.txt": "X1+2X2 -> 3X2\n2X1+X2 -> 3X1\n"}
        for name, text in inputs.items():
            Path(name).write_text(text)
        os.symlink("c.json", "alias.json")
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == f"swarmdec: {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([*inputs, "alias.json"])
        assert all(Path(name).read_text() == text for name, text in inputs.items())


    def test_long_rows_are_not_held_twice(self, tmp_path):
        # 3000 rows of 12 KB (36 MB) fit in one 8192-line chunk, which was
        # held as the list of rows and again as their join (a 72 MB peak).
        # Written one at a time, the rows are held one at a time.
        out = tmp_path / "long.csv"
        rows = (f"{index:05d}," + "x" * 12_000 for index in range(3000))
        tracemalloc.start()
        try:
            cli._write_text(out, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.stat().st_size == 3000 * 12_007
        assert peak < 8 * 2**20

    def test_lines_are_written_one_at_a_time(self, tmp_path):
        # Joined 8192 lines to a write, these 2 MB of lines peaked at ≈1.7 MB;
        # written one at a time, the peak is about one line and the buffer.
        out = tmp_path / "short.csv"
        rows = ("x" * 100 for _ in range(20_000))
        tracemalloc.start()
        try:
            cli._write_text(out, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.stat().st_size == 20_000 * 101
        assert peak < 256 * 2**10


class TestInterrupt:
    def test_interrupted_handler_exits_130(self, tmp_path, capsys, monkeypatch):
        def interrupted(cfg):
            raise KeyboardInterrupt

        monkeypatch.setitem(cli._HANDLERS, "drift", interrupted)
        out = tmp_path / "d.csv"
        try:
            code = main(["drift", "--rules", "M", "--out", str(out)])
        except KeyboardInterrupt:  # would otherwise end the whole test session
            pytest.fail("KeyboardInterrupt escaped main")
        assert code == 130
        assert capsys.readouterr().err == "swarmdec: interrupted\n"
        assert not out.exists()

    def test_interrupted_write_leaves_no_file(self, tmp_path):
        def lines():
            yield from ("row" for _ in range(3 * 8192))
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            cli._write_text(tmp_path / "d.csv", lines())
        assert list(tmp_path.iterdir()) == []


class TestFixedPoints:
    def test_scan_is_streamed(self, tmp_path):
        # Holding the grid, the drift values and the nonzero indices as lists,
        # the scan peaked at 19 MiB here and grew with --grid.  Streamed, it
        # holds one grid point and the ends of the current zero run.
        out = tmp_path / "fp.json"
        tracemalloc.start()
        try:
            code = main(["fixed-points", "--rules", "MMm", "--epsilon", "0.05",
                         "--grid", "200001", "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert len(read_json_with_header(out)[1]) == 3
        assert peak < 2**20

    def test_all_minority(self, tmp_path):
        out = tmp_path / "fp.json"
        code = main(
            ["fixed-points", "--rules", "mmm", "--epsilon", "0", "--out", str(out)]
        )
        assert code == EXIT_OK
        _, points = read_json_with_header(out)
        assert [p["stability"] for p in points] == ["unstable", "stable", "unstable"]
        assert points[0]["z"] == -1.0
        assert abs(points[1]["z"]) <= 1e-6
        assert points[2]["z"] == 1.0
        assert all(p["bracket"][0] <= p["z"] <= p["bracket"][1] for p in points)

    def test_all_majority(self, tmp_path):
        out = tmp_path / "fp.json"
        assert main(["fixed-points", "--rules", "MMM", "--out", str(out)]) == EXIT_OK
        _, points = read_json_with_header(out)
        assert [p["stability"] for p in points] == ["stable", "unstable", "stable"]

    def test_noise_pushes_roots_inside(self, tmp_path):
        out = tmp_path / "fp.json"
        code = main(
            ["fixed-points", "--rules", "MMM", "--epsilon", "0.1", "--out", str(out)]
        )
        assert code == EXIT_OK
        _, points = read_json_with_header(out)
        stable = [p for p in points if p["stability"] == "stable"]
        assert stable
        assert all(abs(p["z"]) < 1.0 for p in stable)


class TestRulesets:
    def test_g7_listing(self, capsys):
        assert main(["rulesets", "--group", "7"]) == EXIT_OK
        out = capsys.readouterr().out
        for label in ("MMM", "MMm", "MmM", "Mmm", "mMM", "mMm", "mmM", "mmm"):
            assert f"{label}\n" in out
        assert "X1+6X2 -> 7X2" in out
        assert "6X1+X2 -> 5X1+2X2" in out

    def test_g5_count(self, capsys):
        assert main(["rulesets", "--group", "5"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("->") == 4 * 4  # 4 rule sets, 4 reactions each

    def test_even_group(self):
        assert main(["rulesets", "--group", "4"]) == EXIT_CONFIG

    def test_written_file_gets_provenance(self, tmp_path):
        out = tmp_path / "rules.txt"
        assert main(["rulesets", "--group", "3", "--out", str(out)]) == EXIT_OK
        assert out.read_text().startswith("# swarmdec ")

    def test_file_and_stdout_listings_agree(self, tmp_path, capsys):
        out = tmp_path / "rules.txt"
        assert main(["rulesets", "--group", "9", "--out", str(out)]) == EXIT_OK
        assert main(["rulesets", "--group", "9"]) == EXIT_OK
        header, _, listing = out.read_text().partition("\n")
        assert header.startswith("# swarmdec ")
        assert capsys.readouterr().out == listing

    def test_listing_is_streamed(self, tmp_path):
        # G = 21 lists 1024 rule sets in about 23 000 lines (1 MB); built as
        # one list before writing, the listing peaked at 2.7 MB here, and
        # doubled with every step of G.  Streamed, the peak is a write chunk.
        out = tmp_path / "rules.txt"
        tracemalloc.start()
        try:
            assert main(["rulesets", "--group", "21", "--out", str(out)]) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.read_text().count("\n\n") == 2**10 - 1
        assert peak < 2 * 2**20


class TestValidate:
    def test_passes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["validate", "--out", str(out)])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        names = {check["name"] for check in report["checks"]}
        assert names == {
            "pmf-bruteforce-agreement",
            "lattice-antisymmetry",
            "complement-negation",
            "noise-superposition",
        }
        _, file_report = read_json_with_header(out)
        assert file_report["passed"] is True

    def run_failing(self, tmp_path, capsys):
        """Run ``validate`` to exit 4; the names of the failed checks."""
        out = tmp_path / "report.json"
        assert main(["validate", "--out", str(out)]) == EXIT_VALIDATION
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is False
        _, file_report = read_json_with_header(out)
        assert file_report == report
        return [check["name"] for check in report["checks"] if not check["passed"]]

    def test_one_ulp_break_of_negation_fails(self, tmp_path, capsys, monkeypatch):
        real = drift._rule_term

        def one_ulp_high(n_agents, rules, count):
            term = real(n_agents, rules, count)
            if rules.label == "MMm" and count == 30:
                return math.nextafter(term, math.inf)
            return term

        monkeypatch.setattr(drift, "_rule_term", one_ulp_high)
        assert self.run_failing(tmp_path, capsys) == ["complement-negation"]

    def test_pmf_disagreeing_with_enumeration_fails(self, tmp_path, capsys, monkeypatch):
        real = cli.pmf_bruteforce

        def one_entry_off(n_agents, count_x1, group_size):
            law = real(n_agents, count_x1, group_size)
            if (n_agents, count_x1, group_size) == (10, 4, 5):
                return (*law[:2], law[2] + 1e-9, *law[3:])
            return law

        monkeypatch.setattr(cli, "pmf_bruteforce", one_entry_off)
        assert self.run_failing(tmp_path, capsys) == ["pmf-bruteforce-agreement"]


#: (file name, sha256, arguments) of the ``--empirical`` sibling files of two
#: seeded runs; ``--out`` is the name without ``.empirical``.  Their bytes
#: follow the samplers' ``random.Random`` streams, so they pin those streams
#: and that each row lands at its own state.
SAMPLED_OUTPUTS = [
    ("g7_probs.empirical.csv", "177d5d8890fcc55186d1fc247d3df511f0112a4949bcdabd42e8d7cd62cb7e21",
     ["probs", "--agents", "101", "--group", "7", "--empirical", "--samples", "20000",
      "--seed", "42"]),
    ("mmm_drift.empirical.csv", "62ac90d55f77ee4e3b56c629d96a852e423b291e2dc8a899730ff3a3a91e7813",
     ["drift", "--agents", "101", "--rules", "MMm", "--epsilon", "0.05", "--empirical",
      "--samples", "20000", "--seed", "7"]),
]

#: (file name, sha256, arguments) of the README's analytic data sets, then
#: the sampled ones above.  The digests pin every byte of the provenance
#: lines, number formats and JSON layout, so a refactor that changes any of
#: them fails here.
GOLDEN_OUTPUTS = [
    ("g5_quiet.csv", "90239293a91a25c251451df2a8d8d43d19371ddfb43b83cd40d2a3c1b97d1491",
     ["drift", "--agents", "101", "--rules", "Mm", "--epsilon", "0", "--grid", "201"]),
    ("g5_noisy.csv", "73fc84c182b579576502263638f6dd93fa71c04312479fa2c7d81322d907eb9d",
     ["drift", "--agents", "101", "--rules", "Mm", "--epsilon", "0.1", "--grid", "201"]),
    ("g5_probs.csv", "d87a387e492295ecf6c82a03997d0f115756865f8bd511aa6e5e1ec222694772",
     ["probs", "--agents", "101", "--group", "5"]),
    *[
        (f"g7_{label}.csv", digest,
         ["drift", "--agents", "101", "--rules", label, "--epsilon", "0", "--grid", "201"])
        for label, digest in [
            ("MMM", "035f5510d529fc538d710941aa96925246bd95a158b422b9dbc7dbe3c6efd2c0"),
            ("MMm", "f322e48f849161e746b5327bbd7ba700e6975b9abb016a425aef087ba015f3ef"),
            ("MmM", "a88b542e53c29f336294a31579cea651cd4ab546767f2826077facabcb80840b"),
            ("Mmm", "99a80b7a30b17d58c6c88e5f3587d8cd4891a2682f71f0745e5d11da0328b1e7"),
            ("mMM", "d30be1d0a7f16779f4b32cf25c2dcdfa460803b341d6d4ee84a570626c3b65db"),
            ("mMm", "9c9a363f442eab3731217bb31cc71e73bf6c4edccb74c3b87e640ca14a3a222b"),
            ("mmM", "d353a543ad961986b2c8e13020fbd3f8ebd97481c5c37216c48af39daa27ff5a"),
            ("mmm", "89779a6bf81d1c39af68edfa406a099653a6bd57df0b93129b61ca5e6f6eb84e"),
        ]
    ],
    ("pure_noise.csv", "e35c8030889214a3f6dacd04f8da479a146d100c8226a5106a0636ab00f763ac",
     ["drift", "--rules", "none", "--epsilon", "0.1"]),
    ("fp_quiet.json", "08bb5c5dc193cb88f584d41d18f570612302eaa841972e3d559e501f490bf63d",
     ["fixed-points", "--rules", "MMM", "--epsilon", "0"]),
    ("fp_noisy.json", "a37f497b1d430f2e11e1ed84fffe49f904cc0fa2ddb018aa0679b3c95b5ebf59",
     ["fixed-points", "--rules", "MMM", "--epsilon", "0.1"]),
    ("rulesets_g7.txt", "8f9e474bd5400f7f77a75d0f7b8b07ec27e8cf737236c86a88cf42cc9e43e4fb",
     ["rulesets", "--group", "7"]),
    ("validate.json", "c9823b0219b2917bfedacca6102b552235703a74543bc4b886f412a9043f7b9a",
     ["validate"]),
    *SAMPLED_OUTPUTS,
]


class TestGoldenOutputs:
    @pytest.mark.parametrize(
        "name, digest, args", GOLDEN_OUTPUTS, ids=[name for name, _, _ in GOLDEN_OUTPUTS]
    )
    def test_readme_output_bytes(self, tmp_path, monkeypatch, capsys, name, digest, args):
        monkeypatch.delenv("SWARMDEC_SEED", raising=False)
        assert main([*args, "--out", str(tmp_path / name.replace(".empirical", ""))]) == EXIT_OK
        capsys.readouterr()
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize(
        "name, digest, args", SAMPLED_OUTPUTS, ids=[name for name, _, _ in SAMPLED_OUTPUTS]
    )
    def test_sampled_bytes_independent_of_worker_count(
        self, tmp_path, monkeypatch, capsys, workers, name, digest, args
    ):
        # The same seeded run on each thread of a pool: every state draws
        # from its own generator, so concurrent runs write the same bytes.
        monkeypatch.delenv("SWARMDEC_SEED", raising=False)
        dirs = [tmp_path / str(index) for index in range(workers)]
        for directory in dirs:
            directory.mkdir()
        with ThreadPoolExecutor(workers) as pool:
            codes = list(pool.map(
                lambda directory: main(
                    [*args, "--out", str(directory / name.replace(".empirical", ""))]
                ),
                dirs,
            ))
        capsys.readouterr()
        assert codes == [EXIT_OK] * workers
        digests = {hashlib.sha256((d / name).read_bytes()).hexdigest() for d in dirs}
        assert digests == {digest}


class TestConfigFileAndEnvironment:
    def test_config_file_supplies_defaults(self, tmp_path):
        out = tmp_path / "c.csv"
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "agents": 51, "rules": "Mm", "epsilon": 0.05, "grid": 11,
            "out": str(out), "seed": 4,
        }))
        assert main(["drift", "--config", str(config)]) == EXIT_OK
        comments, _, rows = read_csv(out)
        assert "agents=51" in comments[0]
        assert "rules=Mm" in comments[0]
        assert "seed=4" in comments[0]
        assert len(rows) == 11

    def test_flags_override_config(self, tmp_path):
        out = tmp_path / "c.csv"
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"rules": "Mm", "grid": 11, "out": str(out)}))
        assert main(["drift", "--config", str(config), "--rules", "mm"]) == EXIT_OK
        comments, _, _ = read_csv(out)
        assert "rules=mm" in comments[0]

    def test_unknown_config_key(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"agent": 51}))
        assert main(["drift", "--config", str(config)]) == EXIT_CONFIG

    def test_malformed_config(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text("{not json")
        assert main(["drift", "--config", str(config)]) == EXIT_CONFIG

    def test_non_utf8_config(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_bytes('{"rules": "MM\u00e9"}'.encode("latin-1"))
        out = tmp_path / "d.csv"
        code = main(["drift", "--config", str(config), "--out", str(out)])
        assert_config_error(code, capsys, out)

    def test_seed_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SWARMDEC_SEED", "77")
        out = tmp_path / "c.csv"
        assert main(["drift", "--rules", "M", "--grid", "11", "--out", str(out)]) == EXIT_OK
        comments, _, _ = read_csv(out)
        assert "seed=77" in comments[0]

    def test_seed_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SWARMDEC_SEED", "77")
        out = tmp_path / "c.csv"
        assert main(
            ["drift", "--rules", "M", "--grid", "11", "--seed", "5", "--out", str(out)]
        ) == EXIT_OK
        comments, _, _ = read_csv(out)
        assert "seed=5" in comments[0]

    def test_invalid_env_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SWARMDEC_SEED", "not-a-number")
        assert main(
            ["drift", "--rules", "M", "--out", str(tmp_path / "c.csv")]
        ) == EXIT_CONFIG

    def test_env_seed_read_only_by_commands_that_take_seed(self, monkeypatch):
        # validate takes no --seed, so it does not read $SWARMDEC_SEED either.
        monkeypatch.setenv("SWARMDEC_SEED", "abc")
        assert main(["validate"]) == EXIT_OK

    def test_keys_a_command_does_not_take_are_ignored(self, tmp_path, monkeypatch):
        # One experiment's file serves several commands.
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"schema": "nonexistent.txt", "rules": "MMX"}))
        assert main(["validate", "--config", str(config)]) == EXIT_OK
        config.write_text(json.dumps({
            "rules": "MMM", "out": "a.json", "samples": 10, "empirical": True, "plot_script": "a.gp",
            "t_max": 5, "init_k": 3, "rule_rate": 2,
        }))
        assert main(["fixed-points", "--config", str(config)]) == EXIT_OK
        assert main(["fixed-points", "--rules", "MMM", "--out", "b.json"]) == EXIT_OK
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert sorted(path.name for path in tmp_path.iterdir()) == ["a.json", "b.json", "run.json"]

    @pytest.mark.parametrize(
        "argv, flag",
        [(["probs", "--group", "5", "--samples", "7"], "--samples"),
         (["probs", "--group", "5", "--no-empirical", "--samples", "7"], "--samples"),
         (["drift", "--rules", "MM", "--samples", "7"], "--samples"),
         (["drift", "--rules", "MM", "--rule-rate", "9"], "--rule-rate")],
        ids=["probs", "probs-no-empirical", "drift-samples", "drift-rule-rate"],
    )
    def test_sampler_flags_need_empirical(self, tmp_path, capsys, argv, flag):
        # Without --empirical no sampled file is written, so a flag that
        # only the sampler reads would change nothing.
        out = tmp_path / "o.csv"
        code = main([*argv, "--out", str(out)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == f"swarmdec: {flag} applies only with --empirical\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv", [["probs", "--group", "5"], ["drift", "--rules", "MM"]], ids=["probs", "drift"]
    )
    def test_sampler_keys_without_empirical_are_ignored(self, tmp_path, argv):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"samples": 7, "rule_rate": 9}))
        with_keys, without = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main([*argv, "--config", str(config), "--out", str(with_keys)]) == EXIT_OK
        assert main([*argv, "--out", str(without)]) == EXIT_OK
        assert with_keys.read_bytes() == without.read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [["drift", "--empirical", "--samples", "10"], ["simulate", "--events", "10"]],
        ids=["drift-empirical", "simulate"],
    )
    def test_rule_rate_refused_without_rules(self, tmp_path, capsys, argv):
        # The noise-only system has no group interactions, so its rule rate
        # is 0 whatever the flag says.
        out = tmp_path / "o.csv"
        argv = [*argv, "--rules", "none", "--epsilon", "0.1", "--out", str(out)]
        code = main([*argv, "--rule-rate", "5"])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == "swarmdec: --rule-rate does not apply with --rules none\n"
        assert list(tmp_path.iterdir()) == []
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"rule_rate": 5}))
        assert main([*argv, "--config", str(config)]) == EXIT_OK
        keyed = {path: path.read_bytes() for path in tmp_path.glob("*.csv")}
        assert main(argv) == EXIT_OK
        assert {path: path.read_bytes() for path in tmp_path.glob("*.csv")} == keyed

    def test_keys_a_command_does_not_take_are_type_checked(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"rules": "M", "samples": "many"}))
        out = tmp_path / "fp.json"
        code = main(["fixed-points", "--config", str(config), "--out", str(out)])
        assert_config_error(code, capsys, out)

    @pytest.mark.parametrize("key", ["epsilon", "rule_rate", "t_max", "init_z"])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_float_key_too_large_for_a_float(self, tmp_path, capsys, key, sign):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"rules": "M", key: sign * 10**400}))
        out = tmp_path / "s.csv"
        code = main(["simulate", "--events", "10", "--config", str(config), "--out", str(out)])
        assert_config_error(code, capsys, out)
        assert list(tmp_path.iterdir()) == [config]

    def test_float_key_given_as_integer_is_a_float(self, tmp_path, capsys):
        # Recorded as the same value given by its flag would be.
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"rules": "M", "t_max": 10**20, "epsilon": 1, "events": 10}))
        out = tmp_path / "s.csv"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == EXIT_OK
        comments, _, _ = read_csv(out)
        flagged = tmp_path / "f.csv"
        argv = ["simulate", "--rules", "M", "--t-max", "1e20", "--epsilon", "1", "--events", "10"]
        assert main([*argv, "--out", str(flagged)]) == EXIT_OK
        assert "epsilon=1 " in comments[0] and "t-max=1e+20 " in comments[0]
        assert read_csv(flagged)[0] == comments

    @pytest.mark.parametrize(
        "text",
        ["[" * 200_000 + "]" * 200_000, '{"seed": ' + "7" * 5000 + "}"],
        ids=["nested-200000-deep", "5000-digit-int"],
    )
    def test_hostile_json_config(self, tmp_path, capsys, text):
        config = tmp_path / "run.json"
        config.write_text(text)
        out = tmp_path / "d.csv"
        code = main(["drift", "--rules", "M", "--config", str(config), "--out", str(out)])
        err_lines = capsys.readouterr().err.splitlines()
        assert code == EXIT_CONFIG and not out.exists()
        assert len(err_lines) == 1
        assert err_lines[0].startswith(f"swarmdec: config file {config}: invalid JSON (")


#: (key, the other config keys) of each file-name option read from a config
#: file or a flag, set so that only that key's name can be refused.
UNUSABLE_NAME_CASES = [
    ("out", {"rules": "MMm"}),
    ("plot_script", {"rules": "MMm", "out": "ok.csv"}),
    ("schema", {"out": "ok.csv"}),
]


class TestUnusableFileNames:
    """A file name holding a NUL, or a lone surrogate that the file-system
    encoding cannot encode, ended in a ValueError traceback from the first
    file call, after ``--plot-script`` had already written the CSV.  It is
    a configuration error, raised before any file is written."""

    @staticmethod
    def assert_refused(code, capsys, work):
        err_lines = capsys.readouterr().err.splitlines()
        assert code == EXIT_CONFIG
        assert len(err_lines) == 1
        assert err_lines[0].startswith("swarmdec: ") and "not a usable file name" in err_lines[0]
        assert list(work.iterdir()) == []

    @pytest.mark.parametrize("name", ["a\x00b", "a\ud800b"], ids=["nul", "surrogate"])
    @pytest.mark.parametrize("via", ["config-file", "argv"])
    @pytest.mark.parametrize(
        "key, others", UNUSABLE_NAME_CASES, ids=[key for key, _ in UNUSABLE_NAME_CASES]
    )
    def test_refused_before_any_file(self, tmp_path, monkeypatch, capsys, key, others, via, name):
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        settings = {**others, key: name}
        if via == "config-file":
            config = tmp_path / "run.json"
            config.write_text(json.dumps(settings))
            argv = ["drift", "--config", str(config)]
        else:
            argv = ["drift", *(f"--{k.replace('_', '-')}={v}" for k, v in settings.items())]
        self.assert_refused(main(argv), capsys, work)

    @pytest.mark.parametrize("name", ["a\x00b", "a\ud800b"], ids=["nul", "surrogate"])
    def test_config_name_refused(self, tmp_path, monkeypatch, capsys, name):
        monkeypatch.chdir(tmp_path)
        code = main(["drift", "--rules", "MMm", "--out", "ok.csv", "--config", name])
        self.assert_refused(code, capsys, tmp_path)


class TestFileNamesInErrors:
    """Error messages print a file name with its control characters
    escaped, so that a name holding a newline still gives one line; other
    names print as they are."""

    @pytest.mark.parametrize(
        "name, shown", [("a\nb", "a\\nb"), ("r\u00e8gles b.txt", "r\u00e8gles b.txt")],
        ids=["newline", "plain"],
    )
    @pytest.mark.parametrize(
        "text", [("# r\u00e8gles\n" + MMm_SCHEMA).encode("latin-1"), b"[1]"],
        ids=["not-utf8", "not-a-schema-or-config"],
    )
    @pytest.mark.parametrize("option", ["--schema", "--config"])
    def test_one_error_line(self, tmp_path, monkeypatch, capsys, option, text, name, shown):
        monkeypatch.chdir(tmp_path)
        (tmp_path / name).write_bytes(text)
        code = main(["drift", option, name, "--out", "d.csv"])
        err_lines = capsys.readouterr().err.splitlines()
        assert code == EXIT_CONFIG
        assert len(err_lines) == 1
        what = option.lstrip("-")
        assert err_lines[0].startswith(f"swarmdec: {what} file {shown}: ")
        assert not (tmp_path / "d.csv").exists()


class TestSchemaFileInput:
    def test_schema_file(self, tmp_path):
        schema_path = tmp_path / "rules.txt"
        schema_path.write_text(MMm_SCHEMA)
        out = tmp_path / "d.csv"
        code = main(["drift", "--schema", str(schema_path), "--out", str(out)])
        assert code == EXIT_OK
        comments, _, _ = read_csv(out)
        assert "rules=MMm" in comments[0]
        assert "group=7" in comments[0]

    @staticmethod
    def _messy_schema(rules):
        """``rules`` as shuffled reaction text with comments, blank lines,
        both arrows and every coefficient written out, 1 included."""
        g = rules.group_size

        def side(x1, x2):
            return "+".join(f"{c}{species}" for c, species in ((x1, "X1"), (x2, "X2")) if c)

        lines = []
        for k in range(1, g):
            w = rules.signed_weight(k)
            arrow = "→" if k % 2 else "->"
            lines.append(f"  {side(k, g - k)} {arrow} {side(k + w, g - k - w)}")
        random.Random(rules.label).shuffle(lines)
        lines[1:1] = ["", "# a comment"]
        return "# rule set\n\n" + "\n".join(lines) + "\n\n"

    @pytest.mark.parametrize("rules", list(iter_rulesets(7)), ids=lambda rules: rules.label)
    def test_schema_run_matches_rules_run(self, tmp_path, capsys, rules):
        schema_path = tmp_path / "rules.txt"
        schema_path.write_text(self._messy_schema(rules))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["drift", "--schema", str(schema_path), "--out", str(a)]) == EXIT_OK
        assert main(["drift", "--rules", rules.label, "--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        capsys.readouterr()
        assert main(["rulesets", "--schema", str(schema_path)]) == EXIT_OK
        from_schema = capsys.readouterr()
        assert main(["rulesets", "--rules", rules.label]) == EXIT_OK
        assert capsys.readouterr() == from_schema
        assert from_schema.out.count("\n") == 8 * 8 - 1

    def test_schema_and_rules_conflict(self, tmp_path):
        schema_path = tmp_path / "rules.txt"
        schema_path.write_text(MMm_SCHEMA)
        code = main(
            ["drift", "--schema", str(schema_path), "--rules", "MMM", "--out",
             str(tmp_path / "d.csv")]
        )
        assert code == EXIT_CONFIG

    def test_invalid_schema_file(self, tmp_path):
        schema_path = tmp_path / "rules.txt"
        schema_path.write_text("X1+6X2 -> 7X2\n")
        code = main(
            ["drift", "--schema", str(schema_path), "--out", str(tmp_path / "d.csv")]
        )
        assert code == EXIT_CONFIG


    def test_non_utf8_schema_file(self, tmp_path, capsys):
        schema_path = tmp_path / "rules.txt"
        schema_path.write_bytes(("# r\u00e8gles\n" + MMm_SCHEMA).encode("latin-1"))
        out = tmp_path / "d.csv"
        code = main(["drift", "--schema", str(schema_path), "--out", str(out)])
        assert_config_error(code, capsys, out)

    def test_over_long_coefficient(self, tmp_path, capsys):
        schema_path = tmp_path / "rules.txt"
        schema_path.write_text(MMm_SCHEMA.replace("7X2", "1" * 5000 + "X2", 1))
        out = tmp_path / "d.csv"
        code = main(["drift", "--schema", str(schema_path), "--out", str(out)])
        assert_config_error(code, capsys, out)


class TestGridBound:
    @pytest.mark.parametrize("command", ["drift", "fixed-points"])
    @pytest.mark.parametrize("grid", [MAX_GRID + 1, 10**12])
    def test_huge_grid_rejected(self, tmp_path, capsys, command, grid):
        out = tmp_path / "g.out"
        code = main([command, "--rules", "MMm", "--grid", str(grid), "--out", str(out)])
        assert_config_error(code, capsys, out)

    @pytest.mark.parametrize("command", ["drift", "fixed-points"])
    def test_bound_itself_accepted(self, command):
        args = build_parser().parse_args(
            [command, "--rules", "MMm", "--grid", str(MAX_GRID), "--out", "g.out"]
        )
        assert resolve_config(args).grid == MAX_GRID


class TestAgentsBound:
    """``probs`` and ``--empirical`` do one table or sample per lattice
    state, so their N is capped; the analytic routes accept any odd N up to
    ``MAX_SWARM_SIZE``."""

    @pytest.mark.parametrize(
        "command",
        [["probs", "--group", "3"], ["probs", "--group", "3", "--empirical", "--samples", "10"],
         ["drift", "--rules", "M", "--empirical", "--samples", "10"]],
        ids=["probs", "probs-empirical", "drift-empirical"],
    )
    @pytest.mark.parametrize("agents", [MAX_STATE_AGENTS + 1, 10**12 + 1])
    def test_huge_swarm_rejected(self, tmp_path, capsys, command, agents):
        out = tmp_path / "a.csv"
        code = main([*command, "--agents", str(agents), "--out", str(out)])
        assert_config_error(code, capsys, out)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command", [["probs", "--group", "3"], ["drift", "--rules", "M", "--empirical"]],
        ids=["probs", "drift-empirical"],
    )
    def test_largest_odd_swarm_accepted(self, command):
        args = build_parser().parse_args([*command, "--agents", str(MAX_STATE_AGENTS - 1), "--out", "a.csv"])
        assert resolve_config(args).agents == MAX_STATE_AGENTS - 1

    @pytest.mark.parametrize(
        "command",
        [["drift", "--rules", "M"], ["fixed-points", "--rules", "M"], ["simulate", "--rules", "M"]],
        ids=["drift", "fixed-points", "simulate"],
    )
    def test_analytic_routes_accept_any_odd_swarm(self, command):
        args = build_parser().parse_args([*command, "--agents", str(10**12 + 1), "--out", "a.csv"])
        assert resolve_config(args).agents == 10**12 + 1

    def test_largest_simulated_swarm_runs(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code = main(["simulate", "--rules", "M", "--agents", str(2**63 - 1), "--events", "10",
                     "--out", str(out)])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["n_events"] == 10
        _, _, rows = read_csv(out)
        assert len(rows) == 10

    @pytest.mark.parametrize("agents", [2**63 + 1, 2**64 - 3])
    def test_simulated_swarm_above_int64_rejected(self, tmp_path, capsys, agents):
        # The urn's picks are drawn as int64: above 2**63 - 1 numpy raised,
        # or (at 2**63 + 1) silently drew from float64 bounds.
        out = tmp_path / "s.csv"
        code = main(["simulate", "--rules", "M", "--agents", str(agents), "--events", "10",
                     "--out", str(out)])
        assert_config_error(code, capsys, out)
        assert list(tmp_path.iterdir()) == []

    def test_huge_swarm_drift_runs(self, tmp_path):
        out = tmp_path / "d.csv"
        assert main(["drift", "--rules", "M", "--agents", str(10**12 + 1), "--grid", "5",
                     "--out", str(out)]) == EXIT_OK
        _, _, rows = read_csv(out)
        assert [float(z) for z, _ in rows] == [-1.0, -0.5, 0.0, 0.5, 1.0]

    @pytest.mark.parametrize("command", ["drift", "fixed-points"])
    def test_largest_swarm_runs(self, tmp_path, command):
        out = tmp_path / "d.out"
        assert main([command, "--rules", "M", "--agents", str(MAX_SWARM_SIZE), "--grid", "5",
                     "--out", str(out)]) == EXIT_OK
        assert out.exists()

    @pytest.mark.parametrize("command", ["drift", "fixed-points", "simulate"])
    @pytest.mark.parametrize("agents", [MAX_SWARM_SIZE + 2, 2**1023 + 1, 10**400 + 1])
    def test_swarm_above_the_cap_rejected(self, tmp_path, capsys, command, agents):
        # Such an N overflowed the lattice arithmetic's doubles: a traceback, exit 1.
        out = tmp_path / "a.csv"
        events = ["--events", "10"] if command == "simulate" else []
        code = main([command, "--rules", "M", "--agents", str(agents), *events, "--out", str(out)])
        assert_config_error(code, capsys, out)
        assert list(tmp_path.iterdir()) == []


#: (option, values at its bounds, values one step past them, a command that
#: takes the option, one that does not) for every option with a range.
OPTION_RANGES = [
    ("agents", [1, MAX_SWARM_SIZE], [-1, MAX_SWARM_SIZE + 2], ["drift", "--rules", "none"], ["validate"]),
    ("epsilon", [0.0, sys.float_info.max], [-5e-324, math.inf], ["drift", "--rules", "M"],
     ["rulesets", "--group", "3"]),
    ("rule-rate", [0.0, sys.float_info.max], [-5e-324, math.inf], ["simulate", "--rules", "M"],
     ["fixed-points", "--rules", "M"]),
    ("seed", [0, 10**400], [-1], ["simulate", "--rules", "M"], ["validate"]),
    ("grid", [3, MAX_GRID], [2, MAX_GRID + 1], ["fixed-points", "--rules", "M"], ["simulate", "--rules", "M"]),
    ("samples", [1, MAX_SAMPLES], [0, MAX_SAMPLES + 1], ["probs", "--group", "3", "--empirical"],
     ["fixed-points", "--rules", "M"]),
    ("events", [1, 10**400], [0], ["simulate", "--rules", "M"], ["drift", "--rules", "M"]),
    ("t-max", [5e-324, sys.float_info.max], [0.0, math.inf], ["simulate", "--rules", "M"], ["drift", "--rules", "M"]),
]


class TestOptionRanges:
    @pytest.mark.parametrize("role", ["reader", "other"])
    @pytest.mark.parametrize(
        "option, accepted, refused, reader, other", OPTION_RANGES, ids=[row[0] for row in OPTION_RANGES]
    )
    def test_bounds_accepted_and_one_step_past_refused(
        self, tmp_path, capsys, role, option, accepted, refused, reader, other
    ):
        if role == "other":
            # A command that does not take the option refuses its flag,
            # whatever the value, before any file is written.
            out = tmp_path / "o"
            for value in accepted + refused:
                assert main([*other, f"--{option}={value!r}", "--out", str(out)]) == EXIT_CONFIG
                assert f"unrecognized arguments: --{option}=" in capsys.readouterr().err
                assert not out.exists()
            return
        for value in accepted:
            resolve_config(build_parser().parse_args([*reader, f"--{option}={value!r}", "--out", "o"]))
        for value in refused:
            args = build_parser().parse_args([*reader, f"--{option}={value!r}", "--out", "o"])
            with pytest.raises(ConfigError, match=rf"^(--)?{option}\b"):
                resolve_config(args)


class TestSamplesBound:
    @pytest.mark.parametrize(
        "command", [["drift", "--rules", "M"], ["probs", "--group", "3"]], ids=["drift", "probs"]
    )
    @pytest.mark.parametrize("samples", [MAX_SAMPLES + 1, 10**20])
    def test_huge_samples_rejected(self, tmp_path, capsys, command, samples):
        out = tmp_path / "s.csv"
        code = main([*command, "--empirical", "--samples", str(samples), "--out", str(out)])
        assert_config_error(code, capsys, out)
        assert list(tmp_path.iterdir()) == []

    def test_bound_itself_accepted(self):
        args = build_parser().parse_args(
            ["probs", "--group", "3", "--empirical", "--samples", str(MAX_SAMPLES), "--out", "s.csv"]
        )
        assert resolve_config(args).samples == MAX_SAMPLES


try:
    from hypothesis import example, given, settings, strategies as st
except ImportError:  # hypothesis comes with the test extra
    st = None

if st is not None:

    def takes(command):
        """The flags, without ``--``, that ``command`` takes: its ``cli._COMMANDS`` row."""
        options = next(row for row in cli._COMMANDS if row[0] == command)[2]
        return {name.replace("_", "-") for name in options.split()}

    #: Values of the --empirical commands' flags that a run accepts (None
    #: leaves the flag out), and values that are refused or extreme; each
    #: command gets those of the flags it takes.
    FUZZ_USUAL = {
        "agents": st.none() | st.integers(1, 100).map(lambda i: 2 * i + 1),
        "rules": st.sampled_from(["none", "M", "m", "MM", "Mm", "mMm", "MMM"]),
        "epsilon": st.none() | st.floats(0.0, 1.0),
        "rule-rate": st.none() | st.floats(0.0, 2.0),
        "samples": st.integers(1, 10**4) | st.just(MAX_SAMPLES),
    }
    FUZZ_HOSTILE = {
        "agents": st.integers(-1, 201),
        "group": st.integers(-1, 9),
        "rules": st.sampled_from([None, "MMMM", "Mx", ""]),
        "epsilon": st.floats() | st.just(1e308),
        "rule-rate": st.floats() | st.sampled_from([1e308, math.nan, math.inf]),
        "samples": st.sampled_from([0, MAX_SAMPLES + 1]),
    }

    def empirical_flags(command):
        hostile = sorted(takes(command) & set(FUZZ_HOSTILE))
        return st.tuples(
            st.just(command),
            st.fixed_dictionaries({k: v for k, v in FUZZ_USUAL.items() if k in takes(command)}),
            st.lists(st.sampled_from(hostile).flatmap(
                lambda name: st.tuples(st.just(name), FUZZ_HOSTILE[name])), max_size=2),
        )

    @settings(max_examples=60, deadline=None)
    @given(case=st.sampled_from(["probs", "drift"]).flatmap(empirical_flags), seed=st.integers(0, 2**32))
    def test_empirical_flags_exit_0_or_2(case, seed):
        # Any combination of the --empirical commands' flags runs or is
        # refused by one "swarmdec:" line, without a traceback, a warning or
        # a file left behind; a refused run writes nothing.
        command, flags, hostile = case
        flags = {**flags, **dict(hostile), "seed": seed}
        argv = [command, "--empirical"]
        argv += [f"--{name}={value}" for name, value in flags.items() if value is not None]
        with tempfile.TemporaryDirectory() as tmp:
            stderr = io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stderr(stderr):
                warnings.simplefilter("error")
                code = main([*argv, "--out", os.path.join(tmp, "out.csv")])
            written = sorted(os.listdir(tmp))
        err_lines = stderr.getvalue().splitlines()
        if code == EXIT_OK:
            assert err_lines == []
            assert written == ["out.csv", "out.empirical.csv"]
        else:
            assert code == EXIT_CONFIG
            assert len(err_lines) == 1 and err_lines[0].startswith("swarmdec: ")
            assert written == []

    #: Random JSON: scalars, some of them usual option values, and lists and
    #: objects nesting them.
    JSON_VALUES = st.recursive(
        st.none() | st.booleans() | st.floats() | st.text(max_size=12)
        | st.integers(-3, 203) | st.sampled_from([2**31, 2**63 + 1, 10**20 + 1, 10**400])
        | st.sampled_from(["none", "M", "Mm", "MMm", "mMmM", "Mx"]),
        lambda children: st.lists(children, max_size=3)
        | st.dictionaries(st.text(max_size=6), children, max_size=3),
        max_leaves=6,
    )
    #: Names relative to the working directory (no "/"), or any other value.
    FILE_NAMES = (
        st.sampled_from(["ok.csv", "plot.gp", "", ".", "missing/x.csv", "a\x00b", "a\ud800b"])
        | st.text(max_size=12).map(lambda text: text.replace("/", "_"))
        | JSON_VALUES.filter(lambda value: not isinstance(value, str))
    )
    #: Per config key, values that a run accepts.
    USUAL = {
        "agents": st.integers(1, 100).map(lambda i: 2 * i + 1),
        "group": st.sampled_from([3, 5, 7, 9]),
        "epsilon": st.floats(0.0, 1.0),
        "rule_rate": st.floats(0.0, 2.0),
        "seed": st.integers(0, 2**32),
        "plot_script": st.just("plot.gp"),
        "grid": st.integers(3, 2001),
        "samples": st.integers(1, 1000),
        "empirical": st.booleans(),
    }

    def hostile_value(key):
        # Random JSON, where ``group`` stays at most 9 (``rulesets`` lists
        # 2**((G-1)/2) rule sets); ``grid`` is at most 2001 or refused.
        if key in ("out", "plot_script", "schema"):
            value = FILE_NAMES
        elif key == "group":
            value = JSON_VALUES.filter(lambda value: not isinstance(value, int) or value <= 9)
        else:
            value = JSON_VALUES
        return st.tuples(st.just(key), value)

    #: Config files: usual values for ``rules``, ``out`` and some other keys,
    #: overridden or joined by up to two random known or unknown keys; or
    #: text that need not be JSON.
    CONFIG_TEXTS = st.text(max_size=40) | st.builds(
        lambda usual, hostile: json.dumps({**usual, **dict(hostile)}),
        st.fixed_dictionaries(
            {"rules": st.sampled_from(["none", "M", "Mm", "MMm", "mMmM"]),
             "out": st.sampled_from(["ok.csv", "ok"])},
            optional=USUAL,
        ),
        st.lists(st.sampled_from([*_CONFIG_KEYS, "unknown"]).flatmap(hostile_value), max_size=2),
    )

    @settings(max_examples=150, deadline=None)
    @given(command=st.sampled_from(["drift", "fixed-points", "rulesets"]), text=CONFIG_TEXTS)
    @example(command="drift", text=json.dumps({"rules": "MMm", "out": "a\x00b"}))
    @example(command="drift", text=json.dumps({"rules": "MMm", "out": "ok.csv", "plot_script": "a\x00b"}))
    @example(command="drift", text=json.dumps({"schema": "a\x00b", "out": "ok.csv"}))
    @example(command="fixed-points", text=json.dumps({"rules": "M", "out": "a\x00b"}))
    @example(command="rulesets", text=json.dumps({"group": 3, "out": "a\x00b"}))
    @example(command="drift", text=json.dumps({"rules": "MMm", "out": "ok.csv", "epsilon": 10**400}))
    def test_config_files_exit_0_2_3_or_4(command, text):
        # Any config file runs, or is refused by one "swarmdec:" line and no
        # traceback; only whole outputs named by the file are left behind,
        # and none at all by a refused run.
        with tempfile.TemporaryDirectory() as tmp:
            config, work = Path(tmp, "run.json"), Path(tmp, "work")
            config.write_text(text, encoding="utf-8")
            work.mkdir()
            stderr, cwd = io.StringIO(), os.getcwd()
            os.chdir(work)
            try:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                    code = main([command, "--config", str(config)])
            finally:
                os.chdir(cwd)
            written = set(os.listdir(work))
        err_lines = stderr.getvalue().splitlines()
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_IO, EXIT_VALIDATION)
        assert len(err_lines) == (code != EXIT_OK)
        assert all(line.startswith("swarmdec: ") for line in err_lines)
        try:
            named = json.loads(text)
        except ValueError:
            named = {}
        names = [named.get(key) for key in ("out", "plot_script")] if isinstance(named, dict) else []
        outputs = {name for name in names if isinstance(name, str)}
        outputs |= {str(cli._empirical_path(Path(name))) for name in outputs}
        assert written <= outputs
        if code == EXIT_CONFIG:
            assert written == set()

    #: Per command, the flags it needs and values for them that a run accepts.
    #: ``simulate`` always gets at most 10**4 events, so that every run ends.
    NEEDED_FLAGS = {
        "drift": {"rules": st.sampled_from(["none", "M", "m", "Mm", "mMm", "MMMM"])},
        "probs": {"group": st.sampled_from([3, 5, 7, 9])},
        "simulate": {"rules": st.sampled_from(["none", "M", "Mm", "mMm"]), "events": st.integers(1, 10**4)},
        "fixed-points": {"rules": st.sampled_from(["none", "M", "mM", "MmM", "MMMM"])},
        "rulesets": {"group": st.sampled_from([3, 5, 7, 9])},
        "validate": {},
    }
    #: Further flags and values that a run accepts; each command gets those
    #: of the flags it takes.
    USUAL_FLAGS = {
        "agents": st.integers(4, 100).map(lambda i: 2 * i + 1),
        "epsilon": st.floats(0.0, 1.0),
        "rule-rate": st.floats(0.0, 2.0),
        "seed": st.integers(0, 2**64),
        "grid": st.integers(3, 2001),
        "samples": st.integers(1, 1000),
        "t-max": st.floats(1e-3, 1e3),
        "empirical": st.booleans(),
        "init-z": st.floats(-1.0, 1.0),
        "init-k": st.integers(0, 9),
        "stop-at-consensus": st.booleans(),
        "elide-nulls": st.booleans(),
    }
    #: Values that are refused or extreme, among them swarm sizes whose
    #: lattice arithmetic overflows a double.  ``group`` stays at most 9 or
    #: above any swarm size.
    HOSTILE_FLAGS = {
        "agents": st.sampled_from([-1, 0, 1, 100, 2**1022 + 1, 2**1023 + 1, 10**400 + 1]),
        "group": st.integers(-1, 9) | st.just(10**400 + 1),
        "rules": st.sampled_from(["MMMM", "Mx", ""]),
        "epsilon": st.floats(),
        "rule-rate": st.floats() | st.just(1e308),
        "seed": st.sampled_from([-1, 10**400]),
        "grid": st.sampled_from([-1, 2, MAX_GRID + 1, 10**400]),
        "samples": st.sampled_from([0, MAX_SAMPLES + 1]),
        "events": st.sampled_from([-1, 0]),
        "t-max": st.floats(),
        "init-z": st.floats(),
        "init-k": st.integers(-1, 300),
    }
    ALL_FLAGS = sorted(name.replace("_", "-") for name, *_ in cli._OPTIONS)
    BOOL_FLAGS = {name.replace("_", "-") for name, kind, *_ in cli._OPTIONS if kind is bool}

    def command_flags(command):
        usual = {k: v for k, v in USUAL_FLAGS.items() if k in takes(command)}
        hostile = sorted(takes(command) & set(HOSTILE_FLAGS))
        return st.tuples(
            st.just(command),
            st.fixed_dictionaries(NEEDED_FLAGS[command], optional=usual),
            st.lists(st.sampled_from(hostile).flatmap(
                lambda name: st.tuples(st.just(name), HOSTILE_FLAGS[name])), max_size=2)
            if hostile else st.just([]),
            # At most one flag that the command does not take.
            st.lists(st.sampled_from([flag for flag in ALL_FLAGS if flag not in takes(command)]), max_size=1),
        )

    @settings(max_examples=150, deadline=None)
    @given(case=st.sampled_from(sorted(NEEDED_FLAGS)).flatmap(command_flags))
    @example(case=("drift", {"rules": "M"}, [("agents", 2**1023 + 1)], []))
    @example(case=("fixed-points", {"rules": "M"}, [("agents", 2**1023 + 1)], []))
    @example(case=("drift", {"rules": "M"}, [("agents", 10**400 + 1)], []))
    @example(case=("simulate", {"rules": "M", "events": 10}, [("agents", 10**400 + 1)], []))
    @example(case=("fixed-points", {"rules": "MMM"}, [], ["plot-script"]))
    @example(case=("simulate", {"rules": "M", "events": 10}, [], ["empirical"]))
    def test_command_flags_exit_0_2_3_or_4(case):
        # Any combination of a command's flags runs, or is refused by one
        # "swarmdec:" line, without a traceback, a warning, or a temp or
        # partial file left behind.  A flag that the command does not take
        # is refused with usage, and nothing is written.
        command, flags, hostile, foreign = case
        argv = [command]
        for name, value in {**flags, **dict(hostile)}.items():
            if isinstance(value, bool):
                argv.append(f"--{'' if value else 'no-'}{name}")
            else:
                argv.append(f"--{name}={value}")
        argv += [f"--{name}" if name in BOOL_FLAGS else f"--{name}=1" for name in foreign]
        with tempfile.TemporaryDirectory() as tmp:
            stderr = io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(stderr):
                warnings.simplefilter("error")
                code = main([*argv, "--out", os.path.join(tmp, "out")])
            written = sorted(os.listdir(tmp))
        err_lines = stderr.getvalue().splitlines()
        if foreign:
            assert code == EXIT_CONFIG and written == []
            assert err_lines[0].startswith(f"usage: swarmdec {command} ")
            assert err_lines[-1].startswith(f"swarmdec {command}: error: unrecognized arguments: --{foreign[0]}")
            return
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_IO, EXIT_VALIDATION)
        assert len(err_lines) == (code in (EXIT_CONFIG, EXIT_IO))
        assert all(line.startswith("swarmdec: ") for line in err_lines)
        empirical = command in ("drift", "probs") and flags.get("empirical")
        outputs = ["out", "out.empirical.csv"] if empirical else ["out"]
        assert written == (outputs if code in (EXIT_OK, EXIT_VALIDATION) else [])


#: (case, sha256 of the CSV, JSON summary line, arguments) of seeded
#: ``simulate`` runs.  They pin the SSA's RNG stream, where each run stops,
#: the CSV bytes and the summary, for every stopping bound, null elision,
#: the noise-only system, starts at consensus and 16-bit columns (N > 255).
SIMULATE_OUTPUTS = [
    ("events", "bcec4254c613e919d64d8bb1373bdcfd43c373677734e425261241897933512a",
     '{"event_counts": {"noise12": 891, "noise21": 897, "null": 253, "rule": 17959}, '
     '"final_count_x1": 52, "final_time": 356.76580230416204, "final_z": 0.02970297029702973, '
     '"n_events": 20000, "seed": 5}',
     ["--agents", "101", "--rules", "Mmm", "--epsilon", "0.1", "--events", "20000",
      "--init-z", "0", "--seed", "5"]),
    ("t_max", "69acf6a07ee83152165a0405dc261fd7fbbfa2a6c6328e6e9c36bbf23b83c477",
     '{"event_counts": {"noise12": 701, "noise21": 760, "null": 230, "rule": 14705}, '
     '"final_count_x1": 55, "final_time": 299.9965691886838, "final_z": 0.08910891089108919, '
     '"n_events": 16396, "seed": 11}',
     ["--rules", "Mmm", "--epsilon", "0.1", "--t-max", "300", "--seed", "11"]),
    ("stop_at_consensus", "6e3a4e124a8038fffed40593e7e0df32e258d1b2f4fbfbfa42560f5b03628b4b",
     '{"event_counts": {"noise12": 0, "noise21": 0, "null": 51, "rule": 114}, '
     '"final_count_x1": 101, "final_time": 3.6127260165825605, "final_z": 1.0, '
     '"n_events": 165, "seed": 3}',
     ["--rules", "MMm", "--init-k", "51", "--stop-at-consensus", "--seed", "3"]),
    ("elide_nulls", "dab04425a6f0b7a0236cf3654623cf29e04e1d7f2226fa6bc7d72b5b0cd14bd9",
     '{"event_counts": {"noise12": 0, "noise21": 0, "null": 99934, "rule": 66}, '
     '"final_count_x1": 101, "final_time": 1986.5599209885559, "final_z": 1.0, '
     '"n_events": 100000, "seed": 7}',
     ["--rules", "MMM", "--epsilon", "0", "--events", "100000", "--seed", "7",
      "--init-z", "0.0099", "--elide-nulls"]),
    ("rules_none", "0139b534ceaf58c77e8143be03ffd25525d2207d9cf32022592281e60ce81750",
     '{"event_counts": {"noise12": 2507, "noise21": 2493, "null": 0, "rule": 0}, '
     '"final_count_x1": 37, "final_time": 496.41612819463256, "final_z": -0.26732673267326734, '
     '"n_events": 5000, "seed": 9}',
     ["--rules", "none", "--epsilon", "0.2", "--events", "5000", "--seed", "9"]),
    ("at_consensus", "39835b91c295eb8f71e28c910729d6575fcad0ea6453c5892b1644c2e1110e55",
     '{"event_counts": {"noise12": 0, "noise21": 0, "null": 3000, "rule": 0}, '
     '"final_count_x1": 101, "final_time": 59.83308666673695, "final_z": 1.0, '
     '"n_events": 3000, "seed": 4}',
     ["--rules", "MMM", "--init-k", "101", "--events", "3000", "--seed", "4"]),
    ("at_consensus_stop", "fe5eb986ed084960f35e9c3d75ed3edd011ab3dfa464fd29991ebae94031a86f",
     '{"event_counts": {"noise12": 0, "noise21": 0, "null": 0, "rule": 0}, '
     '"final_count_x1": 0, "final_time": 0.0, "final_z": -1.0, "n_events": 0, "seed": 4}',
     ["--rules", "MMM", "--init-k", "0", "--stop-at-consensus", "--seed", "4"]),
    ("wide_columns", "20d261c27ee3ad7644db820159b8cd72e2fa2a44739110de38d3cb1e8ac9a99d",
     '{"event_counts": {"noise12": 7, "noise21": 241, "null": 10807, "rule": 945}, '
     '"final_count_x1": 3, "final_time": 23.500391867562698, "final_z": -0.994005994005994, '
     '"n_events": 12000, "seed": 13}',
     ["--agents", "1001", "--rules", "Mm", "--epsilon", "0.02", "--events", "12000",
      "--init-k", "300", "--seed", "13", "--elide-nulls"]),
    # Times that '%.17g' writes with an exponent, from 1e16 up and below
    # 1e-4, and large ones it writes without.
    ("huge_times", "1793b80eb7209189a049654da7c68ff43c20d2e96864731e6740c10e4a8a423f",
     '{"event_counts": {"noise12": 0, "noise21": 0, "null": 54, "rule": 2946}, '
     '"final_count_x1": 55, "final_time": 2.9542847788060104e+21, "final_z": 0.08910891089108919, '
     '"n_events": 3000, "seed": 24}',
     ["--rules", "Mmm", "--epsilon", "0", "--rule-rate", "1e-20", "--events", "3000",
      "--seed", "24"]),
    ("tiny_times", "be80f0f6f8fabaf29c66a41d4f31c20b9c85089ed6f045f28c9a608c96892bd0",
     '{"event_counts": {"noise12": 0, "noise21": 0, "null": 49, "rule": 2951}, '
     '"final_count_x1": 52, "final_time": 0.006045755093807756, "final_z": 0.02970297029702973, '
     '"n_events": 3000, "seed": 25}',
     ["--rules", "Mmm", "--epsilon", "0.1", "--rule-rate", "5000", "--events", "3000",
      "--seed", "25"]),
    ("large_times", "b5fecfdedbf411966f7a6059b9dfe4f1a41e0aae5426e9d14baab1af396d5692",
     '{"event_counts": {"noise12": 0, "noise21": 0, "null": 50, "rule": 2950}, '
     '"final_count_x1": 45, "final_time": 29911574193.041756, "final_z": -0.1089108910891089, '
     '"n_events": 3000, "seed": 23}',
     ["--rules", "Mmm", "--epsilon", "0", "--rule-rate", "1e-9", "--events", "3000",
      "--seed", "23"]),
]


class TestSimulateGoldenOutputs:
    @pytest.mark.parametrize(
        "name, digest, summary, args", SIMULATE_OUTPUTS,
        ids=[name for name, _, _, _ in SIMULATE_OUTPUTS],
    )
    def test_seeded_run_bytes(self, tmp_path, monkeypatch, capsys, name, digest, summary, args):
        monkeypatch.delenv("SWARMDEC_SEED", raising=False)
        out = tmp_path / "run.csv"
        assert main(["simulate", *args, "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == summary + "\n"
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


#: Runs ``cli.main(argv)`` in a fresh interpreter; prints the exit code and
#: whether numpy was imported, as the last line of standard output.
_NUMPY_PROBE = """\
import json, sys
from swarmdec import cli
code = cli.main(json.loads(sys.argv[1]))
print(json.dumps([code, "numpy" in sys.modules]))
"""


def _fresh_run(code: str, *args: str, cwd: Path) -> str:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    result = subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return result.stdout.splitlines()[-1]


class TestNumpyOnlyWhenSampling:
    """Only ``simulate`` imports numpy; the samplers of ``--empirical`` run
    on the standard library."""

    def test_import_leaves_numpy_out(self, tmp_path):
        probe = "import sys, swarmdec, swarmdec.cli; print('numpy' in sys.modules)"
        assert _fresh_run(probe, cwd=tmp_path) == "False"

    @pytest.mark.parametrize(
        "argv, code, numpy",
        [
            (["--version"], EXIT_OK, False),
            (["drift", "--rules", "MMm", "--out", "d.csv"], EXIT_OK, False),
            (["drift", "--schema", "schema.txt", "--out", "d.csv"], EXIT_OK, False),
            (["fixed-points", "--rules", "MMM", "--out", "fp.json"], EXIT_OK, False),
            (["probs", "--group", "5", "--out", "p.csv"], EXIT_OK, False),
            (["rulesets", "--group", "5"], EXIT_OK, False),
            (["validate"], EXIT_OK, False),
            (["drift", "--agents", "100", "--rules", "M", "--out", "d.csv"], EXIT_CONFIG, False),
            (["simulate", "--rules", "MMM", "--events", "100", "--out", "s.csv"], EXIT_OK, True),
            (["drift", "--rules", "M", "--agents", "11", "--empirical", "--samples", "10",
              "--out", "d.csv"], EXIT_OK, False),
            (["probs", "--group", "3", "--agents", "11", "--empirical", "--samples", "10",
              "--out", "p.csv"], EXIT_OK, False),
        ],
        ids=lambda value: " ".join(value) if isinstance(value, list) else None,
    )
    def test_fresh_process(self, tmp_path, argv, code, numpy):
        (tmp_path / "schema.txt").write_text(MMm_SCHEMA)
        last = _fresh_run(_NUMPY_PROBE, json.dumps(argv), cwd=tmp_path)
        assert json.loads(last) == [code, numpy]


#: Imports ``swarmdec.cli`` in a fresh interpreter and runs ``cli.main`` on
#: the arguments, if any; prints the exit code, then those of ``dataclasses``,
#: ``inspect`` and ``json`` that were loaded after the interpreter started.
_STARTUP_PROBE = """\
import sys
before = set(sys.modules)
from swarmdec import cli
code = cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(code, *sorted({"dataclasses", "inspect", "json"} & set(sys.modules) - before))
"""


class TestStartup:
    def test_import_loads_no_process_modules(self, tmp_path):
        # The simulate pipeline forks with os.fork/os.pipe alone, so the other
        # commands do not pay for importing subprocess or multiprocessing.
        probe = (
            "import sys, swarmdec.cli;"
            "print(sorted({'subprocess', 'multiprocessing'} & set(sys.modules)))"
        )
        assert _fresh_run(probe, cwd=tmp_path) == "[]"

    @pytest.mark.parametrize(
        "argv",
        [[], ["drift", "--rules", "MMm", "--out", "d.csv"], ["probs", "--group", "5", "--out", "p.csv"],
         ["rulesets", "--group", "5"]],
        ids=["import", "drift", "probs", "rulesets"],
    )
    def test_lean_commands_load_no_dataclasses_inspect_or_json(self, tmp_path, argv):
        # The records are plain classes and json is imported where it is used.
        assert _fresh_run(_STARTUP_PROBE, *argv, cwd=tmp_path) == "0"

    @pytest.mark.parametrize(
        "argv",
        [["fixed-points", "--rules", "MMM", "--out", "fp.json"], ["validate"],
         ["simulate", "--rules", "MMM", "--events", "100", "--out", "s.csv"],
         ["drift", "--config", "cfg.json"]],
        ids=["fixed-points", "validate", "simulate", "config"],
    )
    def test_json_commands_succeed_in_a_fresh_process(self, tmp_path, argv):
        (tmp_path / "cfg.json").write_text('{"rules": "MMm", "out": "d.csv"}')
        code, *loaded = _fresh_run(_STARTUP_PROBE, *argv, cwd=tmp_path).split()
        assert code == "0" and "json" in loaded


def test_readme_documents_every_option():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command-line interface", 1)[1].split("\n## ", 1)[0]
    flags = {f"--{name.replace('_', '-')}" for name, *_ in cli._OPTIONS}
    assert {flag for flag in flags if not re.search(rf"`{flag}\b", section)} == set()


class TestArgparseBehaviour:
    def test_resolved_config_is_read_only(self):
        cfg = resolve_config(build_parser().parse_args(["drift", "--rules", "MMm", "--out", "d.csv"]))
        with pytest.raises(AttributeError):
            cfg.agents = 11
        assert cfg == resolve_config(build_parser().parse_args(["drift", "--rules", "MMm", "--out", "d.csv"]))

    def test_unknown_command(self):
        assert main(["frobnicate"]) == EXIT_CONFIG

    def test_unknown_flag(self, capsys):
        assert main(["drift", "--definitely-not-a-flag"]) == EXIT_CONFIG
        # Refused under the command's usage, which lists what it does take.
        err_lines = capsys.readouterr().err.splitlines()
        assert err_lines[0].startswith("usage: swarmdec drift [-h] [--agents AGENTS]")
        assert err_lines[-1] == "swarmdec drift: error: unrecognized arguments: --definitely-not-a-flag"

    def test_flags_and_config_keys(self):
        assert _CONFIG_KEYS == {
            "agents": int, "group": int, "rules": str, "schema": str, "epsilon": float,
            "rule_rate": float, "seed": int, "out": str, "grid": int, "samples": int,
            "events": int, "t_max": float, "empirical": bool, "init_z": float,
            "init_k": int, "stop_at_consensus": bool, "elide_nulls": bool,
            "plot_script": str,
        }
        # Each command takes an option when its value can change what the
        # command writes, prints or refuses.
        takes = {
            "drift": "agents group rules schema epsilon rule_rate seed out grid samples empirical config "
                     "plot_script",
            "probs": "agents group rules schema seed out samples empirical config plot_script",
            "simulate": "agents group rules schema epsilon rule_rate seed out events t_max config "
                        "plot_script init_z init_k stop_at_consensus elide_nulls",
            "fixed-points": "agents group rules schema epsilon seed out grid config",
            "rulesets": "agents group rules schema out config",
            "validate": "out config",
        }
        assert [row[0] for row in cli._COMMANDS] == list(takes)
        for command, options in takes.items():
            assert set(vars(build_parser().parse_args([command]))) == {"command", *options.split()}


#: sha256 of each ``--help`` screen at 80 columns, which pins every flag,
#: help line and the command list.  argparse lays screens out differently
#: from one Python version to the next; these are Python 3.11's.
HELP_SCREENS = {
    "": "5e4278d73e7eb6612db91dfb9dfdf012ed0de5a172792b2a8c889e72aab356f0",
    "drift": "604067fd3246d993dbba4f828c9a0a0a699141c216531963f81ee1258f8fd3f4",
    "probs": "e98d3196dc45434ce78e4bcaf1a81d39ff7a743e7a04066a87eea7050db12cde",
    "simulate": "be23507fd1c38d3ab26f5323f8337ef4affcec3c30281001f0a189f9e2399b37",
    "fixed-points": "6e31e4e63fe690822ad908ba2a9372de3524df101308e4bd1f779cccf8e65aca",
    "rulesets": "b174ad4c307321403e14373f9e4ad9313c3dbd678396413ad7427bc578cd9c54",
    "validate": "f0949119c612037d184c87296700cb9027b4e6c2281c36ee28de59c6b741cb16",
}


@pytest.mark.parametrize(
    "command, cap",
    [("drift", "2**1022 - 1, or 10000000 with --empirical"), ("probs", "10000000"),
     ("simulate", "9223372036854775807"), ("fixed-points", "2**1022 - 1"), ("rulesets", "2**1022 - 1")],
)
def test_agents_help_states_the_command_cap(command, cap, capsys):
    # Every command's help used to list the caps of probs and simulate.
    assert main([command, "--help"]) == EXIT_OK
    assert f"--agents AGENTS swarm size N, odd and at most {cap} (default 101)" in " ".join(
        capsys.readouterr().out.split())


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="screens recorded with Python 3.11")
@pytest.mark.parametrize("command", list(HELP_SCREENS), ids=[c or "top" for c in HELP_SCREENS])
def test_help_screen_is_pinned(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert main([command, "--help"] if command else ["--help"]) == EXIT_OK
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == HELP_SCREENS[command]
