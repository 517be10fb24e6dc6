"""Command-line front end: run experiments, write data files.

Subcommands
-----------
drift         analytic (and optionally Monte Carlo) dz/dt curve -> CSV
probs         rule firing probabilities per lattice state -> CSV
simulate      one Gillespie run -> trajectory CSV + JSON summary on stdout
fixed-points  zeros of the drift curve with stability -> JSON
rulesets      every rule set for a group size, with canonical reactions
validate      the cross-checks of ``drift.validation_checks`` -> JSON

Every output file starts with a provenance comment line recording the
package version and the resolved configuration, and all commands are
deterministic given identical flags (including the seed).  Exit codes:
0 success, 2 configuration error, 3 I/O error (also when the simulating
process of ``simulate`` fails or dies), 4 validation failure, 130
interrupted (Ctrl-C; 128 + SIGINT, as a shell reports it).

``simulate`` runs the simulation in a forked process
(:func:`_simulation_process`), which pickles the column block of each
batch of events up a pipe; this process formats each block as it arrives
and writes it, so memory does not grow with ``--events``.  This needs
``os.fork`` (POSIX).  Every command writes its output through
:func:`_write_text`, a line at a time (:func:`_write_lines`), so the file
handle's buffer bounds what a write holds.

A process compiles and runs only the modules its command uses: ``drift``,
``hypergeom``, ``schema`` and ``ssa`` are lazy module handles, which load
on first use, and :func:`main` builds the options of the named command
alone.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import operator
import os
import stat
import sys
import tempfile
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator

from . import __version__, _lazy_submodule
from .model import (
    MAX_AGENTS,
    MAX_SAMPLES,
    NoiseSpec,
    RuleSet,
    SwarmState,
    _Record,
    check_group_size,
    check_swarm_size,
    iter_rulesets,
    lattice_z,
    parse_polarity_string,
    state_of_z,
)

drift, hypergeom, schema, ssa = map(_lazy_submodule, ("drift", "hypergeom", "schema", "ssa"))

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_VALIDATION = 4

SEED_ENV_VAR = "SWARMDEC_SEED"
#: Largest ``--grid``: time grows with the grid (see README).
MAX_GRID = 10_000_000
#: Largest ``--agents`` of ``probs`` and ``--empirical``, whose work is one
#: table or sample per lattice state ``K = 0..N`` (see README).
MAX_STATE_AGENTS = 10_000_000
#: Event bound of ``simulate`` when neither ``--events`` nor ``--t-max`` is given.
DEFAULT_EVENTS = 100_000

#: Every command as ``(name, help, options it takes, required options, own
#: defaults)``, in ``--help`` order; ``cmd_<name>`` runs it.  A command takes
#: an option when its value can change what the command writes (the
#: provenance line included), prints or refuses.
_COMMANDS = (
    ("drift", "write the dz/dt vs z curve as CSV", "agents group rules schema epsilon rule_rate seed out grid samples empirical config plot_script", ("rules", "out"), {}),
    ("probs", "write rule firing probabilities per state as CSV", "agents group rules schema seed out samples empirical config plot_script", ("group", "out"), {"samples": 1_000_000}),
    ("simulate", "run one Gillespie simulation, write the trajectory CSV", "agents group rules schema epsilon rule_rate seed out events t_max config plot_script "
     "init_z init_k stop_at_consensus elide_nulls", ("rules", "out"), {}),
    ("fixed-points", "locate drift zeros and their stability, write JSON", "agents group rules schema epsilon seed out grid config", ("rules", "out"), {"grid": 2001}),
    ("rulesets", "list every rule set for a group size", "agents group rules schema out config", ("group",), {}),
    ("validate", "run internal cross-checks, write a JSON report", "out config", (), {}),
)


def _check_file_name(path: str) -> None:
    """ValueError if no file can have the name ``path``: it holds a NUL or a
    character that the file-system encoding cannot encode."""
    with contextlib.suppress(UnicodeEncodeError):
        if b"\0" not in os.fsencode(path):
            return
    raise ValueError(f"not a usable file name: {path!r}")


#: The largest ``--agents`` of each command whose cap is not the swarm's own.
_AGENTS_CAPS = {
    "drift": f"2**1022 - 1, or {MAX_STATE_AGENTS} with --empirical",
    "probs": str(MAX_STATE_AGENTS),
    "simulate": str(MAX_AGENTS),
}


#: Every experiment option as ``(name, type, help, default, check)``: the
#: flag ``--name`` and, unless the type is None (``--config`` itself), the
#: config file key ``name``.  ``check`` is None, a function that raises
#: ValueError, or bounds ``((op, bound), ...)``; a float must also be
#: finite.  Listed in ``--help`` order; ``{agents_cap}`` in a help text is
#: the command's ``--agents`` cap.
_OPTIONS = (
    ("agents", int, "swarm size N, odd and at most {agents_cap} (default 101)", 101, check_swarm_size),
    ("group", int, "group size G, odd (inferred from --rules when omitted); rulesets lists 2**((G-1)/2) rule sets", None, None),
    ("rules", str, "polarity string such as MMm, or 'none' for the noise-only system", None, None),
    ("schema", str, "path to a reaction schema file (alternative to --rules)", None, _check_file_name),
    ("epsilon", float, "noise level (default 0)", 0.0, ((">=", 0),)),
    ("rule_rate", float, "group interaction rate per agent (default 0.5)", 0.5, ((">=", 0),)),
    ("seed", int, f"RNG seed (default ${SEED_ENV_VAR} or 0)", 0, ((">=", 0),)),
    ("out", str, "output file path", None, _check_file_name),
    ("grid", int, f"number of z grid points, 3 to {MAX_GRID}", 201, ((">=", 3), ("<=", MAX_GRID))),
    ("samples", int, f"Monte Carlo samples per state, 1 to {MAX_SAMPLES}", 100_000, ((">=", 1), ("<=", MAX_SAMPLES))),
    ("events", int, f"maximum number of simulated events (default {DEFAULT_EVENTS} without --t-max)", None, ((">=", 1),)),
    ("t_max", float, "maximum simulated time", None, ((">", 0),)),
    ("empirical", bool, "also write a Monte Carlo estimate to a sibling .empirical.csv file", False, None),
    ("config", None, "JSON file keyed by option names; flags take precedence, and keys this command does not take are ignored", None, _check_file_name),
    ("plot_script", str, "also write a gnuplot script for the output file", None, _check_file_name),
    ("init_z", float, "initial order parameter (default 0)", 0.0, None),
    ("init_k", int, "initial X1 count (alternative to --init-z)", None, None),
    ("stop_at_consensus", bool, "stop as soon as |z| = 1", False, None),
    ("elide_nulls", bool, "do not record null draws (time still advances)", False, None),
)

_CONFIG_KEYS = {name: kind for name, kind, *_ in _OPTIONS if kind is not None}
_CHECKS = {name: (kind, check) for name, kind, *_, check in _OPTIONS if check is not None}
_COMPARISONS = {">=": operator.ge, ">": operator.gt, "<=": operator.le}


class ConfigError(Exception):
    """Inconsistent or incomplete experiment configuration."""


class ExperimentConfig(_Record):
    command: str
    agents: int
    group: int | None
    rules: RuleSet | None
    rules_label: str | None  # "none" for the noise-only system
    noise: NoiseSpec
    rule_rate: float  # the effective rate: 0 for the noise-only system
    seed: int
    out: Path | None
    grid: int
    samples: int
    events: int | None
    t_max: float | None
    empirical: bool
    initial: SwarmState | None
    stop_at_consensus: bool
    elide_nulls: bool
    plot_script: Path | None


class _CommandParser(argparse.ArgumentParser):
    """The parser of one command, which refuses a flag it does not take
    under its own usage, not the top-level one."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return namespace, extra


def build_parser(commands: Iterable[str] | None = None) -> argparse.ArgumentParser:
    """The parser of every command, with the options of those in
    ``commands`` (all by default); the others parse none."""
    parser = argparse.ArgumentParser(
        prog="swarmdec",
        description="Collective decision-making swarm experiments.",
    )
    parser.add_argument("--version", action="version", version=f"swarmdec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    for command, command_help, takes, _, _ in _COMMANDS:
        target, takes = sub.add_parser(command, help=command_help), takes.split()
        if commands is not None and command not in commands:
            continue
        agents_cap = _AGENTS_CAPS.get(command, "2**1022 - 1")
        for name, kind, help_text, _, _ in _OPTIONS:
            if name in takes:
                how = {"action": argparse.BooleanOptionalAction} if kind is bool else {"type": kind}
                target.add_argument(
                    f"--{name.replace('_', '-')}", help=help_text.format(agents_cap=agents_cap), **how
                )
    return parser


def _printed_name(path: str) -> str:
    """``path`` as error messages print it: each control character is
    escaped as in ``repr``, so that the message stays on one line."""
    return "".join(repr(ch)[1:-1] if ch < " " or "\x7f" <= ch <= "\x9f" else ch for ch in path)


def _read_utf8(path: str, what: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{what} {_printed_name(path)}: not UTF-8 text ({exc})") from exc


def _load_config_file(path: str) -> dict:
    """The keys of a config file, each of its option's type; a JSON integer
    for a float option is converted as ``float()`` converts it."""
    import json

    _check_option("config", path)
    text = _read_utf8(path, "config file")
    name = _printed_name(path)
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad syntax, too many digits, too deep
        raise ConfigError(f"config file {name}: invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {name}: expected a JSON object")
    for key, value in data.items():
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"config file {name}: unknown key {key!r}")
        expected = _CONFIG_KEYS[key]
        if expected is float and type(value) is int:
            try:
                value = data[key] = float(value)
            except OverflowError:
                raise ConfigError(f"config file {name}: key {key!r} is too large for a float") from None
        # bool is an int subclass, but true and false are no numbers here.
        if not isinstance(value, expected) or (isinstance(value, bool) and expected is not bool):
            raise ConfigError(f"config file {name}: key {key!r} must be {expected.__name__}")
    return data


def _check_option(name: str, value) -> None:
    """ConfigError unless ``value`` passes the check of the option ``name``."""
    kind, check = _CHECKS[name]
    flag = f"--{name.replace('_', '-')}"
    if callable(check):
        try:
            check(value)
        except ValueError as exc:
            raise ConfigError(f"{flag}: {exc}") from exc
        return
    for op, bound in check:
        if not (_COMPARISONS[op](value, bound) and (kind is int or math.isfinite(value))):
            # A seed can come from the environment, so its message names no flag.
            label = "seed" if name == "seed" else flag
            finite = "finite and " if kind is float else ""
            raise ConfigError(f"{label} must be {finite}{op} {bound}, got {value}")


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    """Merge flags, config file, environment and defaults; validate.

    Each option that the command takes is taken from its flag, else the
    config file, else (the seed only) ``$SWARMDEC_SEED``, else the command's
    default, else its own, and checked; then the rules that tie options
    together apply.  Every other option keeps its own default.
    """
    command = args.command
    _, _, takes, requires, own_defaults = next(row for row in _COMMANDS if row[0] == command)
    takes = takes.split()
    file_cfg = _load_config_file(args.config) if args.config else {}

    values, given = {}, set()
    for name, kind, _, default, _ in _OPTIONS:
        if name not in takes or kind is None:
            values[name] = default
            continue
        value = getattr(args, name)
        if value is None:
            value = file_cfg.get(name)
        if value is not None:
            given.add(name)
        elif name == "seed" and SEED_ENV_VAR in os.environ:
            raw = os.environ[SEED_ENV_VAR]
            try:
                value = int(raw)
            except ValueError:
                raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None
        else:
            value = own_defaults.get(name, default)
        if value is not None and name in _CHECKS:
            _check_option(name, value)
        values[name] = value
    # Without --empirical, drift and probs write no sampled file, so a flag
    # that only the sampler reads is refused; a config-file key is ignored.
    if "empirical" in takes and not values["empirical"]:
        for name in ("samples", "rule_rate"):
            if getattr(args, name, None) is not None:
                raise ConfigError(f"--{name.replace('_', '-')} applies only with --empirical")
            given.discard(name)

    agents, group = values["agents"], values["group"]
    rules_arg, schema_arg = values["rules"], values["schema"]
    if rules_arg is not None and schema_arg is not None:
        raise ConfigError("--rules and --schema are mutually exclusive")
    pure_noise = rules_arg == "none"
    if pure_noise and "rule_rate" in given:
        raise ConfigError("--rule-rate does not apply with --rules none")
    rules: RuleSet | None = None
    if rules_arg is not None and not pure_noise:
        # An explicit --group drives the parse so that a length mismatch is
        # reported as such; otherwise infer the group size from the string
        # length.
        try:
            rules = parse_polarity_string(
                rules_arg, group if group is not None else 2 * len(rules_arg) + 1
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    elif schema_arg is not None:
        text = _read_utf8(schema_arg, "schema file")
        try:
            rules = schema.parse_schema(text)
        except schema.SchemaError as exc:
            raise ConfigError(f"schema file {_printed_name(schema_arg)}: {exc}") from exc

    if rules is not None:
        if group is not None and group != rules.group_size:
            raise ConfigError(f"--group {group} conflicts with the rule set's group size {rules.group_size}")
        group = rules.group_size
    if group is not None:
        try:
            check_group_size(group)
        except ValueError as exc:
            raise ConfigError(f"--group: {exc}") from exc
        if group > agents:
            raise ConfigError(f"--group {group} exceeds --agents {agents}")

    label = "none" if pure_noise else rules.label if rules is not None else None
    values.update(group=group, rules=rules, rules_label=label)
    for need in requires:
        if values["rules_label" if need == "rules" else need] is None:
            either = " or --schema" if need == "rules" else ""
            raise ConfigError(f"{command} requires --{need}{either}")
    # The outputs are renamed over what their names resolve to, so none may
    # name an input, an earlier output or anything but a regular file.
    out, plot_script = values["out"], values["plot_script"]
    named = {
        os.path.realpath(name): f"{what} file {_printed_name(name)}"
        for what, name in (("schema", values["schema"]), ("config", args.config)) if name is not None
    }
    sibling = str(_empirical_path(Path(out))) if values["empirical"] else None
    for flag, name in (("--out", out), ("--empirical", sibling), ("--plot-script", plot_script)):
        if name is None:
            continue
        real = os.path.realpath(name)
        if real in named:
            raise ConfigError(f"{flag} would overwrite the {named[real]}")
        if os.path.exists(real) and not os.path.isfile(real):
            raise ConfigError(f"{flag} {_printed_name(name)}: not a regular file")
        named[real] = f"data file {_printed_name(name)}"

    if agents > MAX_STATE_AGENTS and (command == "probs" or values["empirical"]):
        raise ConfigError(
            f"--agents must be <= {MAX_STATE_AGENTS} for probs and --empirical, got {agents}"
        )

    initial: SwarmState | None = None
    if command == "simulate":
        # The provenance line of a --stop-at-consensus run records the event
        # bound as given ("-" for none); cmd_simulate still applies the default.
        if values["events"] is None and values["t_max"] is None and not values["stop_at_consensus"]:
            values["events"] = DEFAULT_EVENTS
        if {"init_z", "init_k"} <= given:
            raise ConfigError("--init-z and --init-k are mutually exclusive")
        try:
            if values["init_k"] is not None:
                initial = SwarmState(agents, values["init_k"])
            else:
                initial = state_of_z(agents, values["init_z"])
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    values.update(
        command=command,
        noise=NoiseSpec(values["epsilon"]),
        rule_rate=0.0 if pure_noise else values["rule_rate"],
        out=Path(values["out"]) if values["out"] is not None else None,
        plot_script=Path(plot_script) if plot_script else None,
        initial=initial,
    )
    return ExperimentConfig(**{name: values[name] for name in ExperimentConfig._fields})


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        text = f"{value:g}"
        return text if float(text) == value else repr(value)  # :g keeps only 6 digits
    return str(value)


def _provenance(
    agents=None, group=None, rules=None, epsilon=None, seed=None, **extra
) -> str:
    parts = [
        f"# swarmdec {__version__}",
        f"agents={_fmt(agents)}",
        f"group={_fmt(group)}",
        f"rules={_fmt(rules)}",
        f"epsilon={_fmt(epsilon)}",
        f"seed={_fmt(seed)}",
    ]
    parts.extend(f"{key.replace('_', '-')}={_fmt(value)}" for key, value in extra.items())
    return " ".join(parts)


def _run_header(cfg: ExperimentConfig, **extra) -> str:
    """Provenance line naming the run's swarm, rules, noise and seed, then ``extra``."""
    return _provenance(cfg.agents, cfg.group, cfg.rules_label, cfg.noise.epsilon, cfg.seed, **extra)


def _new_file_mode(path: Path) -> int:
    """Mode a plain ``open(path, "w")`` would leave: kept or ``0o666 & ~umask``."""
    with contextlib.suppress(FileNotFoundError):
        return stat.S_IMODE(os.stat(path).st_mode)
    umask = os.umask(0)
    os.umask(umask)
    return 0o666 & ~umask


def _write_lines(fh, lines: Iterable[str]) -> None:
    """Write ``lines`` to ``fh`` as they come, each ended by a newline; the
    handle's buffer bounds what is held."""
    write = fh.write
    for line in lines:
        write(line)
        write("\n")


def _write_text(path: Path, lines: Iterable[str]) -> None:
    """Write ``lines``, each ended by a newline, one at a time to a temp file
    in the directory of the file ``path`` names (through any symlinks),
    which then replaces that file; it is removed if ``lines`` raises."""
    target = Path(os.path.realpath(path))
    mode = _new_file_mode(target)
    fd, tmp_name = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            _write_lines(fh, lines)
            os.fchmod(fd, mode)
        os.replace(tmp_name, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        raise


@contextlib.contextmanager
def _simulation_process(events: ssa.EventBlocks) -> Iterator[Iterator[tuple]]:
    """Iterate ``events`` in a forked process, and yield an iterator of the
    blocks it pickles up a pipe, as they arrive.  After the last block the
    process sends the run's end state, which ``events`` takes on, or, if
    the run raised, the error's text, which the iterator raises as
    OSError; so it does if the process dies.  The process never touches
    a file, and is killed and waited for however the ``with`` body ends.

    Fork before numpy is imported, so that the child runs no threads; each
    process then imports numpy on its own.
    """
    import pickle
    import signal

    sys.stdout.flush()
    sys.stderr.flush()
    parent = os.getpid()
    source_fd, sink_fd = os.pipe()
    sigint = {signal.SIGINT}
    # Blocked across the fork and for the child's whole life: Ctrl-C is the
    # parent's to handle, and no KeyboardInterrupt can surface in the child.
    signal.pthread_sigmask(signal.SIG_BLOCK, sigint)
    try:
        pid = os.fork()
    except BaseException:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, sigint)
        os.close(source_fd)
        os.close(sink_fd)
        raise
    if pid == 0:  # the simulation; it leaves this branch only by os._exit
        try:
            # A run that records no rows sends no block to meet a closed pipe
            # with, so on Linux the process is killed when the parent dies
            # (PR_SET_PDEATHSIG), by whatever signal; and ends if it already has.
            if sys.platform == "linux":
                import ctypes

                ctypes.CDLL(None).prctl(1, signal.SIGKILL)
            if os.getppid() != parent:
                os._exit(0)
            os.close(source_fd)
            with os.fdopen(sink_fd, "wb") as sink:
                try:
                    for block in events:
                        pickle.dump(block, sink)
                    end = vars(events)
                except Exception as exc:  # its text is the parent's to report
                    end = f"simulation process failed: {exc!r}"
                pickle.dump(end, sink)
        finally:
            os._exit(0)
    os.close(sink_fd)
    source = os.fdopen(source_fd, "rb")

    def blocks() -> Iterator[tuple]:
        while isinstance(item := pickle.load(source), tuple):
            yield item
        if isinstance(item, str):
            raise OSError(item)
        vars(events).update(item)

    try:
        try:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, sigint)
            yield blocks()
        finally:
            source.close()
            # Not left to meet the closed pipe: a run that records no rows
            # sends no block, and may draw on for as long as --events allows.
            # A process that has sent its end, or died, keeps its status.
            os.kill(pid, signal.SIGKILL)
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    except (EOFError, pickle.UnpicklingError):  # the pipe ended before the run did
        how = f"killed by signal {-status}" if status < 0 else f"exited with status {status}"
        raise OSError(f"simulation process {how}") from None


def _empirical_path(out: Path) -> Path:
    if out.suffix == ".csv":
        return out.with_suffix(".empirical.csv")
    return Path(str(out) + ".empirical.csv")


def _curve_csv(points: Iterable[tuple[float, float]], provenance: str) -> Iterator[str]:
    yield provenance
    yield "z,dzdt"
    yield from (f"{z:.17g},{d:.17g}" for z, d in points)


_GNUPLOT_PRELUDE = [
    'set datafile separator ","',
    'set datafile commentschars "#"',
    "set key autotitle columnhead",
    "set grid",
]


def _quoted(path: Path) -> str:
    """``path`` as a gnuplot double-quoted string."""
    return '"%s"' % str(path).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _write_plot_script(cfg: ExperimentConfig, body: str) -> None:
    header = f"# swarmdec {__version__} gnuplot companion"
    _write_text(cfg.plot_script, [header, *_GNUPLOT_PRELUDE, body])


def cmd_drift(cfg: ExperimentConfig) -> int:
    if cfg.empirical:  # sampled first, so that a refused run leaves no file behind
        points = drift.empirical_drift(
            cfg.agents, cfg.rules, cfg.noise, cfg.samples, cfg.seed, rule_rate=cfg.rule_rate
        )
        header = _run_header(cfg, samples=cfg.samples, rule_rate=cfg.rule_rate)
        try:
            _write_text(_empirical_path(cfg.out), _curve_csv(points, header))
        except ValueError as exc:  # the total event rate overflows
            raise ConfigError(str(exc)) from exc
    points = drift.analytic_drift_curve(cfg.agents, cfg.rules, cfg.noise, cfg.grid)
    _write_text(cfg.out, _curve_csv(points, _run_header(cfg, grid=cfg.grid)))
    if cfg.plot_script:
        title = cfg.rules_label or "drift"
        body = (
            'set xlabel "z"\nset ylabel "dz/dt"\n'
            f'plot {_quoted(cfg.out)} using 1:2 with lines title "{title}"'
        )
        if cfg.empirical:
            body += f', \\\n     {_quoted(_empirical_path(cfg.out))} using 1:2 with points title "{title} (sampled)"'
        _write_plot_script(cfg, body)
    return EXIT_OK


def _probs_csv(cfg: ExperimentConfig, tables: Iterable, **extra) -> Iterator[str]:
    """The ``probs`` CSV, row by row, of one table per lattice state K."""
    yield _provenance(
        agents=cfg.agents, group=cfg.group, rules=None, epsilon=None, seed=cfg.seed, **extra
    )
    yield "z," + ",".join(f"p{k}" for k in range(cfg.group + 1))
    for count, table in enumerate(tables):
        row = ",".join(f"{p:.17g}" for p in table)
        yield f"{lattice_z(count, cfg.agents):.17g},{row}"


def cmd_probs(cfg: ExperimentConfig) -> int:
    tables = (hypergeom.pmf_table(cfg.agents, count, cfg.group) for count in range(cfg.agents + 1))
    _write_text(cfg.out, _probs_csv(cfg, tables))
    if cfg.empirical:
        tables = (
            drift.empirical_firing_probabilities(cfg.agents, cfg.group, count, cfg.samples, cfg.seed)
            for count in range(cfg.agents + 1)
        )
        _write_text(_empirical_path(cfg.out), _probs_csv(cfg, tables, samples=cfg.samples))
    if cfg.plot_script:
        body = (
            'set xlabel "z"\nset ylabel "firing probability"\n'
            f'plot for [i=2:{cfg.group + 2}] {_quoted(cfg.out)} using 1:i with lines'
        )
        _write_plot_script(cfg, body)
    return EXIT_OK


def cmd_simulate(cfg: ExperimentConfig) -> int:
    import json

    unbounded = cfg.events is None and cfg.t_max is None
    sim_config = ssa.SimConfig.from_noise_level(
        cfg.noise.epsilon,
        rule_rate=cfg.rule_rate,
        max_events=DEFAULT_EVENTS if unbounded else cfg.events,
        t_max=cfg.t_max,
        record_null_draws=not cfg.elide_nulls,
        stop_at_consensus=cfg.stop_at_consensus,
    )
    try:
        events = ssa.EventBlocks(cfg.initial, cfg.rules, sim_config, cfg.seed)
    except (ValueError, ssa.FrozenSystemError) as exc:  # an overflowing or zero event rate
        raise ConfigError(str(exc)) from exc
    header = _run_header(
        cfg,
        rule_rate=cfg.rule_rate,
        events=cfg.events,
        t_max=cfg.t_max,
        init_k=cfg.initial.count_x1,
        stop_at_consensus=cfg.stop_at_consensus,
        elide_nulls=cfg.elide_nulls,
    )

    # The run goes on in a second process while this one formats and writes
    # its record, so neither waits for the whole run.
    with _simulation_process(events) as blocks:
        from .csvrows import csv_blocks  # it imports numpy, so after the fork

        _write_text(cfg.out, chain([header], csv_blocks(blocks, cfg.agents)))
    summary = {
        "final_count_x1": events.final_state.count_x1,
        "final_z": events.final_state.z,
        "final_time": events.final_time,
        "n_events": events.n_events,
        "event_counts": events.event_counts(),
        "seed": cfg.seed,
    }
    print(json.dumps(summary, sort_keys=True))
    if cfg.plot_script:
        body = (
            'set xlabel "time"\nset ylabel "z"\n'
            f'plot {_quoted(cfg.out)} using 1:5 with steps title "z(t)"'
        )
        _write_plot_script(cfg, body)
    return EXIT_OK


def cmd_fixed_points(cfg: ExperimentConfig) -> int:
    import json

    points = drift.find_fixed_points(cfg.agents, cfg.rules, cfg.noise, cfg.grid)
    payload = [
        {
            "z": fp.z,
            "stability": fp.stability.value,
            "bracket": [fp.bracket[0], fp.bracket[1]],
        }
        for fp in points
    ]
    header = _run_header(cfg, grid=cfg.grid)
    _write_text(cfg.out, [header, json.dumps(payload, indent=2)])
    return EXIT_OK


def _ruleset_listing(group: int) -> Iterator[str]:
    """The ``rulesets`` listing, line by line: each label, then its reactions."""
    for index, rules in enumerate(iter_rulesets(group)):
        if index:
            yield ""
        yield rules.label
        for line in schema.format_schema(rules).splitlines():
            yield f"  {line}"


def cmd_rulesets(cfg: ExperimentConfig) -> int:
    lines = _ruleset_listing(cfg.group)
    if cfg.out is not None:
        header = _provenance(agents=None, group=cfg.group, rules=None, epsilon=None, seed=None)
        _write_text(cfg.out, chain([header], lines))
    else:
        _write_lines(sys.stdout, lines)
    return EXIT_OK


def cmd_validate(cfg: ExperimentConfig) -> int:
    import json

    checks = drift.validation_checks()
    report = {"version": __version__, "checks": checks, "passed": all(c["passed"] for c in checks)}
    text = json.dumps(report, indent=2)
    sys.stdout.write(text + "\n")
    if cfg.out is not None:
        header = _provenance(agents=None, group=None, rules=None, epsilon=None, seed=None)
        _write_text(cfg.out, [header, text])
    return EXIT_OK if report["passed"] else EXIT_VALIDATION


_HANDLERS = {name: globals()["cmd_" + name.replace("-", "_")] for name, *_ in _COMMANDS}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # The top level takes no option but -h and --version, which exit, so a
    # command runs only as the first word, and only its options are built.
    parser = build_parser(argv[:1])
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed usage; its error code (2) matches ours.
        return exc.code if isinstance(exc.code, int) else EXIT_CONFIG
    try:
        cfg = resolve_config(args)
        return _HANDLERS[cfg.command](cfg)
    except ConfigError as exc:
        print(f"swarmdec: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"swarmdec: {exc}", file=sys.stderr)
        return EXIT_IO
    except KeyboardInterrupt:
        print("swarmdec: interrupted", file=sys.stderr)
        return 130  # 128 + SIGINT


def run() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    run()
