"""Binary collective decision-making swarms.

Simulates a well-mixed swarm of agents choosing between two opinions
under configurable majority/minority group rules and noise, and
reproduces its macroscopic drift behaviour both empirically (exact
Gillespie simulation) and analytically (hypergeometric composition
law), including fixed-point and stability analysis.

Importing the package loads none of its modules: each exported name
loads its module on first use (:func:`__getattr__`).
"""

import importlib.util
import sys
import threading
import types

__version__ = "0.1.0"

#: The module that defines each name of ``__all__``.
_HOME = {
    name: module
    for module, names in (
        ("drift", "FixedPoint Stability analytic_drift analytic_drift_curve empirical_drift "
                  "empirical_firing_probabilities find_fixed_points rule_firing_probabilities"),
        ("hypergeom", "pmf pmf_bruteforce pmf_table"),
        ("model", "NoiseSpec RulePolarity RuleSet SwarmState iter_rulesets parse_polarity_string "
                  "signed_weight state_of_z"),
        ("schema", "SchemaError SchemaSyntaxError SchemaValidationError format_schema parse_schema"),
        ("ssa", "EVENT_LABELS EventBlocks FrozenSystemError SimConfig Trajectory simulate "
                "trajectory_csv_lines"),
    )
    for name in names.split()
}
__all__ = sorted(_HOME)


#: Held while a lazy submodule runs, so that a thread reading one of its
#: attributes meanwhile waits for the whole module, not a partly run one.
_RUNNING = threading.RLock()


class _LazyModule(types.ModuleType):
    """A submodule whose code runs on the first read of any attribute
    (``importlib.util.LazyLoader``'s ``_LazyModule`` switches the class
    before the code has run, so a second thread sees it half run)."""

    def __getattribute__(self, attr: str):
        with _RUNNING:
            if type(self) is _LazyModule:
                namespace = object.__getattribute__(self, "__dict__")
                spec = namespace["__spec__"]
                exec(spec.loader.get_code(spec.name), namespace)
                self.__class__ = types.ModuleType
        return object.__getattribute__(self, attr)


def _lazy_submodule(name: str) -> types.ModuleType:
    """The submodule ``swarmdec.<name>``: in ``sys.modules`` and bound on the
    package at once, but compiled and run only on its first attribute read."""
    full_name = f"{__name__}.{name}"
    module = sys.modules.get(full_name)
    if module is None:
        module = importlib.util.module_from_spec(importlib.util.find_spec(full_name))
        module.__class__ = _LazyModule
        sys.modules[full_name] = globals()[name] = module
    return module


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    return value
