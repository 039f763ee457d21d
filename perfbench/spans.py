"""Outside-in layer trace: wrap public package functions, record spans.

Nothing under ``src/`` changes. ``Tracer.install`` replaces each named
function with a timing wrapper in every ``seasonthresh`` module that binds
it, so ``from .linalg import mat_exp`` copies in ``floquet`` and
``splitting`` and the module attributes ``cli`` calls through are all
caught. ``uninstall`` puts the originals back.

A span is (job, id, parent, name, start, end). Self time is a span's
duration minus the time its child spans cover. Hot leaf functions (the
insect vector field and Jacobian) are counted without spans.
"""

import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np


def _array_key(args, kwargs):
    return np.asarray(args[0]).tobytes() + repr(kwargs).encode()


def _monodromy_key(args, kwargs):
    lin, theta = args[0], args[1] if len(args) > 1 else kwargs["theta"]
    return lin.m1.tobytes() + lin.m2.tobytes() + repr((lin.period_T, theta)).encode()


CONDITIONS = (
    "check_shared_eigenvector", "check_decrease_left", "check_decrease_right",
    "check_decrease_bilinear", "check_hyp_parameters", "check_hyp_alternative",
    "left_order_certificate", "insect_threshold_certificate",
)

# (module, function, span name, distinct-argument key)
SPANNED = [
    ("linalg", "mat_exp", "linalg.mat_exp", _array_key),
    ("linalg", "perron_pair", "linalg.perron_pair", None),
    ("linalg", "spectral_radius", "linalg.spectral_radius", None),
    ("floquet", "monodromy", "floquet.monodromy", _monodromy_key),
    ("floquet", "rho", "floquet.rho", None),
    ("floquet", "rho_prime", "floquet.rho_prime", None),
    ("floquet", "rho_second", "floquet.rho_second", None),
    ("floquet", "constrained_resolvent", "floquet.constrained_resolvent", None),
    ("floquet", "rho_profile", "floquet.rho_profile", None),
    ("floquet", "find_threshold", "floquet.find_threshold", None),
    ("simulate", "integrate", "simulate.integrate", None),
    ("simulate", "poincare_map", "simulate.poincare_map", None),
    ("simulate", "poincare_jacobian", "simulate.poincare_jacobian", None),
    ("simulate", "find_periodic_orbit", "simulate.find_periodic_orbit", None),
    ("simulate", "verify_flow_properties", "simulate.verify_flow_properties", None),
    ("splitting", "optimize_split", "splitting.optimize_split", None),
    ("splitting", "split_monodromy", "splitting.split_monodromy", None),
    ("splitting", "gelfand_bound_probe", "splitting.gelfand_bound_probe", None),
    ("verify_suite", "run_verification", "verify_suite.run_verification", None),
    ("scenario", "load_scenario", "scenario.load_scenario", None),
    ("cli", "_write_csv", "cli.write", None),
    ("cli", "_write_json", "cli.write", None),
] + [("conditions", name, "conditions", None) for name in CONDITIONS]

COUNTED = [
    ("insect", "vector_field", "insect.vector_field"),
    ("insect", "jacobian", "insect.jacobian"),
]


class Tracer:
    """Span recorder for one traced pass; spans stay in memory until `write`."""

    def __init__(self):
        self.spans = []
        self.calls = Counter()
        self.self_s = Counter()
        self.distinct = Counter()
        self.extra = Counter()
        self._keys = defaultdict(set)
        self._stack = []  # [span id, child seconds]
        self._active = Counter()
        self._next_id = 0
        self._job = None
        self._restore = []

    # ------------------------------------------------------------ job scope
    def begin_job(self, job_id: str):
        self._job = job_id
        self._keys.clear()

    def end_job(self):
        for name, keys in self._keys.items():
            self.distinct[name] += len(keys)
        self._keys.clear()
        self._job = None

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        frame = [sid, 0.0]
        self._stack.append(frame)
        self._active[name] += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._active[name] -= 1
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            self.calls[name] += 1
            self.self_s[name] += duration - frame[1]
            self.spans.append((self._job, sid, parent, name, start, end))

    # -------------------------------------------------------------- wrapping
    def _spanned(self, name, fn, key):
        tracer = self

        def wrapper(*args, **kwargs):
            if key is not None:
                tracer._keys[name].add(key(args, kwargs))
            if name == "floquet.rho" and tracer._active["floquet.find_threshold"]:
                tracer.extra["floquet.find_threshold.rho_calls"] += 1
            if name == "floquet.monodromy" and tracer._active["conditions"]:
                tracer.extra["conditions.monodromy_calls"] += 1
            result = tracer.span(name, fn, *args, **kwargs)
            if name == "simulate.find_periodic_orbit":
                tracer.extra["simulate.find_periodic_orbit.periods"] += result.iterations
            elif name == "cli.write":
                tracer.extra["cli.write.bytes"] += Path(args[0]).stat().st_size
            return result

        return wrapper

    def _counted(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Rebind every module-level binding of each traced function."""
        modules = [m for n, m in list(sys.modules.items()) if n == "seasonthresh" or n.startswith("seasonthresh.")]
        plan = [(mod, fn, name, key) for mod, fn, name, key in SPANNED]
        plan += [(mod, fn, name, "count") for mod, fn, name in COUNTED]
        for mod, fn, name, key in plan:
            original = getattr(sys.modules[f"seasonthresh.{mod}"], fn)
            wrapper = self._counted(name, original) if key == "count" else self._spanned(name, original, key)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def write(self, path: Path):
        with path.open("w") as fh:
            fh.write("job,span,parent,name,start_s,end_s\n")
            for job, sid, parent, name, start, end in self.spans:
                fh.write(f"{job},{sid},{parent},{name},{start:.9f},{end:.9f}\n")
