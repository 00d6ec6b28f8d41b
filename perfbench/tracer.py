"""In-memory tracing of one priceshock run, from outside the package.

``install`` replaces module attributes that ``priceshock.cli``,
``priceshock.scenario`` and ``priceshock.imputation`` look up at call
time with timing wrappers, so ``src/`` needs no edit. Coarse calls keep
one span each (name, start, end, parent); per-household and per-draw
calls only add to a call count and busy time, which keeps the overhead
low. Either kind adds its duration to the innermost open span's child
time, so a span's self time is its own code only. An attribute that a
later version removes is skipped and reports 0 calls.
"""

from __future__ import annotations

import functools
import importlib
import time

# (module, attribute, metric name); names follow the defining module.
SPANS = (
    ("cli", "run_scenario", "scenario.run_scenario"),
    ("cli", "emit_reports", "scenario.emit_reports"),
    ("scenario", "load_household_survey", "data.load_household_survey"),
    ("scenario", "load_income_survey", "data.load_income_survey"),
    ("scenario", "load_mrio", "data.load_mrio"),
    ("scenario", "load_bridge", "data.load_bridge"),
    ("scenario", "impute_expenditure_patterns", "imputation.impute_expenditure_patterns"),
    ("scenario", "carbon_tax_scenario", "scenario.carbon_tax_scenario"),
    ("scenario", "leontief_inverse", "inputoutput.leontief_inverse"),
    ("scenario", "embodied_intensity", "inputoutput.embodied_intensity"),
    ("scenario", "estimate_demand_groups", "scenario.estimate_demand_groups"),
    ("scenario", "weighted_quantile_groups", "metrics.weighted_quantile_groups"),
    ("scenario", "build_tables", "scenario.build_tables"),
    ("scenario", "progressivity_table", "metrics.progressivity_table"),
    ("scenario", "atkinson", "metrics.atkinson"),
)
COUNTERS = (
    ("scenario", "les_calibrate_frisch", "demand.les_calibrate_frisch"),
    ("scenario", "compensating_variation", "demand.compensating_variation"),
    ("scenario", "equivalent_income", "demand.equivalent_income"),
    ("scenario", "les_demand", "demand.les_demand"),
    ("scenario", "wls_fit", "imputation.wls_fit"),
    ("imputation", "wls_fit", "imputation.wls_fit"),
    ("imputation", "binary_fit", "imputation.binary_fit"),
    ("imputation", "rng_for", "randutil.rng_for"),
)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counters: dict[str, list] = {name: [0, 0.0] for _, _, name in COUNTERS}
        self._open: list[dict] = []

    def span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = {"name": name, "parent": self._open[-1]["id"] if self._open else None,
                      "id": len(self.spans), "child_s": 0.0}
            self.spans.append(record)
            self._open.append(record)
            record["start"] = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                record["end"] = end = time.monotonic()
                self._open.pop()
                if self._open:
                    self._open[-1]["child_s"] += end - record["start"]
        return wrapper

    def counter(self, name, fn):
        slot = self.counters[name]
        open_spans = self._open
        clock = time.monotonic

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                slot[0] += 1
                slot[1] += dt
                if open_spans:
                    open_spans[-1]["child_s"] += dt
        return wrapper

    def install(self) -> list[str]:
        """Wrap every listed attribute that exists; return the ones missing."""
        missing = []
        for kinds, wrap in ((SPANS, self.span), (COUNTERS, self.counter)):
            for module, attr, name in kinds:
                mod = importlib.import_module(f"priceshock.{module}")
                fn = getattr(mod, attr, None)
                if fn is None:
                    missing.append(f"{module}.{attr}")
                    continue
                setattr(mod, attr, wrap(name, fn))
        return missing

    def summary(self) -> dict:
        """Per name: calls, busy seconds and self seconds."""
        out = {name: {"calls": c, "s": s, "self_s": s} for name, (c, s) in self.counters.items()}
        for _, _, name in SPANS:
            out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        for sp in self.spans:
            entry = out[sp["name"]]
            duration = sp["end"] - sp["start"]
            entry["calls"] += 1
            entry["s"] += duration
            entry["self_s"] += duration - sp["child_s"]
        return out
