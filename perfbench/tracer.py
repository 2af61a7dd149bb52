"""In-memory span tracer that measures greenran's layers from outside.

Layers are the package modules. Each is measured by replacing one of its
public functions at the name its caller looks up (for example
`greenran.matching.slmdb_solve`, which is what `evaluate` calls) with a
wrapper that records a span and, for some functions, counts read off the
result. Nothing inside the package changes; `Tracer.restore`
puts every original function back.

A span is `[name, start, end, parent, drop]`: `parent` is the index of the
enclosing span (-1 at the root) and `drop` the drop index set by the caller.
A span's self time is its duration minus the durations of its direct
children; calls are sequential, so the children never overlap.
"""

import csv
import time
from collections import Counter, defaultdict

# Drop wall time is the sum of the root `harness.run` spans.
DROP_SPAN = "harness.run"
LAYERS = ("harness", "netmodel", "statistics", "rates", "powermodel", "powerctl",
          "matching")


def _count_slmdb(counts, sol):
    diag = sol.diagnostics
    counts["slm_rounds"] += diag.slm_iterations
    counts["dinkelbach_rounds"] += sum(diag.dinkelbach_iterations)
    counts["newton_steps"] += diag.newton_steps
    counts["iter_cap_hits"] += int(diag.hit_iteration_cap)
    counts["infeasible_returns"] += int(not sol.feasible)


def _count_move(counts, outcome):
    counts["moves_approved"] += int(outcome.approved)


def _count_correlation(counts, corr):
    counts["correlation_bytes"] += corr.R.nbytes


def _count_emit(counts, text):
    counts["emit_bytes"] += len(text.encode())


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.drop = -1
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn, on_result):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.drop])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if on_result is not None:
                on_result(self.counts, result)
            return result

        return wrapper

    def patch(self, module, attr, name, on_result=None):
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, self._wrap(name, original, on_result))

    def install(self, harness, matching, statistics):
        """Wrap every layer boundary a drop crosses."""
        h, m = harness, matching
        self.patch(h, "run", DROP_SPAN)
        self.patch(h, "emit", "harness.emit", _count_emit)
        self.patch(h, "generate_topology", "netmodel.generate_topology")
        self.patch(h, "build_correlation", "netmodel.build_correlation",
                   _count_correlation)
        # harness imports mmse_statistics inside the function, so the module
        # attribute is the name it looks up
        self.patch(statistics, "mmse_statistics", "statistics.mmse_statistics")
        self.patch(h, "trimsm", "matching.trimsm")
        self.patch(h, "nos_assoc", "matching.nos_assoc")
        self.patch(h, "exhaustive_search", "matching.exhaustive_search")
        for mod, attr in ((h, "recp_init"), (h, "llsf_assoc"), (h, "tsap_assoc"),
                          (m, "recp_init")):
            self.patch(mod, attr, "matching.init")
        self.patch(h, "evaluate", "matching.evaluate")
        self.patch(m, "evaluate", "matching.evaluate")
        self.patch(m, "is_swap_blocking", "matching.is_swap_blocking", _count_move)
        self.patch(m, "verify_stability", "matching.verify_stability")
        self.patch(m, "slmdb_solve", "powerctl.slmdb_solve", _count_slmdb)
        self.patch(m, "qopc_solve", "powerctl.qopc_solve")
        self.patch(m, "eipc", "powerctl.eipc")
        self.patch(m, "fipc", "powerctl.fipc")
        self.patch(m, "link_coefficients", "rates.link_coefficients")
        self.patch(m, "build_affine_form", "powermodel.build_affine_form")
        self.patch(h, "network_power", "powermodel.network_power")

    def restore(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def misnested(self, names=("powerctl.slmdb_solve", "powerctl.qopc_solve"),
                  ancestor="matching.evaluate") -> int:
        """Number of spans named in `names` with no `ancestor` span above them."""
        spans = self.spans
        bad = 0
        for span in spans:
            if span[0] not in names:
                continue
            parent = span[3]
            while parent >= 0 and spans[parent][0] != ancestor:
                parent = spans[parent][3]
            bad += parent < 0
        return bad

    def write(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("name", "start", "end", "parent", "drop"))
            writer.writerows(self.spans)

    def rollup(self):
        """Per span name: (calls, inclusive seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, total, own = Counter(), defaultdict(float), defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child[i]
        return calls, total, own


def layer_metrics(tracer: Tracer, drops: int) -> dict:
    """The per-layer metrics as {name: (value, unit)}, counts and times per drop."""
    calls, total, own = tracer.rollup()
    counts = tracer.counts
    wall = total[DROP_SPAN]
    slmdb = calls["powerctl.slmdb_solve"]
    controllers = sum(calls[f"powerctl.{c}"] for c in
                      ("slmdb_solve", "qopc_solve", "eipc", "fipc"))
    scanned = calls["matching.is_swap_blocking"]

    def per_drop(x):
        return x / drops

    out = {
        "powerctl.slmdb_calls": (per_drop(slmdb), "count/drop"),
        "powerctl.slmdb_s": (per_drop(total["powerctl.slmdb_solve"]), "s/drop"),
        "powerctl.slm_rounds": (per_drop(counts["slm_rounds"]), "count/drop"),
        "powerctl.dinkelbach_rounds": (per_drop(counts["dinkelbach_rounds"]), "count/drop"),
        "powerctl.newton_steps": (per_drop(counts["newton_steps"]), "count/drop"),
        "powerctl.newton_per_solve": (counts["newton_steps"] / slmdb if slmdb else 0.0,
                                      "count/solve"),
        "powerctl.iter_cap_hits": (per_drop(counts["iter_cap_hits"]), "count/drop"),
        "powerctl.infeasible_returns": (per_drop(counts["infeasible_returns"]),
                                        "count/drop"),
        "powerctl.qopc_calls": (per_drop(calls["powerctl.qopc_solve"]), "count/drop"),
        "powerctl.qopc_s": (per_drop(total["powerctl.qopc_solve"]), "s/drop"),
        "powerctl.eipc_calls": (per_drop(calls["powerctl.eipc"]), "count/drop"),
        "powerctl.eipc_s": (per_drop(total["powerctl.eipc"]), "s/drop"),
        "powerctl.fipc_calls": (per_drop(calls["powerctl.fipc"]), "count/drop"),
        "powerctl.slmdb_share": (total["powerctl.slmdb_solve"] / wall, "frac"),
        "powerctl.qopc_share": (total["powerctl.qopc_solve"] / wall, "frac"),
        "matching.evaluate_calls": (per_drop(calls["matching.evaluate"]), "count/drop"),
        "matching.evaluate_self_s": (per_drop(own["matching.evaluate"]), "s/drop"),
        "matching.cache_hit_ratio": (1.0 - controllers / calls["matching.evaluate"]
                                     if calls["matching.evaluate"] else 0.0, "ratio"),
        "matching.moves_scanned": (per_drop(scanned), "count/drop"),
        "matching.moves_approved": (per_drop(counts["moves_approved"]), "count/drop"),
        "matching.approve_ratio": (counts["moves_approved"] / scanned if scanned else 0.0,
                                   "ratio"),
        "matching.stability_s": (per_drop(total["matching.verify_stability"]), "s/drop"),
        "matching.init_s": (per_drop(total["matching.init"]), "s/drop"),
        "rates.link_coeff_calls": (per_drop(calls["rates.link_coefficients"]), "count/drop"),
        "rates.link_coeff_s": (per_drop(total["rates.link_coefficients"]), "s/drop"),
        "powermodel.affine_form_calls": (per_drop(calls["powermodel.build_affine_form"]),
                                         "count/drop"),
        "powermodel.network_power_s": (per_drop(total["powermodel.network_power"]),
                                       "s/drop"),
        "netmodel.topology_s": (per_drop(total["netmodel.generate_topology"]), "s/drop"),
        "netmodel.correlation_s": (per_drop(total["netmodel.build_correlation"]), "s/drop"),
        "netmodel.correlation_mb": (per_drop(counts["correlation_bytes"]) / 1e6, "MB/drop"),
        "statistics.mmse_calls": (per_drop(calls["statistics.mmse_statistics"]),
                                  "count/drop"),
        "statistics.mmse_s": (per_drop(total["statistics.mmse_statistics"]), "s/drop"),
        "harness.emit_s": (per_drop(total["harness.emit"]), "s/drop"),
        "harness.emit_bytes": (per_drop(counts["emit_bytes"]), "B/drop"),
    }
    layer_self = defaultdict(float)
    for name, seconds in own.items():
        if name != "harness.emit":
            layer_self[name.split(".", 1)[0]] += seconds
    for layer in LAYERS:
        out[f"{layer}.self_share"] = (layer_self[layer] / wall, "frac")
    return out
