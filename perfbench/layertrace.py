"""Outside-in per-layer trace of the simulator.

Every public function of each module in LAYERS, and every public method of
the classes those modules define, is wrapped from here, at every module
binding that refers to it (engine imports `block_hash` by name, so
`engine.block_hash` is wrapped as well as `ledger.block_hash`).  The
simulator's source is not touched.

A wrapped call records a span (name, start, end, parent span, scenario id)
into flat arrays kept in memory; they are written out once, at the end of
the run.  Hot leaves in COUNTED only count calls: their time stays in the
caller's self time, which keeps the tracing overhead low.  A layer's self
time is the sum over its spans of span time minus child span time.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

LAYERS = ("crypto", "sortition", "consensus", "netsim", "ledger", "adversary",
          "engine", "cli")

# Called hundreds to thousands of times per round and doing only encoding,
# one hash or a cached lookup.
COUNTED = frozenset({
    "crypto.sha256", "crypto.be8", "crypto.hash_to_unit", "ledger.block_hash",
    "ledger.users_at", "sortition.credential_message",
})

SIGNS = ("crypto.KeyRegistry.unique_sign", "crypto.KeyRegistry.ephemeral_sign")
VERIFIES = ("crypto.KeyRegistry.verify_unique", "crypto.KeyRegistry.verify_ephemeral",
            "crypto.KeyRegistry.expected_signature")
CREDENTIALS = ("sortition.leader_credential", "sortition.verifier_credential",
               "sortition.view_credential")

# name, unit, better, and the end-to-end metric (and workload) it should move.
PER_LAYER = [
    ("sortition.calls_per_round", "count", "lower",
     "rounds_per_s, round_p50_ms on honest; rounds_per_s on replay; little on attack"),
    ("sortition.self_ms_per_round", "ms", "lower",
     "rounds_per_s, round_p50_ms on honest; rounds_per_s on replay; little on attack"),
    ("sortition.selected_ratio", "ratio", "higher",
     "rounds_per_s on honest and replay (credentials kept / computed)"),
    ("crypto.signs_per_round", "count", "lower", "rounds_per_s on honest"),
    ("crypto.verifies_per_round", "count", "lower", "rounds_per_s on honest"),
    ("crypto.sha256_per_round", "count", "lower", "rounds_per_s on honest"),
    ("crypto.self_ms_per_round", "ms", "lower",
     "rounds_per_s on honest; the audit list also moves retained_kb_per_round"),
    ("consensus.calls_per_round", "count", "lower", "round_p99_ms on honest"),
    ("consensus.self_ms_per_round", "ms", "lower", "round_p99_ms on honest"),
    ("consensus.ba_steps_per_round", "count", "lower", "round_p99_ms on honest"),
    ("netsim.deliveries_per_round", "count", "lower",
     "round_p50_ms on honest; the delivery log moves retained_kb_per_round"),
    ("netsim.self_ms_per_round", "ms", "lower", "round_p50_ms on honest"),
    ("ledger.block_hash_per_round", "count", "lower",
     "rounds_per_s on attack and replay; little on honest"),
    ("ledger.validate_ms_per_block", "ms", "lower",
     "rounds_per_s on attack and replay"),
    ("ledger.parse_ms_per_block", "ms", "lower", "rounds_per_s on replay"),
    ("ledger.export_ms_per_round", "ms", "lower", "rounds_per_s on honest and attack"),
    ("ledger.self_ms_per_round", "ms", "lower",
     "rounds_per_s on attack and replay; little on honest"),
    ("adversary.calls_per_scenario", "count", "lower",
     "rounds_per_s on attack only; zero elsewhere"),
    ("adversary.self_ms_per_scenario", "ms", "lower",
     "rounds_per_s on attack only; zero elsewhere"),
    ("engine.self_ms_per_round", "ms", "lower", "round_p50_ms on honest and attack"),
    ("cli.self_ms_per_command", "ms", "lower", "setup_s; rounds_per_s on replay"),
    ("trace.overhead_ratio", "ratio", "higher",
     "none: traced / untraced rounds_per_s of this run"),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.leaf_calls: list[int] = []
        self.extra: Counter = Counter()
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.scenario_starts: list[int] = []   # index of each scenario's first span
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def begin_scenario(self) -> None:
        self.scenario_starts.append(len(self.name))

    def scenario_column(self) -> array:
        """Scenario id of every span."""
        col = array("i")
        bounds = self.scenario_starts[1:] + [len(self.name)]
        for sid, (lo, hi) in enumerate(zip(self.scenario_starts, bounds)):
            col.extend([sid] * (hi - lo))
        return col

    # -- wrapping -------------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "algosim" or n.startswith("algosim.")]
        for layer in LAYERS:
            mod = sys.modules["algosim." + layer]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(f"{layer}.{attr}", layer, obj)
                    for m in modules:
                        for binding, value in list(vars(m).items()):
                            if value is obj:
                                self._patch(m, binding, wrapped)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._patch(obj, meth, self._wrap(
                                f"{layer}.{obj.__name__}.{meth}", layer, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _wrap(self, qualname: str, layer: str, fn):
        nid = len(self.names)
        self.names.append(qualname)
        self.layer_of.append(layer)
        self.leaf_calls.append(0)
        if qualname in COUNTED:
            calls = self.leaf_calls

            def counted(*args, **kwargs):
                calls[nid] += 1
                return fn(*args, **kwargs)
            return functools.wraps(fn)(counted)

        on_result = self._result_hook(qualname)
        stack, names, parents = self._stack, self.name, self.parent
        starts, ends, clock = self.start, self.end, time.perf_counter

        def span(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            stack.append(idx)
            ends.append(0.0)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result
        return functools.wraps(fn)(span)

    def _result_hook(self, qualname: str):
        extra = self.extra
        if qualname in CREDENTIALS:
            def hook(cred):
                extra["sortition.computed"] += 1
                extra["sortition.selected"] += cred is not None
        elif qualname == "netsim.Network.step":
            def hook(delivered):
                extra["netsim.deliveries"] += delivered
        elif qualname == "ledger.chain_from_lines":
            def hook(chain):
                extra["ledger.blocks_parsed"] += len(chain.blocks)
        elif qualname == "ledger.chain_to_lines":
            def hook(lines):
                extra["ledger.blocks_exported"] += len(lines) - 1
        else:
            return None
        return hook

    # -- results ----------------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """Calls per wrapped name plus result-derived counts, so far."""
        out = dict(zip(self.names, self.leaf_calls))
        for nid, n in Counter(self.name).items():
            out[self.names[nid]] = n
        out.update(self.extra)
        return out

    def span_times(self, factors: list[float]):
        """Drift-corrected (self seconds per layer, inclusive seconds per name,
        boundary calls per layer per scenario).  A boundary call is a span
        whose parent is in another layer or is the benchmark itself."""
        n = len(self.name)
        names, parents, scen = self.name, self.parent, self.scenario_column()
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * n
        for i in range(n):
            if parents[i] >= 0:
                child[parents[i]] += dur[i]
        self_s: Counter = Counter()
        incl: Counter = Counter()
        boundary: Counter = Counter()
        layer_of = self.layer_of
        for i in range(n):
            nid, f = names[i], factors[scen[i]]
            layer = layer_of[nid]
            self_s[layer] += (dur[i] - child[i]) * f
            incl[self.names[nid]] += dur[i] * f
            p = parents[i]
            if p < 0 or layer_of[names[p]] != layer:
                boundary[(layer, scen[i])] += 1
        return self_s, incl, boundary

    def write(self, prefix: Path) -> None:
        """Spans as <prefix>.spans (int32 name, parent, scenario; then
        float64 start, end; each a column of `spans` values) and the name
        table with the call counts as <prefix>.json."""
        meta = {"spans": len(self.name), "names": self.names,
                "layers": self.layer_of, "counts": self.counts(),
                "columns": ["name:i4", "parent:i4", "scenario:i4",
                            "start:f8", "end:f8"]}
        prefix.with_suffix(".json").write_text(json.dumps(meta, indent=1))
        with open(prefix.with_suffix(".spans"), "wb") as f:
            for col in (self.name, self.parent, self.scenario_column(),
                        self.start, self.end):
                col.tofile(f)


def read_spans(prefix: Path) -> tuple[dict, list[tuple]]:
    """Inverse of Tracer.write: (metadata, [(name, parent, scenario, start, end)])."""
    meta = json.loads(prefix.with_suffix(".json").read_text())
    n = meta["spans"]
    cols = []
    with open(prefix.with_suffix(".spans"), "rb") as f:
        for code in ("i", "i", "i", "d", "d"):
            col = array(code)
            col.fromfile(f, n)
            cols.append(col)
    names = meta["names"]
    return meta, [(names[a], b, c, d, e) for a, b, c, d, e in zip(*cols)]


def layer_metrics(tracer: Tracer, factors: list[float], units: list[int],
                  counted_upto: int, counts_k: dict[str, int],
                  traced_rate: float, untraced_rate: float) -> dict[str, float]:
    """The PER_LAYER values.  Times use every traced scenario; counts use the
    first `counted_upto` scenarios only (`counts_k` is the tracer's counts()
    right after them), so they repeat exactly between runs of one seed."""
    self_s, incl, boundary = tracer.span_times(factors)
    total = tracer.counts()
    rounds_all, rounds_k = sum(units), sum(units[:counted_upto])
    scenarios = len(units)

    def k(*names):
        return sum(counts_k.get(n, 0) for n in names) / rounds_k

    def crossing(layer):
        return sum(v for (lay, s), v in boundary.items()
                   if lay == layer and s < counted_upto)

    def ms_per_round(layer):
        return self_s[layer] * 1e3 / rounds_all

    def ms_per(name, count):
        return incl[name] * 1e3 / count if count else 0.0

    computed = counts_k.get("sortition.computed", 0)
    return {
        "sortition.calls_per_round": crossing("sortition") / rounds_k,
        "sortition.self_ms_per_round": ms_per_round("sortition"),
        "sortition.selected_ratio":
            counts_k.get("sortition.selected", 0) / computed if computed else 0.0,
        "crypto.signs_per_round": k(*SIGNS),
        "crypto.verifies_per_round": k(*VERIFIES),
        "crypto.sha256_per_round": k("crypto.sha256"),
        "crypto.self_ms_per_round": ms_per_round("crypto"),
        "consensus.calls_per_round": crossing("consensus") / rounds_k,
        "consensus.self_ms_per_round": ms_per_round("consensus"),
        "consensus.ba_steps_per_round": k("consensus.bba_transition"),
        "netsim.deliveries_per_round": k("netsim.deliveries"),
        "netsim.self_ms_per_round": ms_per_round("netsim"),
        "ledger.block_hash_per_round": k("ledger.block_hash"),
        "ledger.validate_ms_per_block":
            ms_per("ledger.validate_block", total.get("ledger.validate_block", 0)),
        "ledger.parse_ms_per_block":
            ms_per("ledger.chain_from_lines", total.get("ledger.blocks_parsed", 0)),
        "ledger.export_ms_per_round":
            ms_per("ledger.chain_to_lines", total.get("ledger.blocks_exported", 0)),
        "ledger.self_ms_per_round": ms_per_round("ledger"),
        "adversary.calls_per_scenario": crossing("adversary") / counted_upto,
        "adversary.self_ms_per_scenario": self_s["adversary"] * 1e3 / scenarios,
        "engine.self_ms_per_round": ms_per_round("engine"),
        "cli.self_ms_per_command": self_s["cli"] * 1e3 / max(1, total.get("cli.main", 0)),
        "trace.overhead_ratio": traced_rate / untraced_rate,
    }
