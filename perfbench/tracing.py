"""Spans and counters recorded from outside the library, and the per-layer
metrics computed from them.

The tracer wraps the names through which the benchmark and the library's own
modules call each layer's public functions (``survey`` looks up
``find_realizable_bijection`` in its own namespace, ``realizability`` looks up
``unlinked`` in its own, and so on), so no library file changes. Boundary
calls get a span each: name, start, end, parent span, op id, and how many of
each leaf call were made inside it. The leaf calls (``unlinked`` and the
canonical codes) are too frequent for a span each: they are only counted,
and every Nth argument tuple is kept so that the cost per call can be
replayed afterwards without the wrapper.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter
from itertools import islice, product

from friendly_trees import cli, enumeration, linking, realizability, survey, tree

LAYERS = ("tree", "enumeration", "linking", "realizability", "survey", "cli")
SEARCH = "realizability.find_realizable_bijection"
SAMPLE_MASK = 63  # keep the arguments of the first leaf call and one in 64 after it

# Leaf counters, by index into Tracer.leaf.
UNLINKED, UNLINKED_TRUE, CANONICAL_CODE, CODE_FROM_ADJACENCY = range(4)
CODE_FUNCTIONS = {CANONICAL_CODE: tree.canonical_code, CODE_FROM_ADJACENCY: tree.code_from_adjacency}
# The span attribute that holds each leaf counter's calls inside the span.
LEAF_ATTRS = {UNLINKED: "unlinked_calls", CANONICAL_CODE: "canonical_codes",
              CODE_FROM_ADJACENCY: "adjacency_codes"}

# (module that holds the name, attribute, span name). One entry per lookup
# site; the span is named after the defining module, so its layer is the
# prefix.
SPAN_SITES = (
    (cli, "main", "cli.main"),
    (cli, "survey_pairs", "survey.survey_pairs"),
    (cli, "write_report", "survey.write_report"),
    (survey, "parse_report", "survey.parse_report"),
    (survey, "verify_report_witnesses", "survey.verify_report_witnesses"),
    (survey, "enumerate_trees", "enumeration.enumerate_trees"),
    (survey, "find_realizable_bijection", SEARCH),
    (survey, "recheck_certificate", "realizability.recheck_certificate"),
    (survey, "is_realizable", "realizability.is_realizable"),
    (enumeration, "enumerate_trees", "enumeration.enumerate_trees"),
    (enumeration, "prufer_oracle_count", "enumeration.prufer_oracle_count"),
    (realizability, "find_realizable_bijection", SEARCH),
    (realizability, "recheck_certificate", "realizability.recheck_certificate"),
    (realizability, "is_realizable", "realizability.is_realizable"),
    (realizability, "exhaustive_search", "realizability.exhaustive_search"),
)


class Counts:
    """Leaf calls of one phase: the four counters and the kept arguments."""

    def __init__(self, leaf: list[int], samples: dict[int, list[tuple]]):
        self.leaf = leaf
        self.samples = samples


class Tracer:
    """Spans and leaf-call counters of the traced part of a run.

    ``install`` patches every site and ``uninstall`` restores the originals.
    Set ``op`` before each op so that its spans carry the op id, and call
    ``take_counts`` to close one phase's leaf counters and start the next.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, op, attrs]
        self.stack: list[int] = []
        self.op = ""
        self.leaf = [0, 0, 0, 0]
        self.samples: dict[int, list[tuple]] = {UNLINKED: [], CANONICAL_CODE: [], CODE_FROM_ADJACENCY: []}
        self._saved: list[tuple] = []

    def take_counts(self) -> Counts:
        # Reset in place: the leaf wrappers hold these very objects.
        done = Counts(self.leaf[:], {k: v[:] for k, v in self.samples.items()})
        self.leaf[:] = [0, 0, 0, 0]
        for kept in self.samples.values():
            kept.clear()
        return done

    def _span(self, name: str, fn):
        spans, stack, leaf = self.spans, self.stack, self.leaf

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, {}]
            stack.append(len(spans))
            spans.append(rec)
            before = leaf[:]
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
                for i, key in LEAF_ATTRS.items():
                    rec[5][key] = leaf[i] - before[i]
            rec[5].update(_attrs(name, args, result))
            return result
        return wrapper

    def _unlinked(self, fn):
        leaf, kept = self.leaf, self.samples[UNLINKED]

        def wrapper(t, p, q):
            result = fn(t, p, q)
            leaf[UNLINKED] += 1
            if result:
                leaf[UNLINKED_TRUE] += 1
            if leaf[UNLINKED] & SAMPLE_MASK == 1:
                kept.append((t, p, q))
            return result
        return wrapper

    def _code(self, index: int, fn):
        leaf, kept = self.leaf, self.samples[index]

        def wrapper(*args):
            leaf[index] += 1
            if leaf[index] & SAMPLE_MASK == 1:
                kept.append(args)
            return fn(*args)
        return wrapper

    def install(self) -> None:
        for module, attr, name in SPAN_SITES:
            self._patch(module, attr, self._span(name, getattr(module, attr)))
        self._patch(realizability, "unlinked", self._unlinked(realizability.unlinked))
        self._patch(enumeration, "canonical_code", self._code(CANONICAL_CODE, enumeration.canonical_code))
        self._patch(enumeration, "code_from_adjacency",
                    self._code(CODE_FROM_ADJACENCY, enumeration.code_from_adjacency))

    def _patch(self, module, attr: str, value) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as handle:
            for name, start, end, parent, op, attrs in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "op": op, "attrs": attrs}) + "\n")


def _attrs(name: str, args: tuple, result) -> dict:
    if name == SEARCH:
        return {"nodes": result.nodes, "checked": result.checked}
    if name == "realizability.exhaustive_search":
        return {"checked": result.checked}
    if name == "enumeration.enumerate_trees":
        return {"edges": args[0], "size": len(result)}
    if name == "survey.write_report":
        return {"bytes": len(survey.format_report(args[0]).encode("ascii"))}
    return {}


def op_group(op: str) -> str:
    """"ref" for the reference round, "check" for the checks of the traced
    rounds, "round" for the traced rounds themselves."""
    return "ref" if op == "ref" else "check" if op.endswith(":check") else "round"


class SpanTotals:
    """Per-name totals over the spans whose op is in one of ``groups``.

    ``attrs`` sums each span's attributes, so a leaf count there includes
    the calls made inside child spans; ``self_leaf`` counts only the calls
    made by the span's own code."""

    def __init__(self, spans: list[list], groups: set[str]):
        child = [0.0] * len(spans)
        child_leaf = [Counter() for _ in spans]
        for _, start, end, parent, _, attrs in spans:
            if parent >= 0:
                child[parent] += end - start
                child_leaf[parent].update({key: attrs[key] for key in LEAF_ATTRS.values()})
        self.total: Counter = Counter()  # outermost span of each name only
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.attrs: Counter = Counter()
        self.self_leaf: Counter = Counter()
        self.kept = 0
        for i, (name, start, end, parent, op, attrs) in enumerate(spans):
            if op_group(op) not in groups:
                continue
            self.calls[name] += 1
            self.self_s[name] += end - start - child[i]
            if not (parent >= 0 and spans[parent][0] == name):
                self.total[name] += end - start
            for key, value in attrs.items():
                self.attrs[f"{name}.{key}"] += value
            for key in LEAF_ATTRS.values():
                self.self_leaf[f"{name}.{key}"] += attrs[key] - child_leaf[i][key]
            # A catalogue call that computed canonical codes itself was a
            # cache miss: it grew its catalogue and kept ``size`` classes.
            if name == "enumeration.enumerate_trees" and attrs["canonical_codes"] > child_leaf[i]["canonical_codes"]:
                self.kept += attrs["size"]

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, seconds in self.self_s.items():
            out[name.split(".", 1)[0]] += seconds
        return out


def replay_seconds(fn, samples: list[tuple], repeats: int = 5) -> float:
    """Seconds per call of ``fn`` over the recorded argument tuples: the
    median of ``repeats`` passes."""
    per_call = []
    for _ in range(repeats):
        start = time.perf_counter()
        for args in samples:
            fn(*args)
        per_call.append((time.perf_counter() - start) / len(samples))
    return statistics.median(per_call)


def census_sequences(edge_count: int = 7, count: int = 2048) -> list[tuple]:
    """Evenly spaced Prüfer sequences of the census's sequence space, as
    ``decode_prufer`` argument tuples."""
    m = edge_count + 1
    step = m ** (m - 2) // count
    return [(seq, m) for seq in islice(product(range(m), repeat=m - 2), 0, None, step)]


def code_us(counts: Counts) -> float:
    """Microseconds per canonical-code call: each function's replayed cost,
    weighted by how often it ran."""
    total = sum(counts.leaf[i] for i in CODE_FUNCTIONS)
    return sum(
        replay_seconds(fn, counts.samples[i]) * counts.leaf[i] / total
        for i, fn in CODE_FUNCTIONS.items() if counts.samples[i]
    ) * 1e6


def layer_metrics(spans: list[list], rounds: int, work: Counts, ref: Counts) -> tuple[dict, dict]:
    """Per-layer metrics of the workload's traced rounds and their checks;
    totals are per round.

    Counts and fractions are always the workload's own, and zero for a layer
    it never calls. A time or a rate whose workload sample is empty is
    measured on the reference round instead, so that every time reads as
    measured; ``sources`` names the metrics that came from there.
    """
    w, r = SpanTotals(spans, {"round", "check"}), SpanTotals(spans, {"ref"})
    sources: dict[str, str] = {}
    m: dict[str, float] = {}

    def timed(metric: str, name: str, field: str = "total") -> float:
        if w.calls[name]:
            return getattr(w, field)[name] / rounds
        sources[metric] = "reference"
        return getattr(r, field)[name]

    def from_work(metric: str, has_work: bool):
        if not has_work:
            sources[metric] = "reference"
        return work if has_work else ref

    code_calls = sum(work.leaf[i] for i in CODE_FUNCTIONS)
    m["tree.code_calls"] = code_calls / rounds
    m["tree.code_us"] = code_us(from_work("tree.code_us", code_calls > 0))

    # The census decodes each sequence straight into neighbour lists and
    # takes one code of each; the catalogue takes one code per grown
    # candidate. Both are counted as the calls made inside those spans.
    m["enumeration.decodes"] = w.self_leaf["enumeration.prufer_oracle_count.adjacency_codes"] / rounds
    m["enumeration.decode_us"] = replay_seconds(enumeration.decode_prufer, census_sequences()) * 1e6
    m["enumeration.catalog_s"] = timed("enumeration.catalog_s", "enumeration.enumerate_trees")
    grown = w.self_leaf["enumeration.enumerate_trees.canonical_codes"]
    m["enumeration.catalog_yield"] = w.kept / grown if grown else 0.0

    calls = work.leaf[UNLINKED]
    m["linking.unlinked_calls"] = calls / rounds
    m["linking.unlinked_true_frac"] = work.leaf[UNLINKED_TRUE] / calls if calls else 0.0
    ns = replay_seconds(linking.unlinked, from_work("linking.unlinked_ns", calls > 0).samples[UNLINKED]) * 1e9
    m["linking.unlinked_ns"] = ns
    in_search = w.attrs[f"{SEARCH}.unlinked_calls"]
    m["linking.search_share"] = in_search * ns * 1e-9 / w.total[SEARCH] if w.total[SEARCH] else 0.0

    m["realizability.search_s"] = timed("realizability.search_s", SEARCH)
    m["realizability.nodes"] = w.attrs[f"{SEARCH}.nodes"] / rounds
    m["realizability.checked"] = w.attrs[f"{SEARCH}.checked"] / rounds
    rate = w if w.calls[SEARCH] else r
    if rate is r:
        sources["realizability.nodes_per_s"] = "reference"
    m["realizability.nodes_per_s"] = rate.attrs[f"{SEARCH}.nodes"] / rate.total[SEARCH]
    m["realizability.recheck_s"] = timed("realizability.recheck_s", "realizability.recheck_certificate")
    m["realizability.recheck_bijections"] = w.attrs["realizability.exhaustive_search.checked"] / rounds
    m["realizability.witness_check_s"] = timed("realizability.witness_check_s", "realizability.is_realizable")

    m["survey.overhead_s"] = timed("survey.overhead_s", "survey.survey_pairs", "self_s")
    m["survey.report_s"] = timed("survey.report_s", "survey.write_report")
    m["survey.report_bytes"] = w.attrs["survey.write_report.bytes"] / rounds
    m["cli.overhead_s"] = timed("cli.overhead_s", "cli.main", "self_s")

    # Self time per layer over the traced rounds alone. Leaf calls have no
    # spans, so linking's and tree's shares are estimated as calls times
    # replayed cost and taken out of their callers, realizability and
    # enumeration.
    own = SpanTotals(spans, {"round"}).layer_self_s()
    own["linking"] = calls * ns * 1e-9
    own["realizability"] -= own["linking"]
    own["tree"] = code_calls * m["tree.code_us"] * 1e-6 if code_calls else 0.0
    own["enumeration"] -= own["tree"]
    return m, {"sources": sources, "layer_self_s_per_round": {k: v / rounds for k, v in own.items()}}
