"""The wrapped layer boundaries, as data, and the per-layer metrics.

Each `Boundary` names a function or method of pihall ('module:qualname')
and the span recorded around its calls.  A probe, where given, reads a
count at the boundary: a cache hit, a `None` (aborted) result, a returned
route, degree or level count, or backtrack nodes.  `PER_LAYER` says how
each per-layer metric is computed and from which spans; the metric's name,
unit and direction are listed once, in BENCHMARK.json.  When one of a
metric's boundaries no longer exists in pihall, the metric is left out and
a note says why, rather than reading zero.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass


@dataclass(frozen=True)
class Boundary:
    target: str
    span: str
    probe: object = None


class CacheHit:
    """A call hits a dict cache when the cache's size does not change; a
    miss inserts (or clears and inserts).  Calls made while the cache
    attribute does not exist are counted as unmeasured."""

    def __init__(self, module: str, attr: str, counter: str):
        self.module, self.attr, self.counter = module, attr, counter

    def _cache(self):
        mod = sys.modules.get(self.module)
        return None if mod is None else getattr(mod, self.attr, None)

    def before(self, rec, args, kwargs):
        cache = self._cache()
        return None if cache is None else len(cache)

    def after(self, rec, token, args, result, failed):
        cache = self._cache()
        if token is None or cache is None:
            rec.counters[f"{self.counter}.unmeasured"] += 1
        elif not failed and len(cache) == token:
            rec.counters[self.counter] += 1


class NoneResult:
    def __init__(self, counter: str):
        self.counter = counter

    def before(self, rec, args, kwargs):
        return None

    def after(self, rec, token, args, result, failed):
        if not failed and result is None:
            rec.counters[self.counter] += 1


class SetOrbitGrowth:
    """`_SetOrbits.class_id` ran an orbit BFS when it appended a class."""

    def before(self, rec, args, kwargs):
        return len(args[0].class_reps)

    def after(self, rec, token, args, result, failed):
        if len(args[0].class_reps) > token:
            rec.counters["hall.set_orbit_bfs"] += 1


class AttrSum:
    """Adds a number read from the result (or counts a string value)."""

    def __init__(self, counter: str, read, by_value: bool = False):
        self.counter, self.read, self.by_value = counter, read, by_value

    def before(self, rec, args, kwargs):
        return None

    def after(self, rec, token, args, result, failed):
        if failed:
            return
        value = self.read(result)
        if self.by_value:
            rec.counters[f"{self.counter}.{value}"] += 1
        else:
            rec.counters[self.counter] += value


SEARCH_KINDS = ("normalizer", "centralizer", "element_centralizer",
                "conjugating_element", "partition_stabilizer")


class SearchNodes:
    """Nodes a `_Searcher.find` call visited, charged to the outermost
    public search open around it, or to 'predicate' for a bare
    PredicateProperty search."""

    def before(self, rec, args, kwargs):
        return args[0].nodes

    def after(self, rec, token, args, result, failed):
        searcher = args[0]
        kind = None
        for name in rec.open_names():
            if name.startswith("backtrack.") and name[10:] in SEARCH_KINDS:
                kind = name[10:]
                break
        if kind is None:
            kind = ("predicate"
                    if type(searcher.prop).__name__ == "PredicateProperty"
                    else "other")
        rec.counters[f"backtrack.nodes.{kind}"] += searcher.nodes - token


SUITE_KEYS = {
    "suite_lemma4_1": "lemma-4.1", "suite_lemma4_2": "lemma-4.2",
    "suite_lemma5": "lemma-5", "suite_lemma7": "lemma-7",
    "suite_lemma9": "lemma-9", "suite_lemma11": "lemma-11",
    "suite_lemma12": "lemma-12", "suite_lemma13": "lemma-13",
    "suite_lemma15": "lemma-15", "suite_lemma16": "lemma-16",
    "suite_theorem1": "theorem-1", "suite_theorem10": "theorem-10",
    "suite_corollary18": "corollary-18",
    "suite_oracle_selfcheck": "oracle-selfcheck",
}

ROUTES = ("element-action", "ambient-faithful", "coset-on-centralizer")
NODE_KINDS = SEARCH_KINDS + ("predicate",)

# The spans the corpus workloads time as their queries: compare_with_oracle
# is how run_corpus's entry comparisons are seen from outside it.
_COMPARE = Boundary("pihall.reduction:compare_with_oracle",
                    "reduction.compare_with_oracle")
QUERY_BOUNDARIES = {"corpus-warm": _COMPARE, "corpus-full": _COMPARE}

BOUNDARIES = (
    Boundary("pihall.groups:_Chain.__init__", "groups.chain"),
    Boundary("pihall.perms:Perm.order", "perms.order"),
    Boundary("pihall.tables:ElementTable.__init__", "tables.build"),
    Boundary("pihall.tables:ElementTable.conj_maps", "tables.conj_maps"),
    Boundary("pihall.tables:ElementTable.classes", "tables.classes"),
    Boundary("pihall.tables:ElementTable.coset_reps", "tables.coset_reps"),
    Boundary("pihall.tables:ElementTable.closure", "tables.closure",
             NoneResult("tables.closure_aborts")),
    Boundary("pihall.hall:_SetOrbits.class_id", "hall.set_orbit",
             SetOrbitGrowth()),
    Boundary("pihall.hall:_dominance_check", "hall.dominance"),
    Boundary("pihall.hall:classify_ECD", "hall.classify",
             CacheHit("pihall.hall", "_classify_cache", "hall.classify_hits")),
    Boundary("pihall.hall:sylow", "hall.sylow"),
    Boundary("pihall.hall:k_induced", "hall.k_induced"),
    Boundary("pihall.hall:are_conjugate", "hall.are_conjugate"),
    Boundary("pihall.structure:get_table", "structure.get_table",
             CacheHit("pihall.structure", "_table_cache",
                      "structure.table_hits")),
    Boundary("pihall.structure:normal_closure", "structure.normal_closure"),
    Boundary("pihall.structure:chief_series", "structure.chief_series"),
    Boundary("pihall.structure:minimal_normal_subgroups",
             "structure.minimal_normal"),
    Boundary("pihall.structure:normal_subgroups", "structure.normal_subgroups"),
    Boundary("pihall.structure:induced_automizer", "structure.automizer",
             AttrSum("structure.automizer_route", lambda r: r.route,
                     by_value=True)),
    Boundary("pihall.actions:coset_action", "actions.coset_action",
             AttrSum("actions.coset_degree_sum", lambda r: r.domain_size)),
    Boundary("pihall.actions:section_action", "actions.section_action"),
    *(Boundary(f"pihall.backtrack:{k}", f"backtrack.{k}") for k in SEARCH_KINDS),
    Boundary("pihall.backtrack:subgroup_search", "backtrack.subgroup_search"),
    Boundary("pihall.backtrack:element_search", "backtrack.element_search"),
    Boundary("pihall.backtrack:_Searcher.find", "backtrack.find", SearchNodes()),
    Boundary("pihall.reduction:cpi_reduce", "reduction.cpi_reduce",
             AttrSum("reduction.levels", lambda r: len(r.levels))),
    Boundary("pihall.reduction:automizer_cpi_check", "reduction.automizer_check"),
    _COMPARE,
    Boundary("pihall.registry:SpecialCaseRegistry.lookup_cpi_verdict",
             "registry.lookup_cpi_verdict"),
    Boundary("pihall.registry:SpecialCaseRegistry.lookup_hall",
             "registry.lookup_hall"),
    Boundary("pihall.registry:SpecialCaseRegistry.register_cpi_verdict",
             "registry.register_cpi_verdict"),
    Boundary("pihall.registry:SpecialCaseRegistry.register_hall",
             "registry.register_hall"),
    *(Boundary(f"pihall.suites:{fn}", f"suites.{key}")
      for fn, key in SUITE_KEYS.items()),
    Boundary("pihall.zoo:flag_stabilizer", "zoo.flag_stabilizer"),
    Boundary("pihall.zoo:dual_flag_conjugator", "zoo.dual_flag_conjugator"),
)

BACKTRACK_SPANS = tuple(b.span for b in BOUNDARIES
                        if b.span.startswith("backtrack."))


@dataclass(frozen=True)
class Metric:
    name: str
    spans: tuple          # spans whose boundaries must exist
    value: object         # f(rec) -> number
    cache_counter: str | None = None   # a CacheHit counter it is read from


def _calls(span):
    return lambda rec: rec.stat(span)[0]


def _self(*spans):
    return lambda rec: sum(rec.stat(s)[1] for s in spans)


def _counter(name):
    return lambda rec: rec.counters.get(name, 0)


def _ratio(counter, span):
    """counter / calls of span; 0 when the span was never entered."""
    def f(rec):
        calls = rec.stat(span)[0]
        return rec.counters.get(counter, 0) / calls if calls else 0.0
    return f


def _hit_ratio(name, counter, span):
    return Metric(name, (span,), _ratio(counter, span), counter)


def _count(name, span, value=None):
    return Metric(name, (span,), value or _calls(span))


def _secs(name, *spans):
    return Metric(name, spans, _self(*spans))


# Which end-to-end metric each layer should move, and where:
#   groups.chain_*            wall_s on reduce-cold, corpus-warm, gl52-example
#   perms.order_*             wall_s on oracle-cold, corpus-warm
#   tables.*                  wall_s, peak_rss_mb (query_p75_ms for closure)
#                             on oracle-cold, corpus-warm
#   hall.set_orbit_*          wall_s on oracle-cold
#   hall.dominance_*          wall_s on oracle-cold, corpus-warm
#   hall.classify/sylow/k_induced/are_conjugate   wall_s on corpus-warm
#   structure.*               wall_s on reduce-cold, corpus-warm
#                             (automizer: also query_p75_ms on reduce-cold)
#   actions.*, reduction.*, registry.lookup_*     wall_s on reduce-cold
#   backtrack.*               wall_s on gl52-example, corpus-warm
#   suites.*                  wall_s on corpus-warm
#   zoo.*, registry.register_s                    wall_s on gl52-example
# A change to tables or the oracle should leave reduce-cold and gl52-example
# unchanged; a change to chains or the registry should leave oracle-cold so.
PER_LAYER = (
    _count("groups.chain_builds", "groups.chain"),
    _secs("groups.chain_s", "groups.chain"),
    _count("perms.order_calls", "perms.order"),
    _secs("perms.order_s", "perms.order"),
    _count("tables.builds", "tables.build"),
    _secs("tables.build_s", "tables.build"),
    _secs("tables.conj_maps_s", "tables.conj_maps"),
    _secs("tables.classes_s", "tables.classes"),
    _secs("tables.coset_reps_s", "tables.coset_reps"),
    _count("tables.closure_calls", "tables.closure"),
    _secs("tables.closure_s", "tables.closure"),
    Metric("tables.closure_abort_ratio", ("tables.closure",),
           _ratio("tables.closure_aborts", "tables.closure")),
    _count("hall.set_orbit_calls", "hall.set_orbit"),
    _count("hall.set_orbit_bfs", "hall.set_orbit",
           _counter("hall.set_orbit_bfs")),
    _secs("hall.set_orbit_s", "hall.set_orbit"),
    _count("hall.dominance_calls", "hall.dominance"),
    _secs("hall.dominance_s", "hall.dominance"),
    _count("hall.classify_calls", "hall.classify"),
    _hit_ratio("hall.classify_cache_hit_ratio", "hall.classify_hits",
               "hall.classify"),
    _secs("hall.sylow_s", "hall.sylow"),
    _secs("hall.k_induced_s", "hall.k_induced"),
    _secs("hall.are_conjugate_s", "hall.are_conjugate"),
    _hit_ratio("structure.table_cache_hit_ratio", "structure.table_hits",
               "structure.get_table"),
    _count("structure.normal_closure_calls", "structure.normal_closure"),
    _secs("structure.normal_closure_s", "structure.normal_closure"),
    _secs("structure.chief_series_s", "structure.chief_series"),
    _secs("structure.minimal_normal_s", "structure.minimal_normal"),
    _secs("structure.normal_subgroups_s", "structure.normal_subgroups"),
    _secs("structure.automizer_s", "structure.automizer"),
    *(_count(f"structure.automizer_route.{r}", "structure.automizer",
             _counter(f"structure.automizer_route.{r}")) for r in ROUTES),
    _count("actions.coset_action_calls", "actions.coset_action"),
    _count("actions.coset_degree_sum", "actions.coset_action",
           _counter("actions.coset_degree_sum")),
    _secs("actions.coset_action_s", "actions.coset_action"),
    _secs("actions.section_action_s", "actions.section_action"),
    *(_count(f"backtrack.nodes.{k}", "backtrack.find",
             _counter(f"backtrack.nodes.{k}")) for k in NODE_KINDS),
    Metric("backtrack.search_s", ("backtrack.find",),
           _self(*BACKTRACK_SPANS)),
    _secs("reduction.cpi_reduce_s", "reduction.cpi_reduce"),
    _secs("reduction.automizer_check_s", "reduction.automizer_check"),
    _count("reduction.levels", "reduction.cpi_reduce",
           _counter("reduction.levels")),
    Metric("registry.lookup_calls",
           ("registry.lookup_cpi_verdict", "registry.lookup_hall"),
           lambda rec: rec.stat("registry.lookup_cpi_verdict")[0]
           + rec.stat("registry.lookup_hall")[0]),
    _secs("registry.lookup_s", "registry.lookup_cpi_verdict",
          "registry.lookup_hall"),
    _secs("registry.register_s", "registry.register_cpi_verdict",
          "registry.register_hall"),
    *(_secs(f"suites.{key}_s", f"suites.{key}") for key in SUITE_KEYS.values()),
    _secs("zoo.flag_stabilizer_s", "zoo.flag_stabilizer"),
    _secs("zoo.dual_flag_conjugator_s", "zoo.dual_flag_conjugator"),
)

def per_layer_values(rec, missing_targets) -> tuple[dict, dict]:
    """({name: value} from one traced pass, {name: why absent})."""
    span_target = {b.span: b.target for b in BOUNDARIES}
    missing_spans = {b.span for b in BOUNDARIES if b.target in missing_targets}
    out, absent = {}, {}
    for m in PER_LAYER:
        gone = [span_target[s] for s in m.spans if s in missing_spans]
        if gone:
            absent[m.name] = f"boundary {', '.join(gone)} not found in pihall"
        elif m.cache_counter and rec.counters.get(f"{m.cache_counter}.unmeasured"):
            absent[m.name] = "the cache it reads is gone"
        else:
            out[m.name] = m.value(rec)
    for k in sorted(rec.counters):
        if k.startswith(("structure.automizer_route.", "backtrack.nodes.")) \
                and k not in out:
            absent[k] = f"counted {rec.counters[k]}, but no metric reads it"
    return out, absent
