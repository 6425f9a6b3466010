"""Spans and counters around the public functions of every ``regfrac`` module.

``Tracer.install`` replaces each public function defined in a ``regfrac``
module, plus the handful of private hooks and methods named in EXTRA, by a
wrapper that records a span: name, start, end, parent span and job id.
The wrapper replaces the function at every binding site: a name bound by
``from .indicator import gwlp`` in ``regfrac.isomorphism``, ``regfrac.cli``
and the package namespace is patched as well as ``regfrac.indicator.gwlp``,
and a method bound under two names (``__mul__``/``__rmul__``) under both.
``uninstall`` puts every original back.

Self time is a span's duration minus the time its child spans cover; it
is summed per name while the run goes.  Spans stay in memory and are
written out by ``write_spans`` when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
import types
from array import array

LAYERS = ("cli", "design", "indicator", "cyclotomic", "permutation", "regularity", "isomorphism", "linalg")

# (module, qualified attribute, span name) for hooks that are not public
# module functions
EXTRA = (
    ("regularity", "_multilayer_search", "regularity.multilayer"),
    ("cyclotomic", "CycInt.__init__", "cyclotomic.CycInt.init"),
    ("cyclotomic", "CycInt.__mul__", "cyclotomic.CycInt.mul"),
    ("cyclotomic", "CycRational.__init__", "cyclotomic.CycRational.init"),
)

# name -> (unit, better).  Spans supply ``.calls`` and ``.self_s``; the
# rest come from argument/result observers and the CLI's JSON output.
PER_LAYER = {
    "indicator.level_counts.calls": ("count", "lower"),
    "indicator.level_counts.self_s": ("s", "lower"),
    "indicator.level_counts.rows_visited": ("count", "lower"),
    "indicator.gwlp.self_s": ("s", "lower"),
    "indicator.aberration.self_s": ("s", "lower"),
    "indicator.strength_from_coefficients.self_s": ("s", "lower"),
    "indicator.nonzero_coefficients_up_to.self_s": ("s", "lower"),
    "indicator.nonzero_ratio": ("ratio", "higher"),
    "cyclotomic.CycInt.init.calls": ("count", "lower"),
    "cyclotomic.CycInt.init.self_s": ("s", "lower"),
    "cyclotomic.CycInt.mul.calls": ("count", "lower"),
    "cyclotomic.CycRational.init.calls": ("count", "lower"),
    "cyclotomic.CycRational.init.self_s": ("s", "lower"),
    "cyclotomic.validate_levels.calls": ("count", "lower"),
    "permutation.coset_representatives.yielded": ("count", "lower"),
    "regularity.find_triple_equation.calls": ("count", "lower"),
    "regularity.find_triple_equation.self_s": ("s", "lower"),
    "regularity.table_rank_one.calls": ("count", "lower"),
    "regularity.table_rank_one.self_s": ("s", "lower"),
    "regularity.table_rank_one.hit_ratio": ("ratio", "higher"),
    "regularity.multilayer.calls": ("count", "lower"),
    "regularity.multilayer.self_s": ("s", "lower"),
    "regularity.tuples_examined": ("count", "lower"),
    "regularity.commit_ratio": ("ratio", "higher"),
    "regularity.regularity_check.self_s": ("s", "lower"),
    "regularity.verify_equations.self_s": ("s", "lower"),
    "permutation.apply_level_perm.calls": ("count", "lower"),
    "permutation.apply_level_perm.self_s": ("s", "lower"),
    "design.regular_fraction.self_s": ("s", "lower"),
    "linalg.self_s": ("s", "lower"),
    "design.strength_combinatorial.self_s": ("s", "lower"),
    "design.project.calls": ("count", "lower"),
    "isomorphism.is_isomorphic.self_s": ("s", "lower"),
    "isomorphism.candidates_checked": ("count", "lower"),
    "isomorphism.gwlp_prefilter.self_s": ("s", "lower"),
    "isomorphism.prefilter_reject_ratio": ("ratio", "higher"),
    "isomorphism.apply_witness.self_s": ("s", "lower"),
    "permutation.poly_coefficients.self_s": ("s", "lower"),
    "permutation.check_perm_constraints.self_s": ("s", "lower"),
    "design.parse_design.self_s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "higher"),
}

# Counts that must repeat exactly across two traced runs of one seed.
REPEATABLE = tuple(
    name for name in PER_LAYER
    if name.endswith((".calls", ".rows_visited", ".yielded")) or name in (
        "regularity.tuples_examined", "isomorphism.candidates_checked")
)


def _modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "regfrac" or name.startswith("regfrac."))]


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


class Tracer:
    def __init__(self):
        self.job = -1
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.counters = {"rows_visited": 0, "numerators": 0, "nonzero": 0, "rank_one_hits": 0,
                         "prefilter_rejects": 0, "yielded": 0, "tuples_examined": 0,
                         "equations": 0, "candidates_checked": 0}
        # one entry per span, in start order
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, name id, start, child seconds]
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        return len(self.names) - 1

    def _enter(self, nid: int) -> None:
        stack = self._stack
        index = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_job.append(self.job)
        self.span_end.append(0.0)
        start = time.perf_counter()
        self.span_start.append(start)
        stack.append([index, nid, start, 0.0])

    def _exit(self) -> None:
        end = time.perf_counter()
        index, nid, start, child = self._stack.pop()
        self.span_end[index] = end
        duration = end - start
        self.self_s[nid] += duration - child
        if self._stack:
            self._stack[-1][3] += duration

    def _wrap(self, name: str, fn, observe=None):
        nid = self._name_id(name)
        tracer = self
        if inspect.isgeneratorfunction(fn):
            def resume(gen):
                while True:
                    tracer._enter(nid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit()
                    if observe is not None:
                        observe(item)
                    yield item

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                tracer.calls[nid] += 1
                return resume(fn(*args, **kwargs))
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                tracer.calls[nid] += 1
                tracer._enter(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._exit()
                if observe is not None:
                    observe(args, result)
                return result
        return wrapper

    # ---------------------------------------------------------- patching

    def _observers(self):
        c = self.counters

        def rows(args, result):
            c["rows_visited"] += args[0].n

        def numerator(args, result):
            c["numerators"] += 1
            c["nonzero"] += not result.is_zero()

        def rank_one(args, result):
            c["rank_one_hits"] += bool(result)

        def prefilter(args, result):
            c["prefilter_rejects"] += not result

        def representative(item):
            c["yielded"] += 1

        return {
            "indicator.level_counts": rows,
            "indicator.numerator_from_counts": numerator,
            "regularity.table_rank_one": rank_one,
            "isomorphism.gwlp_prefilter": prefilter,
            # observers of generators see each item as it is yielded
            "permutation.coset_representatives": representative,
        }

    def _targets(self):
        """(span name, original function) for every function to wrap."""
        out = []
        for layer in LAYERS:
            module = sys.modules[f"regfrac.{layer}"]
            for attr, obj in sorted(vars(module).items()):
                if (not attr.startswith("_") and isinstance(obj, types.FunctionType)
                        and obj.__module__ == module.__name__):
                    out.append((f"{layer}.{attr}", obj))
        for layer, qualname, name in EXTRA:
            owner = sys.modules[f"regfrac.{layer}"]
            for part in qualname.split("."):
                owner = getattr(owner, part)
            out.append((name, owner))
        return out

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        import regfrac.cli  # noqa: F401  (loads every module the CLI binds)

        observers = self._observers()
        # every namespace that can bind a regfrac function: modules and classes
        owners = []
        for module in _modules():
            owners.append(module)
            owners.extend(v for v in vars(module).values()
                          if isinstance(v, type) and v.__module__.startswith("regfrac"))
        for name, original in self._targets():
            wrapper = self._wrap(name, original, observers.get(name))
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        self._patches.append((owner, attr, original))
                        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ----------------------------------------------------------- results

    def observe_output(self, command: str, stdout: str) -> None:
        """Counters the CLI reports in its JSON output."""
        if command not in ("regularity", "iso"):
            return
        try:
            payload = json.loads(stdout)
        except ValueError:
            return  # the checker reports malformed output
        c = self.counters
        if command == "regularity":
            c["tuples_examined"] += payload.get("tuples_examined", 0)
            c["equations"] += len(payload.get("equations", ()))
        else:
            c["candidates_checked"] += payload.get("candidates_checked", 0)

    def _by_name(self, table) -> dict:
        return {name: table[i] for i, name in enumerate(self.names)}

    def metrics(self) -> dict:
        """Every PER_LAYER metric except trace.overhead_ratio."""
        calls = self._by_name(self.calls)
        self_s = self._by_name(self.self_s)
        c = self.counters

        def layer_self(layer):
            return sum(v for k, v in self_s.items() if k.startswith(layer + "."))

        out = {}
        for name in PER_LAYER:
            stem, _, kind = name.rpartition(".")
            if kind == "calls":
                out[name] = calls[stem]
            elif kind == "self_s" and stem in self_s:
                out[name] = self_s[stem]
        out["indicator.level_counts.rows_visited"] = c["rows_visited"]
        out["indicator.nonzero_ratio"] = _ratio(c["nonzero"], c["numerators"])
        out["permutation.coset_representatives.yielded"] = c["yielded"]
        out["regularity.table_rank_one.hit_ratio"] = _ratio(c["rank_one_hits"], calls["regularity.table_rank_one"])
        out["regularity.tuples_examined"] = c["tuples_examined"]
        out["regularity.commit_ratio"] = _ratio(c["equations"], c["tuples_examined"])
        out["linalg.self_s"] = layer_self("linalg")
        # main plus the parser it builds: argparse, JSON and printing
        out["cli.main.self_s"] = layer_self("cli")
        out["isomorphism.candidates_checked"] = c["candidates_checked"]
        out["isomorphism.prefilter_reject_ratio"] = _ratio(c["prefilter_rejects"], calls["isomorphism.gwlp_prefilter"])
        return {name: out[name] for name in PER_LAYER if name in out}

    def write_spans(self, path) -> None:
        """One tab-separated line per span, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            f.write("span\tparent\tjob\tname\tstart\tend\n")
            names = self.names
            for i in range(len(self.span_name)):
                f.write(f"{i}\t{self.span_parent[i]}\t{self.span_job[i]}\t{names[self.span_name[i]]}\t"
                        f"{self.span_start[i]!r}\t{self.span_end[i]!r}\n")
