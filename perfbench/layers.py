"""Per-layer spans and counters, installed from outside the package.

Each public function listed in SPANNED is replaced, in every circulant module
that holds a reference to it (its own module and each `from ... import`
site), by a wrapper that records a span: name, start, end, parent span and
the (rep, operation) pair it belongs to. Functions in COUNTED are too hot for
spans and only count calls. Spans stay in memory until the child reports.
"""

import sys
import time
from collections import Counter, defaultdict

import circulant.cli  # loads every module whose functions are wrapped

# (module, function, span name, extra counter fed from the return value)
SPANNED = [
    ("cli", "main", "cli.main", None),
    ("cli", "poly_to_json", "cli.poly_to_json", lambda r: {"cli.poly_to_json.bytes": len(r)}),
    ("expansion", "expand", "expansion.expand",
     lambda r: {"expansion.expand.terms": len(r.terms)}),
    ("symmetry", "valid_vectors", "symmetry.valid_vectors",
     lambda r: {"symmetry.valid_vectors.vectors": len(r)}),
    ("symmetry", "classify", "symmetry.classify", None),
    ("symmetry", "additive_multiplet", "symmetry.multiplet", None),
    ("symmetry", "super_multiplet", "symmetry.multiplet", None),
    # `coefficient` goes through `coefficient_with_path`, so this one span covers both
    ("coeff_engine", "coefficient_with_path", "coeff_engine.coefficient",
     lambda r: {"coeff_engine.path.%s.calls" % r[1]: 1}),
    ("coeff_engine", "coeff_theorem3", "coeff_engine.coeff_theorem3", None),
    ("coeff_engine", "coeff_special_ab", "coeff_engine.coeff_special_ab", None),
    ("coeff_engine", "reduce_representative", "coeff_engine.reduce_representative", None),
    ("coeff_engine", "zero_by_corollary6", "coeff_engine.zero_by_corollary6", None),
    ("partitions", "multiset_partitions", "partitions.multiset_partitions",
     lambda r: {"partitions.multiset_partitions.set_partitions": len(r)}),
]

COUNTED = [
    ("exactmath", "binomial", "exactmath.binomial.calls"),
    ("exactmath", "factorial", "exactmath.factorial.calls"),
    ("symmetry", "act", "symmetry.act.calls"),
]

SPAN_NAMES = sorted({name for _, _, name, _ in SPANNED})

PATHS = ("residue-gate", "all-equal", "structural-zero", "two-value-tail", "partition-sum")

# counters fed by SPANNED's extra functions; all are reported, zero or not
RESULT_COUNTS = (["coeff_engine.path.%s.calls" % p for p in PATHS]
                 + ["cli.poly_to_json.bytes", "expansion.expand.terms",
                    "symmetry.valid_vectors.vectors",
                    "partitions.multiset_partitions.set_partitions"])


class Tracer:
    def __init__(self, rep):
        self.rep = rep
        self.op = 0
        self.spans = []  # [name, start, end, parent index or -1, rep, op]
        self.stack = []
        self.counts = Counter(dict.fromkeys(RESULT_COUNTS, 0))
        self.hot = {name: [0] for _, _, name in COUNTED}

    def install(self):
        """Wrap every listed function the package still has; the metrics of
        one it no longer has read 0."""
        for module, fn, name, extra in SPANNED:
            original = getattr(sys.modules["circulant." + module], fn, None)
            if original is not None:
                self._rebind(original, self._span(name, extra))
        for module, fn, name in COUNTED:
            original = getattr(sys.modules["circulant." + module], fn, None)
            if original is not None:
                self._rebind(original, self._count(self.hot[name]))

    @staticmethod
    def _rebind(original, make):
        wrapper = make(original)
        for modname, mod in list(sys.modules.items()):
            if modname != "circulant" and not modname.startswith("circulant."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)

    def _span(self, name, extra):
        spans, stack, counts, clock = self.spans, self.stack, self.counts, time.perf_counter

        def make(fn):
            def wrapper(*args, **kwargs):
                rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.rep, self.op]
                stack.append(len(spans))
                spans.append(rec)
                rec[1] = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    rec[2] = clock()
                    stack.pop()
                if extra:
                    try:
                        counts.update(extra(result))
                    except (TypeError, AttributeError, IndexError):
                        pass  # the result changed shape (say, to a generator): no count
                return result
            return wrapper
        return make

    @staticmethod
    def _count(cell):
        def make(fn):
            def wrapper(*args):
                cell[0] += 1
                return fn(*args)
            return wrapper
        return make

    def report(self):
        """Per-name calls, total_s and self_s, the counters, and the raw spans.

        Self time is a span's duration minus the durations of its direct
        children; spans are properly nested because one thread makes them.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        agg = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, _, _, _) in enumerate(self.spans):
            a = agg[name]
            a[0] += 1
            a[1] += end - start
            a[2] += end - start - child_time[i]
        counts = dict(self.counts)
        for name in SPAN_NAMES:
            calls, total, self_s = agg.get(name, (0, 0.0, 0.0))
            counts[name + ".calls"] = calls
            counts[name + ".total_s"] = total
            counts[name + ".self_s"] = self_s
        for name, cell in self.hot.items():
            counts[name] = cell[0]
        return {"counts": counts, "spans": self.spans}
