"""Per-layer spans recorded from outside the package.

``Tracer.install`` rebinds each traced public name in every ``blowupcones``
module namespace that holds it (``weyl.reflect`` and ``cones.reflect`` alike),
and replaces the traced class attributes (``DivisorClass.parse``,
``Certificate.check``, ...).  ``Tracer.uninstall`` puts the originals back.
Spans are recorded only while a request is open, so set-up and the
benchmark's own correctness checks leave no trace.  Spans stay in memory and
are written out at the end of the run.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter_ns

#: Keep at most this many raw spans; aggregates cover every span regardless.
SPAN_CAP = 200_000


def _letters(args, kwargs, result):
    return {"weyl.apply_word.letters": len(args[0])}


def _cremona_calls(args, kwargs, result):
    return {"weyl.cremona.calls": 1} if args[0] == 0 else {}


def _steps(args, kwargs, result):
    return {"weyl.to_standard_form.steps": result.steps}


def _members(name):
    return lambda args, kwargs, result: {f"{name}.members": 1}


def _terms(args, kwargs, result):
    return {"cones.check.terms": len(args[0].terms)}


def _lp(args, kwargs, result):
    return {
        "oracle.cone_member.columns": len(args[0].generators),
        "oracle.cone_member.feasible": type(result).__name__ == "Feasible",
    }


#: span name -> (module, attribute, counter hook) for module-level functions.
FUNCTIONS = {
    "cli.main": ("blowupcones.cli", "main", None),
    "lattice.pairing": ("blowupcones.lattice", "pairing", None),
    "weyl.reflect": ("blowupcones.weyl", "reflect", _cremona_calls),
    "weyl.apply_word": ("blowupcones.weyl", "apply_word", _letters),
    "weyl.to_standard_form": ("blowupcones.weyl", "to_standard_form", _steps),
    "weyl.minus_one": ("blowupcones.weyl", "is_minus_one_divisor", None),
    "cones.is_nef": ("blowupcones.cones", "is_nef", None),
    "cones.nef_decompose": ("blowupcones.cones", "nef_decompose", _members("cones.nef_decompose")),
    "cones.effective_decompose": (
        "blowupcones.cones", "effective_decompose", _members("cones.effective_decompose")),
    "cones.movable_decompose": (
        "blowupcones.cones", "movable_decompose", _members("cones.movable_decompose")),
    "oracle.effective_membership": ("blowupcones.oracle", "effective_membership", None),
    "oracle.cone_member": ("blowupcones.oracle", "cone_member", _lp),
}

#: span name -> (module, class, attribute, counter hook) for class attributes.
METHODS = (
    ("lattice.parse", "blowupcones.lattice", "DivisorClass", "parse", None),
    ("cones.check", "blowupcones.cones", "Certificate", "check", _terms),
    ("cones.serialize", "blowupcones.cones", "Certificate", "to_dict", None),
    ("cones.serialize", "blowupcones.cones", "Certificate", "from_json", None),
)


def _package_modules():
    return [
        module for name, module in list(sys.modules.items())
        if name == "blowupcones" or name.startswith("blowupcones.")
    ]


class Tracer:
    """Records spans (name, start, end, parent, request) at layer boundaries."""

    def __init__(self):
        self.stats: dict[str, list[int]] = {}  # name -> [calls, total ns, self ns]
        self.counters: Counter = Counter()
        self.spans: list[tuple] = []
        self.dropped = 0
        self.request: int | None = None
        self._stack: list[list[int]] = []  # [span id, child ns]
        self._next_id = 0
        self._restore: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def span(self, name: str, fn, hook=None):
        def traced(*args, **kwargs):
            if self.request is None:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            frame = [span_id, 0]
            self._stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                self._stack.pop()
                elapsed = end - start
                if self._stack:
                    self._stack[-1][1] += elapsed
                entry = self.stats.setdefault(name, [0, 0, 0])
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[1]
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((span_id, name, start, end, parent, self.request))
                else:
                    self.dropped += 1
            if hook is not None:
                self.counters.update(hook(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def run_request(self, request_id: int, call, *args):
        """Run one request inside a root span named ``request``."""
        self.request = request_id
        try:
            return self.span("request", call)(*args)
        finally:
            self.request = None

    # -- installing the wrappers -------------------------------------------------

    def install(self) -> None:
        modules = _package_modules()
        by_name = {module.__name__: module for module in modules}
        for name, (module_name, attribute, hook) in FUNCTIONS.items():
            original = getattr(by_name[module_name], attribute)
            traced = self.span(name, original, hook)
            for module in modules:
                if module.__dict__.get(attribute) is original:
                    self._restore.append((module, attribute, original))
                    setattr(module, attribute, traced)
        for name, module_name, class_name, attribute, hook in METHODS:
            cls = getattr(by_name[module_name], class_name)
            raw = cls.__dict__[attribute]
            self._restore.append((cls, attribute, raw))
            if isinstance(raw, classmethod):
                setattr(cls, attribute, classmethod(self.span(name, raw.__func__, hook)))
            else:
                setattr(cls, attribute, self.span(name, raw, hook))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._restore):
            setattr(owner, attribute, original)
        self._restore.clear()

    # -- results ----------------------------------------------------------------

    def write_spans(self, path) -> None:
        keys = ("id", "name", "start_ns", "end_ns", "parent", "request")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics named in BENCHMARK.json, as plain numbers."""
        def calls(name):
            return self.stats.get(name, [0, 0, 0])[0]

        def total(name):
            return self.stats.get(name, [0, 0, 0])[1] / 1e9

        def own(name):
            return self.stats.get(name, [0, 0, 0])[2] / 1e9

        c = self.counters
        out = {
            "cli.main.calls": calls("cli.main"),
            "cli.main.self_s": own("cli.main"),
            "lattice.parse.calls": calls("lattice.parse"),
            "lattice.parse.s": total("lattice.parse"),
            "lattice.pairing.calls": calls("lattice.pairing"),
            "lattice.pairing.s": total("lattice.pairing"),
            "weyl.reflect.calls": calls("weyl.reflect"),
            "weyl.reflect.s": total("weyl.reflect"),
            "weyl.cremona.calls": c["weyl.cremona.calls"],
            "weyl.apply_word.calls": calls("weyl.apply_word"),
            "weyl.apply_word.letters": c["weyl.apply_word.letters"],
            "weyl.apply_word.self_s": own("weyl.apply_word"),
            "weyl.to_standard_form.calls": calls("weyl.to_standard_form"),
            "weyl.to_standard_form.steps": c["weyl.to_standard_form.steps"],
            "weyl.to_standard_form.self_s": own("weyl.to_standard_form"),
            "weyl.minus_one.calls": calls("weyl.minus_one"),
            "weyl.minus_one.self_s": own("weyl.minus_one"),
            "cones.is_nef.calls": calls("cones.is_nef"),
            "cones.is_nef.self_s": own("cones.is_nef"),
        }
        for decomposer in ("nef_decompose", "effective_decompose", "movable_decompose"):
            name = f"cones.{decomposer}"
            out[f"{name}.calls"] = calls(name)
            out[f"{name}.self_s"] = own(name)
            out[f"{name}.members"] = c[f"{name}.members"]
        memberships = calls("oracle.effective_membership")
        lps = calls("oracle.cone_member")
        out.update({
            "cones.check.calls": calls("cones.check"),
            "cones.check.terms": c["cones.check.terms"],
            "cones.check.self_s": own("cones.check"),
            "cones.serialize.s": total("cones.serialize"),
            "oracle.effective_membership.calls": memberships,
            "oracle.effective_membership.self_s": own("oracle.effective_membership"),
            "oracle.cone_member.calls": lps,
            "oracle.cone_member.s": total("oracle.cone_member"),
            "oracle.cone_member.columns": c["oracle.cone_member.columns"],
            "oracle.fresh_lp_ratio": lps / memberships if memberships else 0.0,
            "oracle.feasible_ratio": c["oracle.cone_member.feasible"] / lps if lps else 0.0,
            "trace.spans": sum(entry[0] for entry in self.stats.values()),
        })
        return out
