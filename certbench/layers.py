"""Per-layer instrumentation of ``eulernerve``, applied from outside the program.

``Instrumentation.install`` wraps public names of the package's modules before a
certificate builds its cochains:

* a module-level function is re-bound in every ``eulernerve`` module that
  holds it, so a name imported elsewhere (``log_grp`` in ``transgression``,
  ``expm`` in ``euler`` and ``loopcocycle``) is traced too;
* a method is wrapped on its class (``WordSumEvaluator.__call__``), which
  reaches instances built before the patch as well;
* a form factory (``exterior_derivative``, ``d_prime``,
  ``transgression_form``) returns its form with a traced ``fn``, so the span
  covers evaluations of the form, not its construction.

A target that a later refactor removes is skipped with a warning; the
metrics fed only by it are then absent from the result.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import math
import pkgutil
import weakref

# (span, module, attribute, kind).  kind "call" traces each call, "form"
# traces evaluations of the returned form, "count" only counts calls.
# Several targets may feed one span.
TARGETS = (
    ("forms.word_contract", "eulernerve.forms", "WordSumEvaluator.__call__", "call"),
    ("forms.exterior_derivative", "eulernerve.forms", "exterior_derivative", "form"),
    ("forms.generator_value", "eulernerve.forms", "generator_value", "count"),
    ("nerve.d_prime", "eulernerve.nerve", "d_prime", "form"),
    ("nerve.faces", "eulernerve.nerve", "face_point", "call"),
    ("nerve.faces", "eulernerve.nerve", "face_pushforward", "call"),
    ("nerve.verify_total_cocycle", "eulernerve.nerve", "verify_total_cocycle", "call"),
    # every scipy expm call the package makes, exp_alg and move_point included
    ("matgroup.expm", "scipy.linalg", "expm", "call"),
    ("matgroup.log_grp", "eulernerve.matgroup", "log_grp", "call"),
    ("transgression.level_map", "eulernerve.transgression", "level_map", "call"),
    ("transgression.beta", "eulernerve.transgression", "transgression_form", "form"),
    ("euler.build", "eulernerve.euler", "builtin_cocycle", "call"),
    ("euler.build", "eulernerve.euler", "generated_cocycle", "call"),
    ("euler.build", "eulernerve.euler", "euler_component", "call"),
    ("simplex.quadrature_rule", "eulernerve.simplex", "quadrature_rule", "call"),
    ("euler.pfaffian_contraction", "eulernerve.euler", "pfaffian_contraction", "call"),
    ("loopcocycle.level1", "eulernerve.loopcocycle", "level1_loop_functional", "call"),
    ("loopcocycle.level2", "eulernerve.loopcocycle", "level2_loop_functional", "call"),
    ("loopcocycle.algebra", "eulernerve.loopcocycle", "loop_bracket", "call"),
    ("loopcocycle.algebra", "eulernerve.loopcocycle", "loop_cocycle", "call"),
    ("loopcocycle.algebra", "eulernerve.loopcocycle", "pf_pairing", "call"),
)

# Per-layer metrics in output order: (metric, unit, source).  A source
# "<span>:calls" or "<span>:self_s" reads the span summary, "counter:<name>"
# a tracer counter; the rest are derived in ``layer_metrics`` or by the runner.
METRICS = (
    ("forms.word_contract.calls", "count", "forms.word_contract:calls"),
    ("forms.word_contract.self_s", "s", "forms.word_contract:self_s"),
    ("forms.word_contract.terms", "count", "counter:forms.word_contract.terms"),
    ("forms.word_contract.table_bytes", "bytes", "counter:forms.word_contract.table_bytes"),
    ("forms.exterior_derivative.calls", "count", "forms.exterior_derivative:calls"),
    ("forms.exterior_derivative.self_s", "s", "forms.exterior_derivative:self_s"),
    ("forms.generator_value.calls", "count", "counter:forms.generator_value.calls"),
    ("nerve.d_prime.calls", "count", "nerve.d_prime:calls"),
    ("nerve.d_prime.self_s", "s", "nerve.d_prime:self_s"),
    ("nerve.faces.calls", "count", "nerve.faces:calls"),
    ("nerve.faces.self_s", "s", "nerve.faces:self_s"),
    ("nerve.verify_total_cocycle.self_s", "s", "nerve.verify_total_cocycle:self_s"),
    ("matgroup.expm.calls", "count", "matgroup.expm:calls"),
    ("matgroup.expm.self_s", "s", "matgroup.expm:self_s"),
    ("matgroup.log_grp.calls", "count", "matgroup.log_grp:calls"),
    ("matgroup.log_grp.self_s", "s", "matgroup.log_grp:self_s"),
    ("matgroup.log_grp.domain_errors", "count", "counter:matgroup.log_grp.domain_errors"),
    ("transgression.level_map.calls", "count", "transgression.level_map:calls"),
    ("transgression.level_map.self_s", "s", "transgression.level_map:self_s"),
    ("transgression.beta.calls", "count", "transgression.beta:calls"),
    ("transgression.beta.self_s", "s", "transgression.beta:self_s"),
    ("transgression.quad_nodes", "count", "counter:transgression.quad_nodes"),
    ("transgression.level_maps_per_node", "ratio", "derived"),
    ("euler.build.self_s", "s", "euler.build:self_s"),
    ("simplex.quadrature_rule.calls", "count", "simplex.quadrature_rule:calls"),
    ("simplex.quadrature_rule.self_s", "s", "simplex.quadrature_rule:self_s"),
    ("euler.pfaffian_contraction.calls", "count", "euler.pfaffian_contraction:calls"),
    ("euler.pfaffian_contraction.self_s", "s", "euler.pfaffian_contraction:self_s"),
    ("loopcocycle.level1.calls", "count", "loopcocycle.level1:calls"),
    ("loopcocycle.level1.self_s", "s", "loopcocycle.level1:self_s"),
    ("loopcocycle.level2.calls", "count", "loopcocycle.level2:calls"),
    ("loopcocycle.level2.self_s", "s", "loopcocycle.level2:self_s"),
    ("loopcocycle.algebra.self_s", "s", "loopcocycle.algebra:self_s"),
    ("process.cpu_s", "s", "runner"),
    ("trace.overhead_s", "s", "runner"),
    ("fail_share", "ratio", "runner"),
)


def _package_modules():
    import eulernerve

    mods = [eulernerve]
    for info in pkgutil.iter_modules(eulernerve.__path__):
        mods.append(importlib.import_module(f"eulernerve.{info.name}"))
    return mods


def _resolve(module: str, attr: str):
    """(owner, name, value) of ``attr`` in ``module``; a dotted attr names a method."""
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    if inspect.isclass(owner) and name not in vars(owner):
        # an inherited slot such as type.__call__ is not the program's method
        raise AttributeError(f"{attr} is not defined on {owner.__name__}")
    return owner, name, getattr(owner, name)


def _count_calls(tracer, counter, fn):
    def counted(*args, **kwargs):
        tracer.add(counter)
        return fn(*args, **kwargs)

    return counted


def _traced_form(tracer, span, factory, per_eval=None):
    """Wrap a form factory so that the forms it builds trace their ``fn``.

    ``per_eval(args, kwargs)`` may return (counter, value) pairs that every
    evaluation of the built form adds.
    """

    def build(*args, **kwargs):
        form = factory(*args, **kwargs)
        try:
            traced = tracer.span(span, form.fn)
            extra = per_eval(args, kwargs) if per_eval is not None else None
            if extra:
                inner = traced

                def traced(*a, **k):
                    for counter, value in extra:
                        tracer.add(counter, value)
                    return inner(*a, **k)

            return dataclasses.replace(form, fn=traced)
        except (AttributeError, TypeError):
            tracer.warn(f"{span}: built form is not a dataclass with `fn`; left untraced")
            return form

    return build


class Instrumentation:
    """Installs the spans of ``TARGETS`` on a tracer and records which exist."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.spans: set[str] = set()
        self.counters: set[str] = set()

    def install(self, targets=TARGETS) -> "Instrumentation":
        modules = _package_modules()
        for span, module, attr, kind in targets:
            try:
                owner, name, original = _resolve(module, attr)
            except (ImportError, AttributeError):
                self.tracer.warn(f"{module}.{attr} not found; its metrics are absent")
                continue
            wrapped = self._wrap(span, kind, original)
            if inspect.isclass(owner):
                self.tracer.patch(owner, name, wrapped)
            else:
                # every binding of the same object inside the package, the
                # defining module included when it is part of the package
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self.tracer.patch(mod, key, wrapped)
            if kind == "count":
                self.counters.add(f"{span}.calls")
            else:
                self.spans.add(span)
        return self

    def _wrap(self, span, kind, fn):
        tracer = self.tracer
        if kind == "count":
            return _count_calls(tracer, f"{span}.calls", fn)
        if kind == "form":
            per_eval = None
            if span == "transgression.beta":
                self.counters.add("transgression.quad_nodes")
                per_eval = lambda args, kwargs: self._quad_nodes(fn, args, kwargs)
            return _traced_form(tracer, span, fn, per_eval)
        if span == "forms.word_contract":
            return self._word_contract(tracer.span(span, fn))
        if span == "matgroup.log_grp":
            return tracer.span(span, self._domain_errors(fn))
        return tracer.span(span, fn)

    def _word_contract(self, traced_call):
        """Count rows x (2p)! terms and the largest product table per call.

        Rows are computed from the evaluator's words and ``shuffle_table``:
        one row per (word, shuffle of its factor degrees).
        """
        from eulernerve import forms

        tracer = self.tracer
        names = ("forms.word_contract.terms", "forms.word_contract.table_bytes")
        self.counters.update(names)
        sizes = weakref.WeakKeyDictionary()

        def terms_of(ev):
            try:
                rows = sum(
                    len(forms.shuffle_table(tuple(f.degree for f in w.factors)))
                    for w in ev.words
                )
                return rows * math.factorial(ev.n)
            except AttributeError:
                if names[0] in self.counters:
                    tracer.warn("WordSumEvaluator words/n or shuffle_table changed; "
                                "word-contraction terms are absent")
                    self.counters.difference_update(names)
                return 0

        def call(ev, *args, **kwargs):
            terms = sizes.get(ev)
            if terms is None:
                terms = sizes[ev] = terms_of(ev)
            tracer.add(names[0], terms)
            tracer.peak(names[1], 8 * terms)
            return traced_call(ev, *args, **kwargs)

        return call

    def _domain_errors(self, fn):
        from eulernerve import matgroup

        domain_error = getattr(matgroup, "DomainError", None)
        if domain_error is None:
            self.tracer.warn("matgroup.DomainError not found; log domain errors are absent")
            return fn
        self.counters.add("matgroup.log_grp.domain_errors")
        tracer = self.tracer

        def log_grp(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except domain_error:
                tracer.add("matgroup.log_grp.domain_errors")
                raise

        return log_grp

    def _quad_nodes(self, factory, args, kwargs):
        """Quadrature nodes one evaluation of a transgression form visits."""
        from eulernerve import simplex

        try:
            bound = inspect.signature(factory).bind(*args, **kwargs)
            bound.apply_defaults()
            rule = inspect.unwrap(simplex.quadrature_rule)(
                bound.arguments["q"], bound.arguments["quad_order"]
            )
            nodes = len(rule.nodes)
        except (AttributeError, KeyError, TypeError):
            if "transgression.quad_nodes" in self.counters:
                self.tracer.warn("transgression_form arguments changed; "
                                 "quadrature nodes are absent")
                self.counters.discard("transgression.quad_nodes")
            return None
        return (("transgression.quad_nodes", nodes),)


def layer_metrics(inst: Instrumentation) -> dict[str, tuple[float, str]]:
    """Metric name -> (value, unit) for every available per-layer metric."""
    summary = inst.tracer.summary()
    counters = inst.tracer.counters
    out = {}
    for metric, unit, source in METRICS:
        if source.startswith("counter:"):
            counter = source[len("counter:"):]
            if counter in inst.counters:
                out[metric] = (counters.get(counter, 0), unit)
        elif ":" in source:
            span, field = source.split(":")
            if span in inst.spans:
                out[metric] = (summary.get(span, {"calls": 0, "self_s": 0.0})[field], unit)
        elif metric == "transgression.level_maps_per_node":
            # useful: 1; the finite-difference pushes add 2 per tangent direction
            if "transgression.level_map.calls" in out and "transgression.quad_nodes" in out:
                nodes = out["transgression.quad_nodes"][0]
                calls = out["transgression.level_map.calls"][0]
                out[metric] = (calls / nodes if nodes else 0.0, unit)
    return out
