"""In-memory spans around calls into cubicode's public functions.

install() wraps each traced function at the attribute of the module that
defines it and at every `from ... import` site in the package that binds
the same object, wraps the traced methods on their classes, and wraps the
GF3m table properties so that the first build of each table is timed.
Nothing under src/ changes.

A span is [name, start, end, parent index (-1 at top level), attrs].
Spans stay in memory; layer_metrics() reduces them to the per-layer
metrics once the workload has finished.  The tracer also adds up its own
cost: the time of install() and, for every span, the time spent in the
wrapper outside the traced call (trace.overhead_s).  Spans recorded inside
enumeration worker processes stay in those processes, so the kernel of a
threads > 1 enumeration shows up only as pool waiting in the parent.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

LAYERS = ("gf3m", "chain_ring", "linalg3", "trace_code", "weight_dist", "bounds", "sss", "cli")

# Which end-to-end figure (by the per-workload names the report prints;
# verify_fast_s and sss_m2_s are the task_s of their workloads) each
# per-layer metric is expected to move.
SHOULD_MOVE = {
    "gf3m.get_field.s": "verify_fast_s, setup_s; near zero on enum-m3",
    "gf3m.get_field.calls": "verify_fast_s, setup_s",
    "gf3m.tables.s": "verify_fast_s, setup_s; near zero on enum-m3",
    "chain_ring.defining_set.s": "enum_t1_s (small)",
    "chain_ring.defining_set.elements": "enum_t1_s (small)",
    "trace_code.get_eval_context.s": "enum_t1_s, enum_coords_per_s",
    "trace_code.lee_weights.s": "enum_t1_s, enum_coords_per_s on enum-m3; no change elsewhere",
    "trace_code.lee_weights.calls": "enum_t1_s, enum_coords_per_s on enum-m3",
    "trace_code.lee_weights.scalars": "enum_t1_s, enum_coords_per_s on enum-m3",
    "trace_code.lee_weights.coords": "enum_t1_s, enum_coords_per_s on enum-m3",
    "trace_code.lee_weights.gathers_computed": "enum_t1_s, enum_coords_per_s on enum-m3",
    "trace_code.lee_weights.bytes_computed": "enum_t1_s, enum_coords_per_s on enum-m3",
    "trace_code.evaluate.s": "verify_fast_s via dual search and minimality",
    "trace_code.evaluate.calls": "verify_fast_s",
    "trace_code.evaluate.coords": "verify_fast_s",
    "trace_code.build_code.self_s": "verify_fast_s, sss_m2_s",
    "trace_code.codewords.s": "sss_m2_s",
    "weight_dist.enumerate_distribution.self_s": "enum_t2_s, enum_scaling_eff",
    "weight_dist.enumerate_distribution.pool_wait_s": "enum_t2_s, enum_scaling_eff",
    "weight_dist.charsum_distribution.s": "verify_fast_s",
    "weight_dist.codeword_char_sum.calls": "verify_fast_s",
    "weight_dist.gauss_periods.s": "verify_fast_s",
    "weight_dist.formula_distribution.calls": "verify_fast_s",
    "bounds.dual_weight_search.self_s": "verify_fast_s",
    "bounds.verdict.self_s": "verify_fast_s",
    "sss.minimal_codewords.self_s": "sss_m2_s, roundtrips_per_s; verify_fast_s for the census",
    "sss.minimal_codewords.classes": "sss_m2_s, verify_fast_s",
    "sss.minimal_codewords.minimal_ratio": "sss_m2_s, verify_fast_s",
    "sss.access_structure.self_s": "sss_m2_s",
    "sss.massey_shares.s": "sss_m2_s, roundtrips_per_s",
    "sss.massey_shares.calls": "sss_m2_s, roundtrips_per_s",
    "sss.reconstruct.self_s": "sss_m2_s, roundtrips_per_s",
    "sss.reconstruct.calls": "sss_m2_s, roundtrips_per_s",
    "sss.reconstruct.failed": "fail_ratio",
    "linalg3.row_reduce.s": "roundtrips_per_s on sss-m2",
    "linalg3.row_reduce.calls": "roundtrips_per_s on sss-m2",
    "linalg3.row_reduce.cells": "roundtrips_per_s on sss-m2",
    "cli.build_claims.self_s": "verify_fast_s",
    "cli.claims.match": "verify_fast_s, fail_ratio",
    "cli.claims.flagged": "verify_fast_s, fail_ratio",
    "cli.claims.mismatch": "verify_fast_s, fail_ratio",
    "trace.overhead_s": "none",
}

# metrics derived from the program's work, not from the clock; they must
# repeat exactly between runs of one commit
COUNTS = (
    "gf3m.get_field.calls",
    "chain_ring.defining_set.elements",
    "trace_code.lee_weights.calls",
    "trace_code.lee_weights.scalars",
    "trace_code.lee_weights.coords",
    "trace_code.lee_weights.gathers_computed",
    "trace_code.lee_weights.bytes_computed",
    "trace_code.evaluate.calls",
    "trace_code.evaluate.coords",
    "weight_dist.codeword_char_sum.calls",
    "weight_dist.formula_distribution.calls",
    "sss.minimal_codewords.classes",
    "sss.minimal_codewords.minimal_ratio",
    "sss.massey_shares.calls",
    "sss.reconstruct.calls",
    "sss.reconstruct.failed",
    "linalg3.row_reduce.calls",
    "linalg3.row_reduce.cells",
    "cli.claims.match",
    "cli.claims.flagged",
    "cli.claims.mismatch",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.overhead_s = 0.0
        self._stack: list[int] = []

    def call(self, name, fn, args, kwargs, attrs=None):
        entered = time.perf_counter()
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, {}]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            span[4]["failed"] = 1
            raise
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        if attrs is not None:
            span[4].update(attrs(args, kwargs, result))
        # everything but fn() is the tracer's own cost
        self.overhead_s += time.perf_counter() - entered - (span[2] - span[1])
        return result

    def wrap(self, name, fn, attrs=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, attrs)

        return wrapper


# ---------------------------------------------------------------------------
# what is traced


def _dset_attrs(args, kwargs, result):
    # lru-cached: a repeated result object is a cache hit
    return {"id": id(result), "elements": len(result)}


def _row_reduce_attrs(args, kwargs, result):
    return {"cells": int(np.asarray(args[0]).size)}


def _evaluate_attrs(args, kwargs, result):
    return {"coords": 3 * len(result)}


def _enumerate_attrs(args, kwargs, result):
    return {"threads": kwargs.get("threads", args[1] if len(args) > 1 else 1)}


def _minimal_attrs(args, kwargs, result):
    report = result[0]
    return {
        "classes": report.minimal_count + len(report.non_minimal_classes),
        "minimal": report.minimal_count,
    }


def _claims_attrs(args, kwargs, result):
    out = {"match": 0, "flagged": 0, "mismatch": 0}
    for claim in result:
        out[claim.status] += 1
    return out


def _lee_attrs(args, kwargs, result):
    return {"scalars": len(args[1]), "n": args[0].n}


FUNCTIONS = (
    ("gf3m", "get_field", None),
    ("chain_ring", "get_ring", None),
    ("chain_ring", "defining_set", _dset_attrs),
    ("linalg3", "row_reduce", _row_reduce_attrs),
    ("linalg3", "rank", None),
    ("linalg3", "solve", None),
    ("trace_code", "evaluate", _evaluate_attrs),
    ("trace_code", "get_eval_context", None),
    ("trace_code", "build_code", None),
    ("weight_dist", "enumerate_distribution", _enumerate_attrs),
    ("weight_dist", "charsum_distribution", None),
    ("weight_dist", "codeword_char_sum", None),
    ("weight_dist", "gauss_periods", None),
    ("weight_dist", "formula_distribution", None),
    ("bounds", "dual_weight_search", None),
    ("bounds", "verdict", None),
    ("sss", "minimal_codewords", _minimal_attrs),
    ("sss", "access_structure", None),
    ("sss", "massey_shares", None),
    ("sss", "reconstruct", None),
    ("cli", "build_claims", _claims_attrs),
)
METHODS = (
    ("trace_code", "EvalContext", "lee_weights", _lee_attrs),
    ("trace_code", "TernaryCode", "codewords", None),
)
TABLES = {"mul_table": "mul", "add_table": "add", "trace_table": "trace", "trace_mul_table": "trace_mul"}


def install() -> Tracer:
    """Wrap every traced call site of the imported cubicode package."""
    started = time.perf_counter()
    for module in LAYERS:
        importlib.import_module(f"cubicode.{module}")
    tracer = Tracer()
    modules = [mod for name, mod in sys.modules.items() if name == "cubicode" or name.startswith("cubicode.")]
    for module, attr, attrs in FUNCTIONS:
        original = getattr(sys.modules[f"cubicode.{module}"], attr)
        wrapper = tracer.wrap(f"{module}.{attr}", original, attrs)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapper)
    for module, cls_name, attr, attrs in METHODS:
        cls = getattr(sys.modules[f"cubicode.{module}"], cls_name)
        setattr(cls, attr, tracer.wrap(f"{module}.{attr}", getattr(cls, attr), attrs))
    field_cls = sys.modules["cubicode.gf3m"].GF3m
    for attr, key in TABLES.items():
        setattr(field_cls, attr, property(_first_build(tracer, key, vars(field_cls)[attr].fget)))
    tracer.overhead_s += time.perf_counter() - started
    return tracer


def _first_build(tracer, key, fget):
    def get(field):
        if key in field._tables:
            return fget(field)
        return tracer.call("gf3m.tables", fget, (field,), {})

    return get


# ---------------------------------------------------------------------------
# reduction to per-layer metrics


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced iteration.

    .s is the summed duration of the outermost spans of a name, .self_s
    the summed duration minus the time of direct child spans.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start

    def named(name):
        return [i for i, span in enumerate(spans) if span[0] == name]

    def outermost(i):
        name, parent = spans[i][0], spans[i][3]
        while parent >= 0:
            if spans[parent][0] == name:
                return False
            parent = spans[parent][3]
        return True

    def total(name):
        return sum(spans[i][2] - spans[i][1] for i in named(name) if outermost(i))

    def self_s(name, keep=lambda attrs: True):
        return sum(
            spans[i][2] - spans[i][1] - child_time[i] for i in named(name) if keep(spans[i][4])
        )

    def calls(name):
        return len(named(name))

    def attr_sum(name, key):
        return sum(spans[i][4].get(key, 0) for i in named(name))

    dset_elements = {spans[i][4]["id"]: spans[i][4]["elements"] for i in named("chain_ring.defining_set")}
    lee = [spans[i][4] for i in named("trace_code.lee_weights")]
    pairs = sum(a["scalars"] * a["n"] for a in lee)  # (scalar, set element) pairs scored
    gathers = 6 * pairs  # trace_mul lookups: 1 for t1, 2 for t2, 3 for t3
    classes = attr_sum("sss.minimal_codewords", "classes")

    def pooled(attrs):
        return attrs.get("threads", 1) > 1

    return {
        "gf3m.get_field.s": total("gf3m.get_field"),
        "gf3m.get_field.calls": calls("gf3m.get_field"),
        "gf3m.tables.s": total("gf3m.tables"),
        "chain_ring.defining_set.s": total("chain_ring.defining_set"),
        "chain_ring.defining_set.elements": sum(dset_elements.values()),
        "trace_code.get_eval_context.s": total("trace_code.get_eval_context"),
        "trace_code.lee_weights.s": total("trace_code.lee_weights"),
        "trace_code.lee_weights.calls": len(lee),
        "trace_code.lee_weights.scalars": sum(a["scalars"] for a in lee),
        "trace_code.lee_weights.coords": 3 * pairs,
        # computed, not measured: one int8 table read and one int8 write per gather
        "trace_code.lee_weights.gathers_computed": gathers,
        "trace_code.lee_weights.bytes_computed": 2 * gathers,
        "trace_code.evaluate.s": total("trace_code.evaluate"),
        "trace_code.evaluate.calls": calls("trace_code.evaluate"),
        "trace_code.evaluate.coords": attr_sum("trace_code.evaluate", "coords"),
        "trace_code.build_code.self_s": self_s("trace_code.build_code"),
        "trace_code.codewords.s": total("trace_code.codewords"),
        "weight_dist.enumerate_distribution.self_s": self_s(
            "weight_dist.enumerate_distribution", lambda attrs: not pooled(attrs)
        ),
        "weight_dist.enumerate_distribution.pool_wait_s": self_s("weight_dist.enumerate_distribution", pooled),
        "weight_dist.charsum_distribution.s": total("weight_dist.charsum_distribution"),
        "weight_dist.codeword_char_sum.calls": calls("weight_dist.codeword_char_sum"),
        "weight_dist.gauss_periods.s": total("weight_dist.gauss_periods"),
        "weight_dist.formula_distribution.calls": calls("weight_dist.formula_distribution"),
        "bounds.dual_weight_search.self_s": self_s("bounds.dual_weight_search"),
        "bounds.verdict.self_s": self_s("bounds.verdict"),
        "sss.minimal_codewords.self_s": self_s("sss.minimal_codewords"),
        "sss.minimal_codewords.classes": classes,
        "sss.minimal_codewords.minimal_ratio": attr_sum("sss.minimal_codewords", "minimal") / classes if classes else 0.0,
        "sss.access_structure.self_s": self_s("sss.access_structure"),
        "sss.massey_shares.s": total("sss.massey_shares"),
        "sss.massey_shares.calls": calls("sss.massey_shares"),
        "sss.reconstruct.self_s": self_s("sss.reconstruct"),
        "sss.reconstruct.calls": calls("sss.reconstruct"),
        "sss.reconstruct.failed": attr_sum("sss.reconstruct", "failed"),
        "linalg3.row_reduce.s": total("linalg3.row_reduce"),
        "linalg3.row_reduce.calls": calls("linalg3.row_reduce"),
        "linalg3.row_reduce.cells": attr_sum("linalg3.row_reduce", "cells"),
        "cli.build_claims.self_s": self_s("cli.build_claims"),
        "cli.claims.match": attr_sum("cli.build_claims", "match"),
        "cli.claims.flagged": attr_sum("cli.build_claims", "flagged"),
        "cli.claims.mismatch": attr_sum("cli.build_claims", "mismatch"),
        "trace.overhead_s": tracer.overhead_s,
    }
