"""Command line interface.

Subcommands:

    weights       Lee weight distribution of the ternary image
    bounds        Griesmer verdict plus the dual-distance certificate
    dual          dual-distance certificate alone
    sss           secret sharing access structure and dictator census
    export        generator matrix, weight distribution, or access structure
    verify-paper  replay the documented reference results as claim records

Each subcommand is one entry of COMMANDS (help, handler, arguments), and
build_parser() makes the full parser from the table.  main reads plain
argv (exact long options, each at most once, with values that convert
and lie in their choices) straight from the named subcommand's entry
with _match, building no parser.  Anything else (help, abbreviations,
--opt=value, usage errors) goes to the full parser, so every help text
and usage error is byte-for-byte the full parser's.

Exit status: 0 when everything checked out (flagged claims included),
1 when a verification claim mismatched or a round trip failed, 2 on
usage errors and out-of-range requests.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields
from functools import cache, partial

from .bounds import (
    closed_form_sum_d_plus_1,
    dual_weight_search,
    sphere_packing_t1,
    verdict,
)
from .chain_ring import KIND_LPRIME, KIND_UNITS, KINDS, code_length
from .sss import access_structure, massey_shares, minimality_report, reconstruct
from .trace_code import LAYOUTS, CodeSpec, build_code, export_generators
from .weight_dist import (
    WeightDistribution,
    charsum_distribution,
    distribution_csv,
    enumerate_distribution,
    formula_distribution,
    gauss_periods,
)

# reference values the implementation is checked against
REFERENCE_TABLES = {
    (KIND_LPRIME, 1): {0: 1, 18: 24, 27: 2},
    (KIND_UNITS, 1): {0: 1, 36: 24, 54: 2},
    (KIND_LPRIME, 2): {0: 1, 486: 4, 648: 720, 972: 4},
    (KIND_UNITS, 2): {0: 1, 1296: 720, 1458: 8},
    (KIND_LPRIME, 3): {0: 1, 18954: 19656, 19683: 26},
    (KIND_UNITS, 3): {0: 1, 37908: 19656, 39366: 26},
}

REFERENCE_OPTIMAL = {
    (KIND_LPRIME, 1): True,
    (KIND_UNITS, 1): True,
    (KIND_LPRIME, 2): False,
    (KIND_UNITS, 2): True,
}

# stated closed-form Griesmer totals at d + 1 for the two-weight families
REFERENCE_GRIESMER_TOTAL = {
    (KIND_LPRIME, 1): 27 + 2 * 1 - 1,
    (KIND_LPRIME, 3): 28431 + 2 * 3 - 1,
    (KIND_UNITS, 1): 54 + 2 * 1 - 1,
    (KIND_UNITS, 2): 1944 + 2 * 2 - 1,
}


# ---------------------------------------------------------------------------
# shared helpers


def _resolve_distribution(args, spec: CodeSpec) -> WeightDistribution | None:
    """The distribution args.method asks for; auto is the closed form.

    An enumeration is cross-checked against the closed form orbit by
    orbit; on disagreement an error line goes to stderr and None is
    returned, which the commands turn into exit status 1.
    """
    if args.method == "charsum":
        return charsum_distribution(spec)
    if args.method != "enumerate":
        return formula_distribution(spec)
    dist = enumerate_distribution(spec, threads=args.threads)
    if formula_distribution(spec).orbit_weights != dist.orbit_weights:
        print("error: enumeration disagrees with the closed form", file=sys.stderr)
        return None
    return dist


def _spec_from_args(args) -> CodeSpec:
    layout = getattr(args, "layout", "interleaved")
    return CodeSpec(m=args.m, set_kind=args.set, layout=layout)


def _distribution_text(spec: CodeSpec, dist: WeightDistribution) -> str:
    N = code_length(spec.m, spec.set_kind)
    lines = [
        f"ternary image [{N}, {3 * spec.m}] (m={spec.m}, set={spec.set_kind}), "
        f"method={dist.method}"
    ]
    width = max(len(str(w)) for w in dist.entries)
    fwidth = max(len(str(f)) for f in dist.entries.values())
    lines.append(f"  {'weight'.rjust(width + 6)}  {'frequency'.rjust(fwidth + 9)}")
    for w, f in sorted(dist.entries.items()):
        lines.append(f"  {str(w).rjust(width + 6)}  {str(f).rjust(fwidth + 9)}")
    return "\n".join(lines) + "\n"


def _fields(result) -> dict:
    """A result dataclass's JSON payload: its fields by name, in order, less any left at a None default.

    A repr=False field is not exported.  Shallow: the values are the
    instance's own, not deep copies.  Each is one json writes as it is
    (int keys as strings, tuples as arrays).
    """
    exported = [f for f in fields(result) if f.repr]
    return {f.name: v for f in exported if (v := getattr(result, f.name)) is not None or f.default is not None}


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {out}: {exc.strerror or exc}") from exc


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_weights(args) -> int:
    spec = _spec_from_args(args)
    dist = _resolve_distribution(args, spec)
    if dist is None:
        return 1
    if args.output == "json":
        sys.stdout.write(_json(_fields(dist)))
    elif args.output == "csv":
        sys.stdout.write(distribution_csv(dist))
    else:
        sys.stdout.write(_distribution_text(spec, dist))
    return 0


def cmd_bounds(args) -> int:
    spec = _spec_from_args(args)
    v = verdict(spec)
    if args.output == "json":
        sys.stdout.write(_json(_fields(v)))
        return 0
    lines = [
        f"[{v.N}, {v.K}, {v.d}] ternary image (m={spec.m}, set={spec.set_kind})",
        f"griesmer sum at d:     {v.griesmer_sum_d} (bound {'holds' if v.griesmer_sum_d <= v.N else 'fails'} against N={v.N})",
        f"griesmer sum at d + 1: {v.griesmer_sum_d1} ({'>' if v.griesmer_sum_d1 > v.N else '<='} N)",
        f"distance-optimal: {'yes' if v.optimal else 'no'}",
    ]
    if v.dual_distance is not None:
        lines.append(f"dual distance: {v.dual_distance}, witness {list(v.witness)}")
    for note in v.notes:
        lines.append(f"note: {note}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def cmd_dual(args) -> int:
    spec = _spec_from_args(args)
    cert = dual_weight_search(spec)
    if args.output == "json":
        sys.stdout.write(_json(_fields(cert)))
    else:
        sys.stdout.write(
            f"dual distance {cert.distance} (weight 1 exhausted: "
            f"{cert.weight1_exhausted})\nwitness: {[list(p) for p in cert.witness]}\n"
        )
    return 0


def cmd_sss(args) -> int:
    spec = _spec_from_args(args)
    code = build_code(spec)
    acc = access_structure(code)
    round_trip = None
    if acc.minimal_access_sets:
        group = acc.minimal_access_sets[0]
        round_trip = "ok"
        for secret in (0, 1, 2):
            shares = massey_shares(code, secret, seed=args.seed)
            try:
                ok = reconstruct({p: shares[p] for p in group}, code) == secret
            except ValueError:  # a refused minimal set is a failure, not bad input
                ok = False
            if not ok:
                round_trip = "failed"
    if args.output == "json":
        payload = _fields(acc)  # a new dict: round_trip never reaches the frozen instance
        if round_trip is not None:
            payload["round_trip"] = round_trip
        sys.stdout.write(_json(payload))
    else:
        lines = [
            f"secret at position {acc.secret_position} "
            f"(m={spec.m}, set={spec.set_kind}, layout={spec.layout})",
            f"minimal access sets: {len(acc.minimal_access_sets)}",
        ]
        for s in acc.minimal_access_sets[:20]:
            lines.append(f"  {list(s)}")
        if len(acc.minimal_access_sets) > 20:
            lines.append(f"  ... {len(acc.minimal_access_sets) - 20} more")
        lines.append(f"dictators: {list(acc.dictators)}")
        if round_trip is not None:
            lines.append(f"share round trip: {round_trip}")
        sys.stdout.write("\n".join(lines) + "\n")
    return 0 if round_trip in (None, "ok") else 1


def cmd_export(args) -> int:
    spec = _spec_from_args(args)
    if args.format == "generators":
        text = export_generators(build_code(spec))
    elif args.format == "access":
        text = _json(_fields(access_structure(build_code(spec))))
    else:
        dist = _resolve_distribution(args, spec)
        if dist is None:
            return 1
        if args.format == "csv":
            text = distribution_csv(dist)
        else:
            text = _json(_fields(dist))
    _emit(text, args.out)
    return 0


# ---------------------------------------------------------------------------
# verification claims


@dataclass
class Claim:
    """One verify-paper record: the reference value, the computed one and their status.

    flagged marks a record that is neither a plain match nor a failure (a
    known discrepancy with the stated claim, or no stated expectation),
    explained in note; only a mismatch fails verify-paper.
    """

    id: str
    expected: object
    computed: object
    status: str  # 'match' | 'mismatch' | 'flagged'
    note: str | None = None


def _claim(cid: str, build) -> Claim:
    """Run one claim builder, recording an honest mismatch on any blowup.

    A builder returns the Claim fields expected and computed, and
    optionally checked (the part of the computation compared with
    expected, computed itself by default), or a status and note of its own.
    """
    try:
        fields = build()
    except Exception as exc:  # noqa: BLE001 - a failed claim must not hide others
        return Claim(id=cid, expected="computation to succeed", computed=f"error: {exc}", status="mismatch")
    checked = fields.pop("checked", fields["computed"])
    fields.setdefault("status", "match" if checked == fields["expected"] else "mismatch")
    return Claim(id=cid, **fields)


def _table_claim(once, kind: str, m: int) -> dict:
    return {
        "expected": REFERENCE_TABLES[(kind, m)],
        "computed": once(formula_distribution, CodeSpec(m=m, set_kind=kind)).entries,
    }


def _routes_claim(once, expected_route, computed_route, kind: str, m: int) -> dict:
    """The two routes' histograms, matching iff their orbit weights are equal."""
    spec = CodeSpec(m=m, set_kind=kind)
    expected, computed = once(expected_route, spec), once(computed_route, spec)
    status = "match" if expected.orbit_weights == computed.orbit_weights else "mismatch"
    return {"expected": expected.entries, "computed": computed.entries, "status": status}


def _gauss_claim(m: int) -> dict:
    gp = gauss_periods(m)
    return {"expected": gp.closed_forms, "computed": (gp.squares, gp.nonsquares)}


def _griesmer_claim(once, kind: str, m: int) -> dict:
    v = once(verdict, CodeSpec(m=m, set_kind=kind))
    return {
        "expected": {"optimal": REFERENCE_OPTIMAL[(kind, m)]},
        "computed": {"optimal": v.optimal, "N": v.N, "sum_d": v.griesmer_sum_d, "sum_d1": v.griesmer_sum_d1},
        "checked": {"optimal": v.optimal},
    }


def _griesmer_total_claim(kind: str, m: int) -> dict:
    expected = REFERENCE_GRIESMER_TOTAL[(kind, m)]
    _, total = closed_form_sum_d_plus_1(m, kind)
    fields = {"expected": expected, "computed": total}
    if total == expected + 1:
        fields["status"] = "flagged"
        fields["note"] = (
            "stated total is one less than the per-term sum; the per-term "
            "expansion is verified exactly against the direct ceiling sum"
        )
    return fields


def _dual_claim(once, kind: str, m: int) -> dict:
    """The dual certificate (dual_weight_search) the spec's verdict carries."""
    v = once(verdict, CodeSpec(m=m, set_kind=kind))
    return {
        "expected": {"distance": 2},
        "computed": {"distance": v.dual_distance, "witness": v.witness},
        "checked": {"distance": v.dual_distance},
    }


def _packing_claim() -> dict:
    computed = {}
    for kind in KINDS:
        for m in (1, 2):
            N = code_length(m, kind)
            computed[f"{kind}-m{m}"] = sphere_packing_t1(N, N - 3 * m)
    return {
        "expected": "no family's dual packs a radius-1 ball (all False)",
        "computed": computed,
        "status": "mismatch" if any(computed.values()) else "flagged",
        "note": "verified in substance; the stated inequality arranges the same "
        "quantities differently",
    }


def _minimality_claim(kind: str, m: int) -> dict:
    report = minimality_report(build_code(CodeSpec(m=m, set_kind=kind)))
    computed = {
        "ab_ratio_holds": report.ab_ratio_holds,
        "minimal": report.minimal_count,
        "non_minimal": len(report.non_minimal_classes),
    }
    if kind == KIND_UNITS and m == 2:
        expected = {"ab_ratio_holds": True, "non_minimal": 0}
        checked = {key: computed[key] for key in expected}
        return {"expected": expected, "computed": computed, "checked": checked}
    if m == 1:
        note = (
            "weight ratio sits exactly on the screen boundary (3 wmin == 2 wmax); "
            "the census decides instead"
        )
    else:
        note = "no stated expectation for this family; census recorded"
    return {
        "expected": "census (screen inconclusive)",
        "computed": computed,
        "status": "flagged",
        "note": note,
    }


_M1_M2 = tuple((kind, m) for kind in KINDS for m in (1, 2))


def build_claims(include_slow: bool = False) -> list[Claim]:
    # The run's memo: once(route, spec) computes a distribution, or a
    # verdict with its dual certificate, on first use and answers every
    # later claim of this run from it.  It is dropped with the run, so a
    # route patched in between runs shows in the next, and a call that
    # raises is not kept: the next claim asking for it raises again.
    once = cache(lambda route, spec: route(spec))
    # (claim id template, builder, parameters of the fast set, of --include-slow):
    # one claim per parameter tuple, the fast set in table order, then the slow
    table = (
        ("table-{}-m{}", partial(_table_claim, once), tuple(REFERENCE_TABLES), ()),
        ("enum-vs-formula-{}-m{}", partial(_routes_claim, once, formula_distribution, enumerate_distribution),
         _M1_M2, tuple((kind, 3) for kind in KINDS)),
        ("charsum-vs-enum-{}-m{}", partial(_routes_claim, once, enumerate_distribution, charsum_distribution),
         tuple((kind, 1) for kind in KINDS), ()),
        ("gauss-periods-m{}", _gauss_claim, tuple((m,) for m in range(1, 7)), ()),
        ("griesmer-{}-m{}", partial(_griesmer_claim, once), tuple(REFERENCE_OPTIMAL), ()),
        ("griesmer-total-{}-m{}", _griesmer_total_claim, tuple(REFERENCE_GRIESMER_TOTAL), ()),
        ("dual-{}-m{}", partial(_dual_claim, once), _M1_M2, ()),
        ("packing-dual-single-error", _packing_claim, ((),), ()),
        ("minimality-{}-m{}", _minimality_claim, _M1_M2, ()),
    )
    rows = [(template, build, fast) for template, build, fast, _ in table]
    if include_slow:
        rows += [(template, build, slow) for template, build, _, slow in table]
    return [
        _claim(template.format(*p), partial(build, *p))
        for template, build, params in rows
        for p in params
    ]


def cmd_verify(args) -> int:
    claims = build_claims(include_slow=args.include_slow)
    counts = {"match": 0, "mismatch": 0, "flagged": 0}
    for c in claims:
        counts[c.status] += 1
    if args.output == "json":
        sys.stdout.write(_json({"claims": [_fields(c) for c in claims], "summary": counts}))
    else:
        for c in claims:
            line = f"{c.status:9} {c.id}"
            if c.status != "match":
                line += f"  expected={json.dumps(c.expected)} computed={json.dumps(c.computed)}"
            if c.note:
                line += f"  [{c.note}]"
            sys.stdout.write(line + "\n")
        sys.stdout.write(
            f"summary: {counts['match']} match, {counts['mismatch']} mismatch, "
            f"{counts['flagged']} flagged\n"
        )
    if counts["mismatch"]:
        bad = ", ".join(c.id for c in claims if c.status == "mismatch")
        print(f"error: mismatched claims: {bad}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# parser


def positive_int(text: str) -> int:
    """argparse type of --threads: a non-integer or 0 or less is a usage error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


THREADS_HELP = (
    "accepted for compatibility; must be at least 1; changes neither the work nor the result"
)

_CODE = (
    ("--m", {"type": int, "required": True, "help": "extension degree of the base field"}),
    ("--set", {"choices": KINDS, "default": KIND_LPRIME, "help": "defining set kind"}),
)
_LAYOUT = ("--layout", {"choices": LAYOUTS, "default": "interleaved"})
_METHOD = ("--method", {"choices": ("auto", "enumerate", "formula", "charsum"), "default": "auto"})
_THREADS = ("--threads", {"type": positive_int, "default": 1, "help": THREADS_HELP})
_OUTPUT = ("--output", {"choices": ("text", "json"), "default": "text"})

# subcommand name: (help, handler, its arguments in help order)
COMMANDS = {
    "weights": ("Lee weight distribution", cmd_weights, (
        *_CODE, _METHOD, _THREADS,
        ("--output", {"choices": ("text", "json", "csv"), "default": "text"}),
    )),
    "bounds": ("Griesmer verdict and dual certificate", cmd_bounds, (*_CODE, _OUTPUT)),
    "dual": ("dual-distance certificate", cmd_dual, (*_CODE, _LAYOUT, _OUTPUT)),
    "sss": ("secret sharing access structure", cmd_sss, (
        *_CODE, _LAYOUT,
        ("--seed", {"type": int, "default": None, "help": "seed for the share round trip"}),
        _OUTPUT,
    )),
    "export": ("write generators or a distribution", cmd_export, (
        *_CODE, _LAYOUT,
        ("--format", {"choices": ("generators", "csv", "json", "access"), "default": "generators"}),
        _METHOD, _THREADS,
        ("--out", {"default": "-", "help": "output path, '-' for stdout"}),
    )),
    "verify-paper": ("replay documented reference results", cmd_verify, (
        ("--include-slow", {"action": "store_true", "help": "also enumerate at m=3"}),
        _THREADS, _OUTPUT,
    )),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubicode",
        description="ternary images of trace codes over F_{3^m}[u]/(u^3 - 1)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, arguments) in COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flag, kwargs in arguments:
            command.add_argument(flag, **kwargs)
        command.set_defaults(command=name, func=handler)
    return parser


# argument kwargs _match reads; an entry with any other falls back to the full parser
_PLAIN = {"type", "choices", "default", "required", "help", "action"}


def _match(name: str, args: list[str]) -> argparse.Namespace | None:
    """The namespace the full parser returns for `cubicode NAME ARGS`, or None to leave ARGS to it.

    Answers only exact long options of NAME's entry, each at most once,
    with every required one given and each value present, not starting
    with '-', converted by the entry's type and in its choices.  An entry
    with a kwarg outside _PLAIN, or an action but store_true, is never answered.
    """
    _, handler, arguments = COMMANDS[name]
    if any(kw.keys() - _PLAIN or kw.get("action", "store_true") != "store_true" for _, kw in arguments):
        return None
    options = dict(arguments)
    given = {}
    tokens = iter(args)
    for flag in tokens:
        kw = options.get(flag)
        if kw is None or flag in given:
            return None
        if "action" in kw:
            given[flag] = True
            continue
        text = next(tokens, "-")  # a missing value reads as '-'
        if text.startswith("-"):
            return None
        try:
            value = kw.get("type", str)(text)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if "choices" in kw and value not in kw["choices"]:
            return None
        given[flag] = value
    if any(kw.get("required") and flag not in given for flag, kw in arguments):
        return None
    values = {
        flag[2:].replace("-", "_"): given.get(flag, kw.get("default", False if "action" in kw else None))
        for flag, kw in arguments
    }
    return argparse.Namespace(**values, command=name, func=handler)


def _parse_args(argv: list[str]) -> argparse.Namespace:
    args = _match(argv[0], argv[1:]) if argv and argv[0] in COMMANDS else None
    return build_parser().parse_args(argv) if args is None else args


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
