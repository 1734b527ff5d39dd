import argparse
import collections
import contextlib
import dataclasses
import io
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from checkout import python
from cubicode import cli, weight_dist
from cubicode.bounds import BoundsVerdict, DualWitness
from cubicode.cli import Claim, build_claims, build_parser, main
from cubicode.sss import AccessStructure
from cubicode.trace_code import CodeSpec
from cubicode.weight_dist import (
    WeightDistribution,
    charsum_distribution,
    enumerate_distribution,
    formula_distribution,
)

M1_LPRIME = {"0": 1, "18": 24, "27": 2}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _exit_outcome(capsys, parse, argv):
    """Exit status, stdout and stderr of a parse that ends in SystemExit."""
    with pytest.raises(SystemExit) as info:
        parse(list(argv))
    captured = capsys.readouterr()
    return info.value.code, captured.out, captured.err


def test_weights_text(capsys):
    code, out, _ = run(capsys, "weights", "--m", "1", "--set", "lprime")
    assert code == 0
    assert "method=formula" in out
    assert "18" in out and "24" in out


def test_weights_json(capsys):
    code, out, _ = run(
        capsys, "weights", "--m", "1", "--set", "lprime", "--method", "enumerate",
        "--output", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["entries"] == M1_LPRIME
    assert payload["method"] == "enumerated"


def test_weights_csv(capsys):
    code, out, _ = run(
        capsys, "weights", "--m", "1", "--set", "units", "--output", "csv"
    )
    assert code == 0
    assert out.splitlines() == ["weight,frequency", "0,1", "36,24", "54,2"]


def test_weights_charsum_method(capsys):
    code, out, _ = run(
        capsys, "weights", "--m", "1", "--method", "charsum", "--output", "json"
    )
    assert code == 0
    assert json.loads(out)["method"] == "charsum"


def test_weights_guard_exit_2(capsys):
    code, _, err = run(capsys, "weights", "--m", "9", "--method", "charsum")
    assert code == 2
    assert err == "error: Gauss periods: supported for m <= 8, got m=9\n"


@pytest.mark.parametrize("kind", ["lprime", "units"])
@pytest.mark.parametrize("m", range(3, 9))
def test_weights_charsum_answers_up_to_m8(capsys, kind, m):
    code, out, _ = run(
        capsys, "weights", "--m", str(m), "--set", kind, "--method", "charsum", "--output", "json"
    )
    assert code == 0
    want = formula_distribution(CodeSpec(m=m, set_kind=kind)).entries
    assert json.loads(out)["entries"] == {str(w): f for w, f in want.items()}


def test_units_formula_has_no_degree_cap(capsys):
    code, out, _ = run(capsys, "weights", "--m", "9", "--set", "units", "--output", "json")
    assert code == 0
    entries = json.loads(out)["entries"]
    assert len(entries) == 3
    assert sum(entries.values()) == 3**27


@pytest.mark.parametrize(
    "argv",
    (
        ("bounds", "--m", "5001"),
        ("weights", "--m", "5001", "--set", "units", "--method", "formula", "--output", "json"),
        ("weights", "--m", "5001"),  # auto does not fall back to enumeration here
        # the first m at which the units weight 2 * 3^{3m} has 4301 digits
        ("weights", "--m", "3004", "--set", "units", "--output", "json"),
        ("bounds", "--m", "3004", "--set", "units"),
    ),
)
def test_huge_m_refused_before_any_arithmetic(capsys, monkeypatch, argv):
    # the exact outputs at this m would exceed Python's 4300-digit int-to-str limit
    def forbidden(*args, **kwargs):
        raise RuntimeError("closed-form arithmetic started")

    monkeypatch.setattr("cubicode.bounds.code_length", forbidden)
    monkeypatch.setattr("cubicode.closed_form._validate", forbidden)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: closed form: supported for m <= 3003, got m={argv[2]}\n"


def test_closed_form_cap_keeps_every_printable_answer(capsys):
    # at the cap every closed-form weight prints: the largest has 4299 digits
    for kind in ("lprime", "units"):
        code, out, _ = run(
            capsys, "weights", "--m", "3003", "--set", kind, "--method", "formula",
            "--output", "json",
        )
        assert code == 0
        assert max(len(w) for w in json.loads(out)["entries"]) == 4299


def test_weights_m3000_lprime_prints_every_weight(capsys):
    # 3000 == 0 (mod 4) lies just under the closed-form cap: all four weights print
    code, out, _ = run(capsys, "weights", "--m", "3000", "--set", "lprime", "--output", "json")
    assert code == 0
    entries = json.loads(out)["entries"]
    assert len(entries) == 4
    assert sum(entries.values()) == 3**9000


@pytest.mark.parametrize("m", (4, 8))
def test_lprime_multiple_of_four_answers_on_every_route(capsys, m):
    spec = CodeSpec(m=m, set_kind="lprime")
    want = {str(w): f for w, f in charsum_distribution(spec).entries.items()}
    for method in ("formula", "auto"):
        for argv in (("weights", "--output", "json"), ("export", "--format", "json")):
            code, out, _ = run(capsys, *argv, "--m", str(m), "--set", "lprime", "--method", method)
            assert code == 0
            assert json.loads(out) == {"entries": want, "total": 3 ** (3 * m), "method": "formula"}
    code, out, _ = run(capsys, "bounds", "--m", str(m), "--set", "lprime", "--output", "json")
    assert code == 0
    assert json.loads(out)["d"] == 3 ** (3 * m) - 3 ** (5 * m // 2)


@pytest.mark.parametrize(
    "argv",
    (
        ("weights", "--m", "1", "--set", "units", "--output", "json"),
        ("weights", "--m", "9", "--method", "charsum"),  # a refusal, exit 2
    ),
)
def test_python_dash_m_runs_the_cli(capsys, argv):
    assert python("-m", "cubicode", *argv) == run(capsys, *argv)


@pytest.mark.parametrize(
    "argv, status", ((("verify-paper", "--help"), 0), (("verify-paper", "--threads", "0"), 2))
)
def test_python_dash_m_parses_sys_argv(capsys, monkeypatch, argv, status):
    monkeypatch.setenv("COLUMNS", "80")  # help wraps at the same width in both processes
    outcome = _exit_outcome(capsys, main, argv)
    assert python("-m", "cubicode", *argv) == outcome
    assert outcome[0] == status


def test_bounds_json(capsys):
    code, out, _ = run(capsys, "bounds", "--m", "1", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["N"] == 27 and payload["K"] == 3 and payload["d"] == 18
    assert payload["griesmer_sum_d"] == 26 and payload["griesmer_sum_d1"] == 29
    assert payload["optimal"] is True
    assert payload["dual_distance"] == 2
    assert payload["witness"] == [[0, 1], [10, 2]]


def test_bounds_not_optimal(capsys):
    code, out, _ = run(capsys, "bounds", "--m", "2", "--set", "lprime", "--output", "json")
    assert code == 0
    assert json.loads(out)["optimal"] is False


def test_dual_json(capsys):
    code, out, _ = run(capsys, "dual", "--m", "2", "--set", "units", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["distance"] == 2
    assert payload["weight1_exhausted"] is True
    assert payload["witness"] == [[0, 1], [28, 2]]


def test_sss_json(capsys):
    code, out, _ = run(
        capsys, "sss", "--m", "1", "--set", "lprime", "--seed", "3", "--output", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["secret_position"] == 0
    assert payload["dictators"] == [10, 23]
    assert len(payload["minimal_access_sets"]) == 8
    assert payload["round_trip"] == "ok"


@pytest.mark.parametrize("output", ["text", "json"])
def test_sss_refused_round_trip_is_a_failure_not_bad_input(capsys, monkeypatch, output):
    from cubicode import sss

    def refuse(shares, code):
        raise ValueError("the given party set cannot reconstruct the secret")

    monkeypatch.setattr(sss, "reconstruct", refuse)
    code, out, err = run(capsys, "sss", "--m", "1", "--set", "lprime", "--seed", "3", "--output", output)
    assert code == 1
    assert err == ""
    if output == "json":
        assert json.loads(out)["round_trip"] == "failed"
    else:
        assert out.splitlines()[-1] == "share round trip: failed"


def test_export_generators_deterministic(tmp_path, capsys):
    target = tmp_path / "gens.txt"
    argv = ["export", "--m", "1", "--set", "lprime", "--out", str(target)]
    assert main(argv) == 0
    first = target.read_bytes()
    assert main(argv) == 0
    assert target.read_bytes() == first
    text = first.decode()
    assert text.startswith("# ternary code N=27 k=3 layout=interleaved m=1 set=lprime\n")
    assert len(text.splitlines()) == 4
    capsys.readouterr()


def test_export_csv_stdout(capsys):
    code, out, _ = run(capsys, "export", "--m", "1", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "weight,frequency"


def test_export_json_file(tmp_path, capsys):
    target = tmp_path / "dist.json"
    code, _, _ = run(
        capsys, "export", "--m", "2", "--set", "units", "--format", "json",
        "--out", str(target),
    )
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["entries"] == {"0": 1, "1296": 720, "1458": 8}


def test_export_access_json(capsys):
    code, out, _ = run(capsys, "export", "--m", "1", "--set", "lprime", "--format", "access")
    assert code == 0
    payload = json.loads(out)
    assert payload["dictators"] == [10, 23]
    assert len(payload["minimal_access_sets"]) == 8
    # census only: the share round trip belongs to the sss subcommand
    assert "round_trip" not in payload


def field_names(result_type) -> list[str]:
    # the exported fields: a repr=False field (WeightDistribution.orbit_weights) is not written
    return [f.name for f in dataclasses.fields(result_type) if f.repr]


@pytest.mark.parametrize(
    "argv,result_type",
    (
        (("weights", "--m", "2", "--output", "json"), WeightDistribution),
        (("export", "--m", "2", "--set", "units", "--format", "json"), WeightDistribution),
        (("bounds", "--m", "1", "--output", "json"), BoundsVerdict),
        (("bounds", "--m", "4", "--set", "units", "--output", "json"), BoundsVerdict),
        (("dual", "--m", "2", "--layout", "block", "--output", "json"), DualWitness),
        (("export", "--m", "1", "--set", "units", "--format", "access"), AccessStructure),
    ),
    ids=lambda value: " ".join(value) if isinstance(value, tuple) else value.__name__,
)
def test_json_payload_keys_are_the_result_fields_in_order(capsys, argv, result_type):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert list(json.loads(out)) == field_names(result_type)


def test_sss_and_verify_paper_payloads_are_their_fields_in_order(capsys):
    code, out, _ = run(capsys, "sss", "--m", "1", "--seed", "3", "--output", "json")
    assert code == 0
    assert list(json.loads(out)) == [*field_names(AccessStructure), "round_trip"]
    code, out, _ = run(capsys, "verify-paper", "--output", "json")
    assert code == 0
    claims = json.loads(out)["claims"]
    # a claim's note is left out when it is None, which it is on every match
    for claim in claims:
        names = field_names(Claim)
        assert list(claim) == (names if claim["status"] == "flagged" else names[:-1])
    assert {claim["status"] for claim in claims} == {"match", "flagged"}


@pytest.mark.parametrize(
    "argv",
    (
        ("sss", "--m", "3", "--set", "units"),
        ("export", "--m", "3", "--set", "lprime", "--format", "access"),
    ),
)
def test_census_refusal_names_the_minimality_census(capsys, monkeypatch, argv):
    # the census builds no codeword table, so its refusal names its own scope
    def forbidden(self):
        raise AssertionError("the codeword table was built")

    monkeypatch.setattr("cubicode.trace_code.TernaryCode.codewords", forbidden)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: minimality census: supported for m <= 2, got m=3\n"


def test_weights_enumerate_cross_checks_formula(capsys, monkeypatch):
    import cubicode.cli as cli_mod
    from cubicode.weight_dist import WeightDistribution

    corrupted = WeightDistribution(entries={0: 1, 18: 23, 27: 3}, total=27, method="formula")
    monkeypatch.setattr(cli_mod, "formula_distribution", lambda spec: corrupted)
    code, _, err = run(capsys, "weights", "--m", "1", "--method", "enumerate")
    assert code == 1
    assert "disagrees with the closed form" in err


def _swap_lprime_zero_weights(monkeypatch):
    """Wrap cli.formula_distribution to swap the squares' and nonsquares' (0, 0, c) weights."""
    from cubicode import weight_dist

    def swapped(spec):
        dist = formula_distribution(spec)
        w = list(dist.orbit_weights)
        if spec.set_kind == "lprime":
            w[3], w[6] = w[6], w[3]
        return weight_dist._finish(w, spec, dist.method)

    monkeypatch.setattr(cli, "formula_distribution", swapped)


def test_verify_paper_sees_swapped_orbit_weights(capsys, monkeypatch):
    # equal-sized orbits: the histograms still agree at m = 2, the orbit weights do not (at m = 1 both weigh 27)
    _swap_lprime_zero_weights(monkeypatch)
    code, out, err = run(capsys, "verify-paper")
    assert code == 1
    assert [line.split()[1] for line in out.splitlines() if line.startswith("mismatch")] == [
        "enum-vs-formula-lprime-m2"
    ]
    assert err == "error: mismatched claims: enum-vs-formula-lprime-m2\n"


def _count_calls(monkeypatch, module, name, key):
    """Wrap module.name at the module and at every cubicode name bound to it (as perfbench/tracer.py
    does); the returned Counter gets key(*args) for each call."""
    original = getattr(module, name)
    calls = collections.Counter()

    def counted(*args, **kwargs):
        calls[key(*args)] += 1
        return original(*args, **kwargs)

    for mod in [m for n, m in sys.modules.items() if n == "cubicode" or n.startswith("cubicode.")]:
        for attr, value in list(vars(mod).items()):
            if value is original:
                monkeypatch.setattr(mod, attr, counted)
    return calls


@pytest.mark.parametrize("flags", ((), ("--include-slow",)))
def test_verify_paper_does_each_per_code_job_once_per_spec(capsys, monkeypatch, flags):
    from cubicode import bounds, sss, weight_dist

    def spec_of(spec, *_):
        return spec

    counted = {
        "census": _count_calls(monkeypatch, sss, "_census", lambda code: code.spec),
        "dual": _count_calls(monkeypatch, bounds, "dual_weight_search", spec_of),
        "verdict": _count_calls(monkeypatch, bounds, "verdict", spec_of),
        "enumerate": _count_calls(monkeypatch, weight_dist, "enumerate_distribution", spec_of),
    }
    code, _, _ = run(capsys, "verify-paper", *flags)
    assert code == 0
    m1_m2 = {CodeSpec(m, kind) for m in (1, 2) for kind in ("lprime", "units")}
    slow = {CodeSpec(3, kind) for kind in ("lprime", "units")} if flags else set()
    assert counted["census"] == counted["dual"] == counted["verdict"] == dict.fromkeys(m1_m2, 1)
    assert counted["enumerate"] == dict.fromkeys(m1_m2 | slow, 1)


def test_no_result_outlives_its_run(capsys, monkeypatch):
    clean = run(capsys, "verify-paper", "--output", "json")
    assert clean[0] == 0
    assert json.loads(clean[1])["summary"] == {"match": 29, "mismatch": 0, "flagged": 6}
    # a route patched in before the next run shows in it ...
    _swap_lprime_zero_weights(monkeypatch)
    code, out, _ = run(capsys, "verify-paper", "--output", "json")
    assert code == 1
    assert [c["id"] for c in json.loads(out)["claims"] if c["status"] == "mismatch"] == [
        "enum-vs-formula-lprime-m2"
    ]
    # ... and leaves nothing behind for the run after it
    monkeypatch.undo()
    assert run(capsys, "verify-paper", "--output", "json") == clean


def test_a_route_that_raises_is_not_kept_for_the_run(monkeypatch):
    # the first enumeration of each spec raises; the next claim on that spec asks again
    calls = collections.Counter()

    def fails_first(spec, threads=1):
        calls[spec] += 1
        if calls[spec] == 1:
            raise ArithmeticError("first call")
        return enumerate_distribution(spec, threads)

    monkeypatch.setattr(weight_dist, "enumerate_distribution", fails_first)
    statuses = {c.id: c.status for c in build_claims()}
    assert statuses["enum-vs-formula-lprime-m1"] == statuses["enum-vs-formula-units-m1"] == "mismatch"
    assert statuses["charsum-vs-enum-lprime-m1"] == statuses["charsum-vs-enum-units-m1"] == "match"
    assert calls[CodeSpec(1, "lprime")] == calls[CodeSpec(1, "units")] == 2


def test_weights_enumerate_sees_swapped_orbit_weights(capsys, monkeypatch):
    _swap_lprime_zero_weights(monkeypatch)
    code, out, err = run(capsys, "weights", "--m", "2", "--method", "enumerate")
    assert (code, out) == (1, "")
    assert err == "error: enumeration disagrees with the closed form\n"


def test_enumeration_cross_check_shared_by_weights_and_export(capsys, monkeypatch):
    from cubicode.weight_dist import WeightDistribution

    wrong = WeightDistribution(entries={0: 1, 18: 23, 27: 3}, total=27, method="enumerated")
    monkeypatch.setattr(weight_dist, "enumerate_distribution", lambda spec, threads: wrong)
    errors = []
    for argv in (
        ["weights", "--m", "1", "--method", "enumerate"],
        ["export", "--m", "1", "--format", "csv", "--method", "enumerate"],
        ["export", "--m", "1", "--format", "json", "--method", "enumerate"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        errors.append(err)
    assert errors == ["error: enumeration disagrees with the closed form\n"] * 3


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as info:
        main(["weights"])  # missing --m
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["weights", "--m", "1", "--set", "nonsense"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
    for argv in (["weights", "--m", "1"], ["export", "--m", "1"], ["verify-paper"]):
        for threads in ("0", "-1"):
            with pytest.raises(SystemExit) as info:
                main([*argv, "--threads", threads])
            assert info.value.code == 2


SUBCOMMANDS = ("weights", "bounds", "dual", "sss", "export", "verify-paper")

# argv that the full parser answers with help or refuses
HELP_AND_USAGE_ERRORS = (
    ("--help",),
    *((sub, "--help") for sub in SUBCOMMANDS),
    (),
    ("nonsense", "--m", "1"),
    ("-h", "weights", "--m", "1"),
    ("weights",),
    ("weights", "--m", "1", "--set", "nonsense"),
    *(
        (*argv, "--threads", threads)
        for argv in (("weights", "--m", "1"), ("export", "--m", "1"), ("verify-paper",))
        for threads in ("0", "-1", "abc")
    ),
    ("weights", "--m", "1", "--output", "xml"),
    ("verify-paper", "--output", "xml"),
    ("weights", "--m", "1", "extra"),
    ("bounds", "--m", "1", "--bogus"),
    ("dual", "--m", "1", "--output", "json", "extra"),
    ("sss", "--m", "1", "--seed", "3", "-x"),
    ("export", "--m", "1", "--out", "-", "extra"),
    ("verify-paper", "extra"),
    ("weights", "--m", "4", "--extrapolate"),
)

# argv that the full parser accepts, with --opt=value forms and abbreviated options
VALID_ARGV = (
    ("weights", "--m", "1"),
    ("weights", "--m=2", "--set=units", "--method=charsum", "--output=csv"),
    ("weights", "--m", "3", "--meth", "enumerate", "--thr", "2", "--out", "json"),
    ("bounds", "--m", "2", "--set", "units", "--output", "json"),
    ("bounds", "--m=1", "--out=json"),
    ("dual", "--m", "1", "--layout", "block"),
    ("dual", "--lay=block", "--m", "2", "--output", "json"),
    ("sss", "--m", "2", "--seed", "-3", "--out", "json"),
    ("sss", "--m", "1", "--set", "lprime", "--layout=interleaved"),
    ("export", "--m", "1", "--format", "csv", "--out", "weights.csv"),
    ("export", "--m=1", "--form", "access", "--method=formula", "--threads=2"),
    ("verify-paper",),
    ("verify-paper", "--output", "json", "--threads", "1"),
    ("verify-paper", "--inc", "--out=json", "--thr=2"),
)


@pytest.mark.parametrize("argv", HELP_AND_USAGE_ERRORS, ids=lambda argv: " ".join(argv) or "(none)")
def test_help_and_usage_errors_match_the_full_parser(capsys, argv):
    outcome = _exit_outcome(capsys, main, argv)
    assert outcome == _exit_outcome(capsys, build_parser().parse_args, argv)
    assert outcome[0] == (0 if "--help" in argv or "-h" in argv else 2)


@pytest.mark.parametrize("argv", VALID_ARGV, ids=" ".join)
def test_valid_argv_parse_as_with_the_full_parser(argv):
    expected = vars(build_parser().parse_args(list(argv)))
    assert vars(cli._parse_args(list(argv))) == expected
    assert expected["command"] == argv[0]


BENCHMARK_ARGV = ("verify-paper", "--output", "json", "--threads", "1")

# plain argv of every subcommand: exact long options, each once, with values
PLAIN_ARGV = {
    "weights": (("weights", "--m", "2", "--set", "units", "--method", "charsum", "--threads", "2", "--output", "csv"),),
    "bounds": (("bounds", "--m", "1"), ("bounds", "--output", "json", "--m", "3", "--set", "lprime")),
    "dual": (("dual", "--m", "2", "--layout", "block", "--output", "json"),),
    "sss": (("sss", "--m", "2", "--seed", "3", "--set", "units", "--layout", "block", "--output", "json"),),
    "export": (("export", "--m", "1", "--format", "csv", "--method", "enumerate", "--out", "weights.csv", "--threads", "1"),),
    "verify-paper": (("verify-paper",), ("verify-paper", "--include-slow", "--threads", "3"), BENCHMARK_ARGV),
}


def test_plain_argv_of_every_subcommand_builds_no_parser(monkeypatch):
    assert PLAIN_ARGV.keys() == cli.COMMANDS.keys()  # no subcommand silently takes the full parser
    plain = [list(argv) for argvs in PLAIN_ARGV.values() for argv in argvs]
    expected = [vars(build_parser().parse_args(argv)) for argv in plain]

    def refuse(self, *args, **kwargs):
        raise AssertionError("plain argv built an ArgumentParser")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
    assert [vars(cli._parse_args(argv)) for argv in plain] == expected


# argv the full parser may accept but _match leaves to it, each for one reason
NOT_PLAIN = (
    ("verify-paper", "--help"),
    ("verify-paper", "-h"),
    ("verify-paper", "--out", "json"),  # abbreviation
    ("verify-paper", "--output=json"),
    ("verify-paper", "--output", "json", "--output", "text"),  # repeat
    ("verify-paper", "--include-slow", "--include-slow"),
    ("verify-paper", "--threads", "1", "extra"),
    ("verify-paper", "--output"),  # missing value
    ("export", "--m", "1", "--out", "--m"),  # an option for a value
    ("sss", "--m", "1", "--seed", "-3"),  # negative number
    ("export", "--m", "1", "--out", "-"),
    ("weights", "--m", "abc"),  # type error
    ("weights", "--m", "1", "--set", "nonsense"),  # choice error
    ("weights", "--set", "units"),  # missing required option
)


@pytest.mark.parametrize("argv", NOT_PLAIN, ids=" ".join)
def test_match_leaves_argv_that_is_not_plain_to_the_full_parser(argv):
    assert cli._match(argv[0], list(argv[1:])) is None


@pytest.mark.parametrize("kwargs", ({"nargs": 1}, {"action": "append"}), ids=str)
def test_an_entry_with_another_kwarg_falls_back_to_the_full_parser(monkeypatch, kwargs):
    help_text, handler, arguments = cli.COMMANDS["bounds"]
    monkeypatch.setitem(cli.COMMANDS, "bounds", (help_text, handler, (*arguments, ("--tag", kwargs))))
    argv = ["bounds", "--m", "1", "--tag", "a"]
    assert cli._match(argv[0], argv[1:]) is None
    assert vars(cli._parse_args(argv)) == {**vars(cli._parse_args(argv[:3])), "tag": ["a"]}


def test_no_entry_has_a_type_and_a_string_default():
    # argparse runs type on a string default, which _match does not mimic
    for _, _, arguments in cli.COMMANDS.values():
        for flag, kwargs in arguments:
            assert not ("type" in kwargs and isinstance(kwargs.get("default"), str)), flag


def _argv_tails(name):
    """Tails of `cubicode NAME` argv: each option of the entry left out, plain, or given a bad
    value, cut short or as --opt=value, in any order, and maybe one more such group at the end."""
    arguments = cli.COMMANDS[name][2]

    def plain(flag, kwargs):
        good = [str(c) for c in kwargs.get("choices", ())] or ["1", "2"]
        return st.just((flag,)) if "action" in kwargs else st.tuples(st.just(flag), st.sampled_from(good))

    def noisy(flag, kwargs):
        value = st.sampled_from([*map(str, kwargs.get("choices", ())), "0", "1", "-1", "abc", "-", "--"])
        cut = st.integers(3, len(flag)).map(lambda n: flag[:n])  # exact or abbreviated
        return st.one_of(
            st.tuples(st.just(flag), value), st.tuples(cut, value), st.tuples(cut), st.tuples(value),
            st.builds("{}={}".format, cut, value).map(lambda token: (token,)),
        )

    def left_out(flag, kwargs):
        return st.just(())

    def option(entry):  # one_of would weigh noisy's five branches against plain's one
        return st.sampled_from((left_out, plain, plain, plain, noisy)).flatmap(lambda form: form(*entry))

    options = st.permutations(arguments).flatmap(lambda entries: st.tuples(*map(option, entries)))
    extra = st.lists(st.sampled_from(arguments).flatmap(lambda entry: st.one_of(plain(*entry), noisy(*entry))), max_size=1)
    return st.tuples(options, extra).map(lambda parts: [token for g in (*parts[0], *parts[1]) for token in g])


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.data())
def test_match_answers_only_as_the_full_parser_does(data):
    name = data.draw(st.sampled_from(SUBCOMMANDS))
    args = data.draw(_argv_tails(name))
    matched = cli._match(name, args)
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            expected = vars(build_parser().parse_args([name, *args]))
    except SystemExit as exc:
        assert exc.code == 2 and matched is None
        return
    assert matched is None or vars(matched) == expected


def test_plain_verify_paper_argv_imports_no_locale():
    script = (
        "import contextlib, io, sys\n"
        "from cubicode import cli\n"
        "before = 'locale' in sys.modules\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    status = cli.main({list(BENCHMARK_ARGV)!r})\n"
        "print(status, before, 'locale' in sys.modules)\n"
    )
    _, out, err = python("-c", script)
    status, before, after = out.split()
    assert status == "0" and after == before, err


def test_a_non_integer_threads_is_worded_as_for_m(capsys):
    for flag, argv in (("--m", ("weights", "--m", "abc")), ("--threads", ("weights", "--m", "1", "--threads", "abc"))):
        code, out, err = _exit_outcome(capsys, main, argv)
        assert (code, out) == (2, "")
        assert err.endswith(f"cubicode weights: error: argument {flag}: invalid int value: 'abc'\n")


def test_export_identical_across_threads(capsys):
    argv = ["export", "--m", "2", "--format", "json", "--method", "enumerate"]
    outputs = []
    for threads in ("1", "2"):
        code, out, _ = run(capsys, *argv, "--threads", threads)
        assert code == 0
        outputs.append(out.encode())
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["method"] == "enumerated"


@pytest.mark.parametrize("target", ("missing/x", "."))
def test_export_to_unwritable_path_exits_2(tmp_path, target):
    # a missing parent directory, then a path that names a directory
    out = tmp_path / target
    status, stdout, stderr = python("-m", "cubicode", "export", "--m", "1", "--out", str(out))
    assert (status, stdout) == (2, "")
    assert "Traceback" not in stderr
    assert stderr.startswith(f"error: cannot write {out}: ")
    assert stderr.count("\n") == 1


def test_verify_paper_text(capsys):
    code, out, _ = run(capsys, "verify-paper")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1].startswith("summary:")
    assert "0 mismatch" in lines[-1]
    assert any(line.startswith("flagged") for line in lines)


def test_verify_paper_json(capsys):
    code, out, _ = run(capsys, "verify-paper", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["mismatch"] == 0
    ids = {c["id"] for c in payload["claims"]}
    assert "table-lprime-m1" in ids
    assert "gauss-periods-m6" in ids
    assert "dual-units-m2" in ids
    statuses = {c["id"]: c["status"] for c in payload["claims"]}
    assert statuses["griesmer-total-lprime-m1"] == "flagged"
    assert statuses["minimality-units-m2"] == "match"
    for claim in payload["claims"]:
        assert claim["status"] in ("match", "mismatch", "flagged")
        assert "expected" in claim and "computed" in claim


@pytest.mark.parametrize("flags", ((), ("--include-slow",)))
def test_verify_paper_json_holds_no_float(capsys, flags):
    code, out, _ = run(capsys, "verify-paper", "--output", "json", *flags)
    assert code == 0
    floats = []
    json.loads(out, parse_float=floats.append, parse_constant=floats.append)
    assert floats == []


def test_gauss_claims_mismatch_on_a_wrong_closed_form_or_direct_sum(monkeypatch):
    import dataclasses

    from cubicode.weight_dist import gauss_periods

    def negated_gauss_sum(m):
        gp = gauss_periods(m)
        return dataclasses.replace(gp, gauss_sum=tuple(-x for x in gp.gauss_sum))

    # a direct sum off by one: the claim compares expected with computed itself
    def squares_off_by_one(m):
        gp = gauss_periods(m)
        return dataclasses.replace(gp, squares=(gp.squares[0] + 1, gp.squares[1]))

    for wrong in (negated_gauss_sum, squares_off_by_one):
        monkeypatch.setattr(weight_dist, "gauss_periods", wrong)
        statuses = [c.status for c in build_claims() if c.id.startswith("gauss-periods")]
        assert statuses == ["mismatch"] * 6


def test_build_claims_fast_set():
    claims = build_claims(include_slow=False)
    assert len(claims) == 35
    assert all(c.status != "mismatch" for c in claims)
    flagged = {c.id for c in claims if c.status == "flagged"}
    assert flagged == {
        "griesmer-total-lprime-m1",
        "griesmer-total-lprime-m3",
        "packing-dual-single-error",
        "minimality-lprime-m1",
        "minimality-lprime-m2",
        "minimality-units-m1",
    }
