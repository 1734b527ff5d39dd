"""The benchmark workloads, one call each per fresh interpreter.

Every workload times its work in parts with a Parts timer and returns
    task_s      wall time of the workload's work,
    parts       the parts in the order run, each with the times of a
                reference job (reference.py) before and after it (see
                Parts),
    named       the workload's further figures under their own names,
    attempted   operations checked (claims, distributions, access
                structures, round trips),
    failed      operations whose output was wrong,
    problems    one line per failed check.

Outputs are checked against expected.json, recorded from the seed commit.
The program is called through module attributes, so that a traced run
sees the wrapped functions.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import statistics
import time
from pathlib import Path

import reference
from cubicode import chain_ring, cli, sss, trace_code, weight_dist

EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())
TRIP_GROUPS = 61  # access sets per timed part of the sss-m2 round trips (4 parts per code)


class Parts:
    """Wall time of each part of the work, between timings of a reference job.

    A part records its name, its wall time s, the reference job's nominal
    time, and its times just before and just after the part (edges), each
    the median of `runs` runs of the job.  Consecutive parts with the same
    job share the edge between them.
    """

    def __init__(self) -> None:
        self.parts: list[dict] = []
        self._last = None  # (job, runs, time) of the latest edge

    def _edge(self, job, runs: int) -> float:
        took = statistics.median(job() for _ in range(runs))
        self._last = (job, runs, took)
        return took

    @contextlib.contextmanager
    def part(self, name: str, job=reference.run, nominal: float = reference.REFERENCE_S, runs: int = 1):
        shared = self._last is not None and self._last[:2] == (job, runs)
        before = self._last[2] if shared else self._edge(job, runs)
        start = time.perf_counter()
        yield
        elapsed = time.perf_counter() - start
        after = self._edge(job, runs)
        self.parts.append({"name": name, "s": elapsed, "nominal": nominal, "edges": [before, after]})

    def seconds(self, prefix: str = "") -> float:
        return sum(part["s"] for part in self.parts if part["name"].startswith(prefix))


def _result(parts, named, attempted, problems, failed=None):
    """failed defaults to one per problem; any problem fails at least one operation."""
    failed = len(problems) if failed is None else failed
    return {
        "task_s": parts.seconds(),
        "parts": parts.parts,
        "named": named,
        "attempted": attempted,
        "failed": min(max(failed, 1), attempted) if problems else 0,
        "problems": problems,
    }


def verify_fast(seed: int) -> dict:
    """`cubicode verify-paper --output json --threads 1` through cli.main."""
    expected = EXPECTED["verify-fast"]
    out = io.StringIO()
    parts = Parts()
    with parts.part("verify-paper"), contextlib.redirect_stdout(out):
        status = cli.main(["verify-paper", "--output", "json", "--threads", "1"])
    payload = json.loads(out.getvalue())
    got = {c["id"]: c["status"] for c in payload["claims"]}
    problems = [
        f"claim {cid}: status {got.get(cid)}, expected {want}"
        for cid, want in expected["claims"].items()
        if got.get(cid) != want
    ]
    problems += [f"unexpected claim {cid}" for cid in got if cid not in expected["claims"]]
    failed_claims = len(problems)
    if [c["id"] for c in payload["claims"]] != list(expected["claims"]) and not problems:
        problems.append("claims came in another order")
    if payload["summary"] != expected["summary"]:
        problems.append(f"summary {payload['summary']}, expected {expected['summary']}")
    if status != 0:
        problems.append(f"exit status {status}")
    return _result(parts, {}, len(expected["claims"]), problems, failed_claims)


def enum_m3(seed: int) -> dict:
    """Exhaustive m = 3 lprime enumeration at one worker, then at two."""
    spec = trace_code.CodeSpec(3, "lprime")
    workers = min(2, os.cpu_count() or 1)
    parts = Parts()
    # parts of 5-10 s of numpy streaming: the streaming job, 5 runs an edge
    timing = {"job": reference.run_streaming, "nominal": reference.STREAMING_S, "runs": 5}
    with parts.part("threads=1", **timing):
        single = weight_dist.enumerate_distribution(spec, threads=1)
    with parts.part(f"threads={workers}", **timing):
        pooled = weight_dist.enumerate_distribution(spec, threads=workers)
    t1, t2 = (part["s"] for part in parts.parts)
    want = {int(w): f for w, f in EXPECTED["enum-m3"]["lprime"].items()}
    problems = [
        f"threads={threads}: distribution {dist.entries}"
        for threads, dist in ((1, single), (workers, pooled))
        if dist.entries != want
    ]
    coords = 3 ** (3 * spec.m) * chain_ring.code_length(spec.m, spec.set_kind)
    named = {
        "enum_t1_s": t1,
        "enum_coords_per_s": coords / t1,
        "enum_t2_s": t2,
        "enum_scaling_eff": t1 / (workers * t2),
    }
    return _result(parts, named, 2, problems)


def sss_m2(seed: int) -> dict:
    """Access structures at m = 2 and a share round trip per (access set, secret).

    Share seeds are drawn from one stream seeded with the workload seed.
    The round trips are timed in parts of TRIP_GROUPS access sets.
    """
    rng = random.Random(seed)
    problems, trips = [], 0
    parts = Parts()
    for kind, want_sets in EXPECTED["sss-m2"].items():
        with parts.part(f"{kind}.access_structure"):
            code = trace_code.build_code(trace_code.CodeSpec(2, kind))
            access = sss.access_structure(code)
        if len(access.minimal_access_sets) != want_sets or not access.dictators:
            problems.append(
                f"{kind}: {len(access.minimal_access_sets)} minimal access sets "
                f"(expected {want_sets}), {len(access.dictators)} dictators"
            )
        groups = access.minimal_access_sets
        for first in range(0, len(groups), TRIP_GROUPS):
            with parts.part(f"{kind}.trips.{first}"):
                for group in groups[first : first + TRIP_GROUPS]:
                    for secret in (0, 1, 2):
                        shares = sss.massey_shares(code, secret, seed=rng.getrandbits(32))
                        try:
                            ok = sss.reconstruct({p: shares[p] for p in group}, code) == secret
                        except ValueError:
                            ok = False
                        trips += 1
                        if not ok:
                            problems.append(f"{kind}: round trip of secret {secret} on {group[:4]}... failed")
    trip_s = sum(parts.seconds(f"{kind}.trips.") for kind in EXPECTED["sss-m2"])
    return _result(parts, {"roundtrips_per_s": trips / trip_s}, trips + len(EXPECTED["sss-m2"]), problems)


WORKLOADS = {
    "verify-fast": verify_fast,
    "enum-m3": enum_m3,
    "sss-m2": sss_m2,
}
