import re

CRITERION = re.compile(r"test_criterion_(\d+)")

DESCRIPTIONS = {
    1: "m=1 lprime enumerated Lee distribution {0:1, 18:24, 27:2} in < 1 s",
    2: "m=1 units enumerated Lee distribution {0:1, 36:24, 54:2} in < 1 s",
    3: "m=2 lprime enumerated Lee distribution {0:1, 486:4, 648:720, 972:4} in < 10 s",
    4: "m=2 units enumerated Lee distribution {0:1, 1296:720, 1458:8} in < 30 s",
    5: "closed forms equal enumeration for m <= 3, both kinds",
    6: "character-sum weights, one bulk pass, equal direct Lee weights for every scalar, m <= 2",
    7: "Gauss periods in Z[omega], m <= 8: exact sum -1 and difference G = (-1)^(m-1) (1 + 2 omega)^m",
    8: "char-sum/Hamming-weight identity on 1000 seeded vectors per length",
    9: "Griesmer optimality verdicts via direct ceiling sums",
    10: "dual distance 2 certificates for all four specs, m <= 2",
    11: "injectivity, group action on the 2m+1 generators of L, and block shift invariance, m <= 3, no sampling",
    12: "first-moment identity on every produced distribution",
    13: "minimality census ground truth and weight-ratio boundary flag",
    14: "share round trips on every minimal access set; dictators nonempty",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of the run."""
    buckets: dict[int, list[str]] = {}
    for status in ("passed", "failed", "error", "skipped"):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance" not in nodeid:
                continue
            found = CRITERION.search(nodeid)
            if found:
                buckets.setdefault(int(found.group(1)), []).append(status)
    if not buckets:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(buckets):
        statuses = buckets[num]
        if any(s in ("failed", "error") for s in statuses):
            verdict = "FAIL"
        elif all(s == "skipped" for s in statuses):
            verdict = "SKIP"
        else:
            verdict = "PASS"
        terminalreporter.write_line(f"{verdict} criterion {num:02d}: {DESCRIPTIONS.get(num, '?')}")
