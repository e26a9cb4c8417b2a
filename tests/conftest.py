"""Prints one PASS/FAIL line per acceptance criterion after the run, and
registers the Hypothesis `ci` profile (`--hypothesis-profile=ci`), which
prints a failing example's reproduction blob, to be replayed with
`@reproduce_failure`."""

import re

from hypothesis import settings

settings.register_profile("ci", print_blob=True)

_CRITERION = re.compile(r"test_acceptance\.py.*criterion_(\d+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results = {}
    for outcome, flag in (("passed", "PASS"), ("failed", "FAIL"), ("error", "FAIL")):
        for report in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(report, "nodeid", "")
            if getattr(report, "when", "call") not in ("call", "setup"):
                continue
            match = _CRITERION.search(nodeid)
            if match:
                number = int(match.group(1))
                # a later FAIL overrides an earlier PASS, never the reverse
                if results.get(number) != "FAIL":
                    results[number] = flag
    if results:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance summary:")
        for number in sorted(results):
            terminalreporter.write_line(f"criterion {number:02d}: {results[number]}")
