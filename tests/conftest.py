"""Shared pytest plumbing.

The acceptance tests register one PASS/FAIL line per criterion; this hook
prints the collected lines as a block at the end of the session so the
gate verdict is readable without scrolling through the full log.

``--hypothesis-profile=ci`` makes the property tests deterministic: each
test draws the same examples on every run and no example database replays
earlier failures.  Without it they explore new examples on each run.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, database=None)

ACCEPTANCE_LINES = []


def record_criterion(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    line = f"criterion {num:02d} [{name}]: {tag}" + (f" — {detail}" if detail else "")
    ACCEPTANCE_LINES.append(line)
    print(line)
    return line


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for line in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(line)
