import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

_acceptance_results = []

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def checks():
    """perfbench/checks.py, which shares no code with the engines; read-only."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        import checks
        yield checks


@pytest.fixture
def acceptance():
    """Record an acceptance-criterion outcome and assert it."""

    def record(name: str, ok: bool, detail: str = ""):
        _acceptance_results.append((name, bool(ok), detail))
        assert ok, "%s FAILED %s" % (name, detail)

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for name, ok, detail in _acceptance_results:
        line = "%-58s %s" % (name, "PASS" if ok else "FAIL")
        if detail and not ok:
            line += "  (%s)" % detail
        terminalreporter.write_line(line)
