"""Benchmark harness infrastructure.

Benchmarks record the tables/series the paper reports through
:func:`record_table`; a terminal-summary hook prints everything at the end
of the run (so the output survives pytest's capture).  Run with::

    pytest benchmarks/ --benchmark-only

Without pytest-benchmark installed, plain ``pytest benchmarks/...`` still
runs the paper-shape benches: a stand-in ``benchmark`` fixture calls the
function once and returns its result.
"""

from __future__ import annotations

import pytest

try:
    import pytest_benchmark  # noqa: F401
except ImportError:

    @pytest.fixture
    def benchmark():
        """Stand-in for pytest-benchmark's fixture: one untimed call."""
        return lambda fn, *args, **kwargs: fn(*args, **kwargs)


_TABLES: list[tuple[str, list[str], list[list]]] = []


def record_table(title: str, headers: list[str], rows: list[list]) -> None:
    """Record one result table for the end-of-run report."""
    _TABLES.append((title, headers, rows))


def _format_table(title: str, headers: list[str], rows: list[list]) -> str:
    rendered = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rendered)) if rendered else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [title, "=" * len(title)]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(row))))
    return "\n".join(lines)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _TABLES:
        return
    terminalreporter.write_sep("=", "paper reproduction results")
    for title, headers, rows in _TABLES:
        terminalreporter.write_line("")
        for line in _format_table(title, headers, rows).splitlines():
            terminalreporter.write_line(line)
    terminalreporter.write_line("")
