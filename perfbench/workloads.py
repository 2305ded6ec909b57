"""The benchmark's three workloads.

A workload owns its state and its items (one item = one request of a
pass).  The harness in ``run.py`` calls, per request: ``prepare`` (not
timed), ``run`` (timed), ``after`` (not timed) and ``check`` (not timed).
``verify`` runs once after the measured passes.  Every input is made from
the seed; the program under test sees only the generated inputs.

* ``extract`` — ``optimize_program`` over every bundled function.
* ``app-original`` — the as-written programs whose rewrite the pipeline
  emits, read-only, at generator scale 10³.
* ``app-rewritten`` — the same programs in their emitted form over larger
  fact tables, with one row written to each fact table of a request's
  application before the request.

Output checks use references that do not come from the code under test:
the statuses the corpora declare for extraction, and for the application
runs each program's counterpart (original vs rewritten) on the same
database state, on a small replica under ``engine="both"``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import repro.core
import repro.workloads as corpus
from repro import Catalog, ExtractOptions
from repro.db import Connection
from repro.frontends import get_frontend
from repro.interp import Interpreter

OPTIONS = ExtractOptions(profile="local")

#: ConnectionStats fields summed over a workload's requests.
CONN_FIELDS = (
    "queries_executed",
    "rows_transferred",
    "bytes_transferred",
    "rows_scanned",
    "simulated_time_ms",
)


# ----------------------------------------------------------------------
# extract


@dataclass(frozen=True)
class Unit:
    label: str
    source: str
    function: str
    catalog: Catalog
    options: ExtractOptions
    #: Returns ``None`` when the report meets the declared expectation,
    #: else the reason it does not.
    expect: Callable[[Any], str | None]


def _status_is(expected: str):
    def expect(report):
        if report.status != expected:
            return f"status {report.status!r}, declared {expected!r}"
        return None

    return expect


def _servlet_extracted_is(expected: bool):
    def expect(report):
        if corpus.servlet_extracted(report) != expected:
            return f"servlet_extracted is {not expected}, declared {expected}"
        return None

    return expect


def _consolidates(report):
    return None if report.consolidations else "no Figure 13 consolidation"


def _no_check(report):
    return None


class Extract:
    """~170 extraction units: every function the repository bundles."""

    name = "extract"

    def __init__(self, root: Path, seed: int):
        # The seed only orders the passes, which the harness does.
        self.root = root
        self.items: list[Unit] = []

    def setup(self) -> None:
        units = []
        catalog = corpus.wilos_catalog()
        for sample in corpus.WILOS_SAMPLES:
            units.append(Unit(f"wilos/{sample.number}", sample.source,
                              sample.function, catalog, OPTIONS,
                              _status_is(sample.expected)))
        for suite, servlets, catalog in (
            ("rubis", corpus.RUBIS_SERVLETS, corpus.rubis_catalog()),
            ("rubbos", corpus.RUBBOS_SERVLETS, corpus.rubbos_catalog()),
            ("acadportal", corpus.ACADPORTAL_SERVLETS, corpus.acadportal_catalog()),
        ):
            for servlet in servlets:
                units.append(Unit(f"{suite}/{servlet.name}", servlet.source,
                                  servlet.function, catalog, OPTIONS,
                                  _servlet_extracted_is(servlet.expected_extractable)))
        # Matoso and JobPortal declare no status; the paper does.  Figure 2
        # and its Appendix B variant extract, and Figure 12 consolidates
        # into the single query of Figure 13.
        catalog = corpus.matoso_catalog()
        for function, source in (
            ("findMaxScore", corpus.FIND_MAX_SCORE),
            ("findMaxScoreWithPlayer", corpus.FIND_MAX_SCORE_WITH_PLAYER),
        ):
            units.append(Unit(f"matoso/{function}", source, function, catalog,
                              OPTIONS, _status_is("success")))
        units.append(Unit("jobportal/report", corpus.JOB_REPORT, "report",
                          corpus.jobportal_catalog(), OPTIONS, _consolidates))
        catalog = corpus.precision_catalog()
        for sample in corpus.PRECISION_SAMPLES:
            units.append(Unit(f"precision/{sample.name}", sample.source,
                              sample.function, catalog, OPTIONS,
                              _status_is("success")))
        for frontend, pattern in (("minijava", "*.mj"), ("python", "*.py")):
            directory = self.root / "examples" / frontend
            catalog = Catalog.from_json_file(directory / "schema.json")
            options = ExtractOptions(profile="local", frontend=frontend)
            for path in sorted(directory.glob(pattern)):
                source = path.read_text(encoding="utf-8")
                for func in get_frontend(frontend).parse(source).functions:
                    units.append(Unit(f"examples/{path.name}/{func.name}",
                                      source, func.name, catalog, options,
                                      _no_check))
        self.items = units

    def prepare(self, unit: Unit) -> None:
        return None

    def run(self, unit: Unit, payload) -> Any:
        # Looked up at call time so the tracer's wrapper is the one called.
        return repro.core.optimize_program(
            unit.source, unit.function, unit.catalog, options=unit.options
        )

    def after(self, unit: Unit, payload) -> None:
        return None

    def check(self, unit: Unit, report) -> str | None:
        return unit.expect(report)

    def verify(self) -> tuple[int, list[tuple[str, str]]]:
        return 0, []

    def counts(self) -> dict[str, float]:
        return {}


# ----------------------------------------------------------------------
# application runs


@dataclass(frozen=True)
class App:
    catalog: Callable[[], Catalog]
    database: Callable[[int, int, Catalog], Any]
    #: (function, source, args) of each program whose rewrite is expected.
    programs: tuple[tuple[str, str, tuple], ...]
    fact_tables: tuple[str, ...]


def _servlet_programs(servlets) -> tuple:
    return tuple(
        (s.function, s.source, ()) for s in servlets if s.expected_extractable
    )


APPS = {
    "rubis": App(
        corpus.rubis_catalog,
        lambda n, seed, c: corpus.rubis_database(scale=n, seed=seed, catalog=c),
        _servlet_programs(corpus.RUBIS_SERVLETS),
        ("items", "bids", "comments"),
    ),
    "rubbos": App(
        corpus.rubbos_catalog,
        lambda n, seed, c: corpus.rubbos_database(scale=n, seed=seed, catalog=c),
        _servlet_programs(corpus.RUBBOS_SERVLETS),
        ("stories", "scomments"),
    ),
    "acadportal": App(
        corpus.acadportal_catalog,
        lambda n, seed, c: corpus.acadportal_database(scale=n, seed=seed, catalog=c),
        _servlet_programs(corpus.ACADPORTAL_SERVLETS),
        ("students", "enrollment"),
    ),
    "matoso": App(
        corpus.matoso_catalog,
        lambda n, seed, c: corpus.matoso_database(rows=n, seed=seed, catalog=c),
        (("findMaxScore", corpus.FIND_MAX_SCORE, ()),),
        ("board",),
    ),
    "jobportal": App(
        corpus.jobportal_catalog,
        lambda n, seed, c: corpus.jobportal_database(applicants=n, seed=seed, catalog=c),
        (("report", corpus.JOB_REPORT, (7,)),),
        ("applicants", "personal", "feedback1", "feedback2", "qualifications"),
    ),
}

#: Generator scale per application and database role.  ``original`` is the
#: paper-scale read-only state; ``rewritten`` puts Matoso's board above
#: ``STATS_EXACT_MAX`` (sampled statistics) and keeps JobPortal at 300
#: applicants because its consolidated APPLY is quadratic; ``replica`` is
#: the verification size, small enough for ``engine="both"``.
SCALES = {
    "original": {"rubis": 1000, "rubbos": 1000, "acadportal": 1000,
                 "matoso": 1000, "jobportal": 1000},
    "rewritten": {"rubis": 6000, "rubbos": 6000, "acadportal": 6000,
                  "matoso": 60000, "jobportal": 300},
    "replica": {"rubis": 60, "rubbos": 60, "acadportal": 80,
                "matoso": 100, "jobportal": 40},
}

#: Rows the write stream inserts get keys above every generated key.
FIRST_WRITTEN_KEY = 10_000_000


@dataclass
class Program:
    app: str
    function: str
    args: tuple
    original: Any
    rewritten: Any
    #: Why the pipeline's output is unusable, or ``None``.
    defect: str | None = None

    @property
    def label(self) -> str:
        return f"{self.app}/{self.function}"


class AppRun:
    """Shared machinery of ``app-original`` and ``app-rewritten``."""

    #: Which version of each program the timed requests run; it also
    #: names the database scale in ``SCALES``.
    version = "original"
    writes = False

    def __init__(self, root: Path, seed: int):
        self.seed = seed
        self.items: list[Program] = []
        #: Application → the timed database, and its verification replica.
        self.main: dict[str, Any] = {}
        self.replica: dict[str, Any] = {}
        self.conn_totals = dict.fromkeys(CONN_FIELDS, 0)
        self._last_conn: Connection | None = None
        self._next_key = FIRST_WRITTEN_KEY
        self._first_outcome: dict[str, Any] = {}

    def setup(self) -> None:
        rng = random.Random(self.seed)
        app_seeds = {app: rng.randrange(2**31) for app in APPS}
        self._write_rng = random.Random(rng.randrange(2**31))
        for app, spec in APPS.items():
            catalog = spec.catalog()
            self.main[app] = spec.database(
                SCALES[self.version][app], app_seeds[app], catalog
            )
            replica = spec.database(SCALES["replica"][app], app_seeds[app], catalog)
            replica.default_engine = "both"
            self.replica[app] = replica
            for function, source, args in spec.programs:
                report = repro.core.optimize_program(
                    source, function, catalog, options=OPTIONS
                )
                emitted = bool(report.rewritten_loops or report.consolidations)
                self.items.append(Program(
                    app, function, args, report.original, report.rewritten,
                    None if emitted else "the pipeline emitted no rewrite",
                ))

    # -- per request -----------------------------------------------------

    def prepare(self, program: Program):
        self._last_conn = None
        if not self.writes:
            return ()
        key = self._next_key
        self._next_key += 1
        rows = []
        for table in APPS[program.app].fact_tables:
            replica = self.replica[program.app]
            row = dict(self._write_rng.choice(replica.rows(table)))
            row[replica.catalog.get(table).key[0]] = key
            rows.append((table, row))
        return rows

    def run(self, program: Program, writes) -> Any:
        database = self.main[program.app]
        for table, row in writes:
            database.insert(table, row)
        return self._execute(program, getattr(program, self.version), database)

    def after(self, program: Program, writes) -> None:
        replica = self.replica[program.app]
        for table, row in writes:
            replica.insert(table, row)
        if self._last_conn is not None:
            for name in CONN_FIELDS:
                self.conn_totals[name] += getattr(self._last_conn.stats, name)

    def check(self, program: Program, outcome) -> str | None:
        if program.defect:
            return program.defect
        if self.writes:
            return None
        # Read-only state: every pass must reproduce the first pass's output;
        # ``verify`` checks that output against the counterpart program.
        first = self._first_outcome.setdefault(program.label, outcome)
        return None if outcome == first else "output changed between passes"

    def _execute(self, program: Program, version, database):
        self._last_conn = Connection(database)
        interpreter = Interpreter(version, self._last_conn)
        value = interpreter.run(program.function, *program.args)
        return value, interpreter.last_out

    # -- after the measured passes ---------------------------------------

    def verify(self) -> tuple[int, list[tuple[str, str]]]:
        """Original vs rewritten on the same state; returns (checks, failures)."""
        checks, failures = 0, []
        for program in self.items:
            if program.defect:
                continue
            checks += 1
            replica = self.replica[program.app]
            try:
                original = self._execute(program, program.original, replica)
                rewritten = self._execute(program, program.rewritten, replica)
            except Exception as exc:  # a failed check, reported by name
                failures.append((program.label, f"replica: {type(exc).__name__}: {exc}"))
                continue
            if original != rewritten:
                failures.append((program.label, "replica: original != rewritten"))
        if self.writes:
            return checks, failures
        # Read-only main state: the timed outputs against the counterpart.
        for program in self.items:
            if program.defect or program.label not in self._first_outcome:
                continue
            if program.app == "jobportal":
                continue  # its quadratic rewrite takes ~15 s at 10³ applicants
            checks += 1
            try:
                counterpart = self._execute(
                    program, program.rewritten, self.main[program.app]
                )
            except Exception as exc:
                failures.append((program.label, f"counterpart: {type(exc).__name__}: {exc}"))
                continue
            if counterpart != self._first_outcome[program.label]:
                failures.append((program.label, "timed output != rewritten counterpart"))
        return checks, failures

    def counts(self) -> dict[str, float]:
        """The program's own counters, cumulative since set-up."""
        databases = self.main.values()
        return {
            **self.conn_totals,
            "plan_cache_hits": sum(db.plan_cache_hits for db in databases),
            "plan_cache_misses": sum(db.plan_cache_misses for db in databases),
        }


class AppOriginal(AppRun):
    name = "app-original"


class AppRewritten(AppRun):
    name = "app-rewritten"
    version = "rewritten"
    writes = True


WORKLOADS = {cls.name: cls for cls in (Extract, AppOriginal, AppRewritten)}
