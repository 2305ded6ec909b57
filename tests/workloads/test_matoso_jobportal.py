"""Matoso (Figure 2) and JobPortal (Figure 12) workload tests."""

import pytest

from repro.core import optimize_program
from repro.db import Connection
from repro.interp import Interpreter
from repro.workloads import (
    FIND_MAX_SCORE,
    FIND_MAX_SCORE_WITH_PLAYER,
    JOB_REPORT,
    jobportal_catalog,
    jobportal_database,
    matoso_catalog,
    matoso_database,
)


class TestMatoso:
    def test_findmaxscore_extracts(self):
        catalog = matoso_catalog()
        report = optimize_program(FIND_MAX_SCORE, "findMaxScore", catalog)
        assert report.status == "success"
        assert "GREATEST" in report.variables["scoreMax"].sql

    def test_findmaxscore_equivalence(self):
        catalog = matoso_catalog()
        db = matoso_database(rows=200, catalog=catalog)
        report = optimize_program(FIND_MAX_SCORE, "findMaxScore", catalog)
        c1, c2 = Connection(db), Connection(db)
        r1 = Interpreter(report.original, c1).run("findMaxScore")
        r2 = Interpreter(report.rewritten, c2).run("findMaxScore")
        assert r1 == r2
        assert c2.stats.rows_transferred == 1

    def test_dependent_aggregation_variant(self):
        """Appendix B: score + the board that achieved it."""
        catalog = matoso_catalog()
        db = matoso_database(rows=100, catalog=catalog)
        report = optimize_program(
            FIND_MAX_SCORE_WITH_PLAYER, "findMaxScoreWithPlayer", catalog
        )
        assert report.variables["scoreMax"].ok
        assert report.variables["bestBoard"].ok
        c1, c2 = Connection(db), Connection(db)
        r1 = Interpreter(report.original, c1).run("findMaxScoreWithPlayer")
        r2 = Interpreter(report.rewritten, c2).run("findMaxScoreWithPlayer")
        assert r1 == r2

    def test_data_generator_round_distribution(self):
        db = matoso_database(rows=40, rounds=4)
        rounds = {row["rnd_id"] for row in db.rows("board")}
        assert rounds == {1, 2, 3, 4}


class TestJobPortal:
    def test_consolidation_merges_four_queries(self):
        catalog = jobportal_catalog()
        report = optimize_program(JOB_REPORT, "report", catalog)
        assert report.consolidations
        assert report.consolidations[0].queries_merged == 5  # outer + 4 inner

    def test_consolidated_sql_shape(self):
        catalog = jobportal_catalog()
        report = optimize_program(JOB_REPORT, "report", catalog)
        sql = report.consolidations[0].sql
        assert sql.count("OUTER APPLY") == 4
        assert "applnMode = 'online'" in sql

    def test_report_output_preserved(self):
        catalog = jobportal_catalog()
        db = jobportal_database(applicants=50, catalog=catalog)
        report = optimize_program(JOB_REPORT, "report", catalog)
        c1, c2 = Connection(db), Connection(db)
        i1 = Interpreter(report.original, c1)
        i1.run("report", 7)
        i2 = Interpreter(report.rewritten, c2)
        i2.run("report", 7)
        assert i1.last_out == i2.last_out
        assert c1.stats.queries_executed > 100
        assert c2.stats.queries_executed == 1

    def test_conditional_query_only_for_online(self):
        catalog = jobportal_catalog()
        db = jobportal_database(applicants=30, catalog=catalog)
        report = optimize_program(JOB_REPORT, "report", catalog)
        conn = Connection(db)
        interp = Interpreter(report.rewritten, conn)
        interp.run("report", 7)
        online = sum(
            1 for row in db.rows("applicants") if row["applnMode"] == "online"
        )
        # 3 unconditional prints per applicant + 1 per online applicant
        assert len(interp.last_out) == 3 * len(db.rows("applicants")) + online

    @staticmethod
    def _run(program, db):
        conn = Connection(db)
        interp = Interpreter(program, conn)
        interp.run("report", 7)
        return interp.last_out, conn.stats

    @pytest.mark.parametrize("applicants", [100, 400])
    def test_rewritten_report_scans_linearly(self, applicants):
        """Exp. 8 shape: each OUTER APPLY probes an index per applicant
        instead of rescanning its table, so scanned rows grow linearly."""
        catalog = jobportal_catalog()
        db = jobportal_database(applicants=applicants, catalog=catalog)
        report = optimize_program(JOB_REPORT, "report", catalog)
        _, stats = self._run(report.rewritten, db)
        assert stats.rows_scanned <= 6 * applicants

    def test_rewritten_report_beats_original_by_50x(self):
        """Paper Figure 11: EqSQL is up to two orders of magnitude faster."""
        catalog = jobportal_catalog()
        db = jobportal_database(applicants=500, catalog=catalog)
        report = optimize_program(JOB_REPORT, "report", catalog)
        original_out, original = self._run(report.original, db)
        rewritten_out, rewritten = self._run(report.rewritten, db)
        assert rewritten_out == original_out
        assert rewritten.simulated_time_ms * 50 <= original.simulated_time_ms
