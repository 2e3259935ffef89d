"""Acceptance gate: every named suite at full scale, one line per criterion.

Scale: 200 generated instances per suite (20 x 30 covering ideals for the
gluing suite), 50 sequences and 20 maps per instance, 100 sampled sets per
instance for the closure and cocompact criteria, and every set shape of an
instance where a criterion is about all of its sets; all seed-reproducible.
Every criterion demands 100% agreement: zero failures, zero unknowns.
"""

import pytest

from extseq.suites import DEFAULT_BUDGET, DEFAULT_SEED, DEFAULT_SAMPLES, SUITES, run_suites

CRITERIA = [
    ("criterion-01", "proper-vs-noconv"),
    ("criterion-02", "countable-vs-seq-compact"),
    ("criterion-03", "proper-vs-seqproper"),
    ("criterion-04", "plus-map-continuity"),
    ("criterion-05", "wedge-vs-plus"),
    ("criterion-06", "plus-sequential"),
    ("criterion-07", "scompact-closure"),
    ("criterion-08", "infinity-diagram"),
    ("criterion-09", "cocompact-form"),
    ("criterion-10", "coreflection"),
    ("criterion-11", "sheaf-glue"),
    ("criterion-12", "sigma-fixtures"),
]


@pytest.mark.parametrize("label,suite", CRITERIA, ids=[c[0] for c in CRITERIA])
def test_acceptance_criterion(label, suite):
    report = run_suites([suite], DEFAULT_SEED, DEFAULT_SAMPLES, DEFAULT_BUDGET)[0]
    status = "PASS" if report.failed == 0 and report.unknown == 0 else "FAIL"
    print(
        f"{status} {label} {suite}: {report.passed}/{report.cases} cases, "
        f"{report.failed} failed, {report.unknown} unknown, {report.wall_ms} ms"
    )
    assert report.cases > 0
    assert report.failed == 0, f"{suite}: {report.failed} failures; first witness: {report.witnesses[:1]}"
    assert report.unknown == 0, f"{suite}: {report.unknown} unknown outcomes"


def test_all_registered_suites_covered():
    assert {s for _, s in CRITERIA} == set(SUITES)
