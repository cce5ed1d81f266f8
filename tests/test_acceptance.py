"""Acceptance gate: one test per criterion, each printing its verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  The full suite takes a few minutes; the exhaustive
gadget enumeration dominates.
"""

import hashlib

import pytest

from strongodd import experiments


def _run(fn, **kwargs):
    result = fn(**kwargs)
    line = f"[{result['status'].upper():4}] {result['name']}: {result['details']}"
    print(line)
    return result


def test_gadget_exactness():
    result = _run(experiments.crit_gadget_exactness)
    assert result["status"] == "pass", result["details"]


def test_improper_gadgets():
    result = _run(experiments.crit_improper_gadgets)
    assert result["status"] == "pass", result["details"]


def test_outerplanar_le_8():
    result = _run(experiments.crit_outerplanar)
    assert result["status"] == "pass", result["details"]


@pytest.mark.slow
def test_claim_exhaustive():
    result = _run(experiments.crit_claim_exhaustive)
    assert result["status"] == "pass", result["details"]


def test_claim_exhaustive_quick():
    # Every gated instance with both stub lengths in 2..3, for the fast loop.
    result = _run(experiments.crit_claim_exhaustive, quick=True)
    assert result["status"] == "pass", result["details"]
    assert result["details"]["instances"] == 57_600


def test_tw_construction():
    result = _run(experiments.crit_tw)
    assert result["status"] == "pass", result["details"]


def test_clique_colorings():
    result = _run(experiments.crit_clique_colorings)
    assert result["status"] == "pass", result["details"]


def test_rtw_and_sums():
    result = _run(experiments.crit_rtw_and_sums)
    assert result["status"] == "pass", result["details"]


def test_oracle_equivalence():
    result = _run(experiments.crit_oracle_equivalence)
    assert result["status"] == "pass", result["details"]


def test_facially_odd_pipeline():
    result = _run(experiments.crit_facially_odd)
    assert result["status"] == "pass", result["details"]


def test_odd_chromatic_sanity():
    result = _run(experiments.crit_odd_chromatic)
    assert result["status"] == "pass", result["details"]


def test_gk3_attempted_and_reported():
    # Reported, not required: equality at k=3 is only asserted by a figure
    # caption, so the attempt runs under a 10 s budget (the repro command
    # uses the same default) and any outcome is accepted.
    result = _run(experiments.crit_gk3_attempt, gk3_seconds=10.0)
    assert result["status"] == "info"
    assert "value" in result["details"] or "inconclusive" in result["details"]


RUN_ALL_DIGEST = "2082aea1533610b65700849fed0cc13c71ccba416cae1a16e2d90b7bcfa89410"


def _untimed(result):
    """``result`` without the keys that end in ``seconds``."""
    if isinstance(result, dict):
        return {k: _untimed(v) for k, v in result.items() if not k.endswith("seconds")}
    if isinstance(result, list):
        return [_untimed(v) for v in result]
    return result


def test_quick_run_matches_pin():
    # Digest recorded before the criteria shared one verdict builder: every
    # name, status and detail of a quick run, in order, timings left out.
    result = _untimed(experiments.run_all(quick=True))
    assert hashlib.sha256(repr(result).encode()).hexdigest() == RUN_ALL_DIGEST
