"""Gradient-check suites: scopes and the injected error."""

import pytest

from cmhl.diagnostics import SCOPES, SUITES, run_gradcheck


@pytest.fixture(scope="module")
def clean_rows():
    """The uncorrupted rows of each suite; scope ``all`` is every suite in order."""
    rows = {name: run_gradcheck(name) for name in SUITES}
    rows["all"] = [row for name in SUITES for row in rows[name]]
    return rows


@pytest.mark.parametrize("scope", SCOPES)
def test_injected_error_fails_only_the_first_row(scope, clean_rows):
    clean = clean_rows[scope]
    corrupted = run_gradcheck(scope, corrupt=True)
    assert [(r.component, r.target) for r in corrupted] == [(r.component, r.target) for r in clean]
    assert all(r.passed for r in clean)
    assert not corrupted[0].passed
    assert [r.error for r in corrupted[1:]] == [r.error for r in clean[1:]]
