"""Gradient-check suites: scopes, the injected error, and the work one check does."""

from collections import Counter

import pytest

from cmhl import tensor as T
from cmhl.diagnostics import SCOPES, SUITES, run_gradcheck
from cmhl.encoder import Encoder


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


def test_block_rows_match_each_target_checked_alone_on_the_full_objective():
    """A block's case starts from that block's cached input and shares one backward pass, yet each of its rows
    has the error that checking its target alone against the full objective ``model.loss(model.forward(batch),
    batch)`` gives, bit for bit. The embeddings' case runs on that objective itself, so the only difference
    left there is the shared backward pass, which the block cases check; it is skipped to keep the test short."""
    (_, embeddings, full_objective), *blocks = SUITES["encoder"]()
    assert list(embeddings) == ["tok_emb", "pos_emb"]
    for _, targets, objective in blocks:
        errors = T.finite_diff_check(objective, targets)
        for name, point in targets.items():
            assert errors[name] == T.finite_diff_check(full_objective, {name: point})[name], name


def test_gradcheck_work_is_one_backward_per_case_and_embeds_only_for_the_embeddings(monkeypatch):
    """Counts, not time: ``T.backward`` runs once per case, and ``Encoder.embed`` runs only when the suites are
    built (the block-input cache, the gate's CLS vector) and for the evaluations of the case holding the
    embeddings: a determinism pair, a backward pass, two per element and a last one."""
    calls = Counter()
    for owner, name in (T, "backward"), (Encoder, "embed"):
        def counted(*args, _original=getattr(owner, name), _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    cases = [case for suite in SUITES.values() for case in suite()]
    built = calls["embed"]
    embedding_elements = sum(t.data.size for _, targets, _ in cases if "tok_emb" in targets for t in targets.values())
    calls.clear()
    rows = run_gradcheck("all")
    assert calls["backward"] == len(cases) < len(rows)
    assert calls["embed"] <= built + 2 * embedding_elements + 4
