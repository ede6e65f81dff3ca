"""Fixtures shared by the ranking tests."""

import pytest

from repro.sanitize.invariants import InvariantChecker


@pytest.fixture
def auditing(monkeypatch):
    """Non-empty while CEPRSan re-derives a value a run reader read (it
    evaluates the expression through the context evaluator): work counts
    taken then are the reference's, not the pipeline's."""
    inside: list[int] = []
    check_reader = InvariantChecker.check_reader

    def audit(self, *args):
        inside.append(1)
        try:
            return check_reader(self, *args)
        finally:
            inside.pop()

    monkeypatch.setattr(InvariantChecker, "check_reader", audit)
    return inside
