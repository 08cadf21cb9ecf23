import pytest

from irkit.sparsela import BandedLU


@pytest.fixture
def factored(monkeypatch):
    """Every matrix passed to ``BandedLU.factor`` while the test runs, in order."""
    seen = []
    factor = BandedLU.factor.__func__

    def spy(cls, a):
        seen.append(a)
        return factor(cls, a)

    monkeypatch.setattr(BandedLU, "factor", classmethod(spy))
    return seen
