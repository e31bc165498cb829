import pytest

from assoform import sampling, suites
from assoform.errors import InputError


class _Never:
    """Acceptance stub that rejects every draw and counts its calls."""

    def __init__(self, result):
        self.result = result
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        assert self.calls <= 3, "rejection loop ran past its cap"
        if isinstance(self.result, Exception):
            raise self.result
        return self.result


class _ZeroDelta:
    delta = 0


@pytest.mark.parametrize(
    "suite, name, result",
    [
        ("cubic", "delta_cubic_family", 0),
        ("quintic", "quintic_covariants", _ZeroDelta()),
        ("involution", "FamilyPoint", InputError("excluded")),
    ],
)
def test_every_suite_rejection_loop_is_capped(monkeypatch, caplog, suite, name, result):
    monkeypatch.setattr(sampling, "_MAX_REJECTIONS", 3)
    stub = _Never(result)
    monkeypatch.setattr(suites, name, stub)
    with caplog.at_level("INFO", logger="assoform.sampling"):
        with pytest.raises(RuntimeError):
            suites.run_suite(suite, 0, 1)
    assert stub.calls == 3
    rejections = [r.getMessage() for r in caplog.records if r.name == "assoform.sampling"]
    # a quintic draw may also reject linear frames on its way
    assert len(rejections) >= 3
    assert all(m.startswith("rejected") for m in rejections)
