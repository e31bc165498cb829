import pytest

from assoform import cli, duality, invariants, milnor, sampling, suites
from assoform.duality import Family, FamilyPoint
from assoform.errors import (
    DegenerateFamilyError,
    DegenerateQuinticError,
    ExcludedParameterError,
    FiniteColengthError,
    NondegeneracyError,
)


class _Never:
    """Evaluation stub that rejects every draw and counts its calls."""

    def __init__(self, error):
        self.error = error
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        assert self.calls <= 3, "rejection loop ran past its cap"
        raise self.error


@pytest.mark.parametrize(
    "suite, name, error",
    [
        ("cubic", "verify_cubic_identity", DegenerateFamilyError("zero discriminant")),
        ("quintic", "verify_quintic_identity", DegenerateQuinticError("zero discriminant")),
        ("involution", "FamilyPoint", ExcludedParameterError("excluded")),
        ("quartic", "verify_quartic_identity", NondegeneracyError("singular")),
        ("equivariance", "associated_form", NondegeneracyError("singular")),
        ("apolarity", "associated_form_tuple", FiniteColengthError("infinite")),
        ("hilbert", "hilbert_function", FiniteColengthError("infinite")),
    ],
)
def test_every_suite_rejection_loop_is_capped(monkeypatch, caplog, suite, name, error):
    monkeypatch.setattr(sampling, "_MAX_REJECTIONS", 3)
    stub = _Never(error)
    monkeypatch.setattr(suites, name, stub)
    with caplog.at_level("INFO", logger="assoform.sampling"):
        with pytest.raises(RuntimeError):
            suites.run_suite(suite, 0, 1)
    assert stub.calls == 3
    rejections = [r.getMessage() for r in caplog.records if r.name == "assoform.sampling"]
    # a quintic draw may also reject linear frames on its way
    assert len(rejections) >= 3
    assert all(m.startswith("rejected") for m in rejections)
    assert sum(str(error) in m for m in rejections) == 3


def test_only_the_named_error_rejects(monkeypatch):
    stub = _Never(NondegeneracyError("not the cubic's degenerate-input error"))
    monkeypatch.setattr(suites, "verify_cubic_identity", stub)
    with pytest.raises(NondegeneracyError):
        suites.run_suite("cubic", 0, 1)
    assert stub.calls == 1


# hilbert at seed 22 rejects one draw, so the rejected draws are counted too
@pytest.mark.parametrize(
    "suite, seed, count", [("quartic", 0, 12), ("hilbert", 0, 6), ("hilbert", 22, 6)]
)
def test_each_draw_eliminates_its_fullness_matrix_once(monkeypatch, caplog, suite, seed, count):
    original = milnor.ideal_graded_dim
    fullness = []

    def counting(ft, k):
        if k == ft.top_degree + 1:
            fullness.append(k)
        return original(ft, k)

    monkeypatch.setattr(milnor, "ideal_graded_dim", counting)
    with caplog.at_level("INFO", logger="assoform.sampling"):
        result = suites.run_suite(suite, seed, count)
    rejections = [r for r in caplog.records if r.getMessage().startswith("rejected")]
    assert len(result["cases"]) == count
    assert len(fullness) == count + len(rejections)


def test_each_apolarity_tuple_ranks_its_fullness_matrix_once(monkeypatch):
    # per case: the drawn tuple and the recovered one, each ranked once even
    # though the drawn tuple's fullness is asked for by both the socle and
    # the inverse-system check
    original = milnor.rank_rows
    calls = []

    def counting(rows):
        calls.append(rows)
        return original(rows)

    monkeypatch.setattr(milnor, "rank_rows", counting)
    result = suites.run_suite("apolarity", 0, 12)
    assert result["pass"]
    assert len(calls) == 24


def test_each_quintic_evaluates_its_covariants_once(monkeypatch):
    original = invariants.quintic_covariants
    calls = []

    def counting(s):
        calls.append(s)
        return original(s)

    monkeypatch.setattr(invariants, "quintic_covariants", counting)
    result = suites.run_suite("quintic", 0, 5)
    assert result["pass"]
    assert len(calls) == 5


@pytest.mark.parametrize("family", list(Family))
def test_each_involution_point_computes_its_associated_form_once(monkeypatch, capsys, family):
    # Phi(f) once, Phi(Phi(f)) once: the J comparison reuses the first image
    original = milnor.associated_form
    calls = []

    def counting(f):
        calls.append(f)
        return original(f)

    for module in (duality, suites, cli):
        monkeypatch.setattr(module, "associated_form", counting)
    assert suites._involution_case(FamilyPoint(family, 1))
    assert len(calls) == 2
    calls.clear()
    assert cli.main(["duality-scan", family.value, "--t=1"]) == 0
    assert '"involution": "fixed"' in capsys.readouterr().out
    assert len(calls) == 2
