from fractions import Fraction

import pytest

from assoform import cli, duality, invariants, milnor, sampling, suites
from assoform.duality import (
    Family,
    FamilyPoint,
    InvolutionStatus,
    dual_parameter,
    family_form,
    involution_check,
)
from assoform.errors import (
    DegenerateFamilyError,
    DegenerateQuinticError,
    ExcludedParameterError,
    FiniteColengthError,
    NondegeneracyError,
)
from assoform.invariants import TernaryCubicFamily, j_cubic_family, j_quartic
from assoform.poly import Poly
from test_cli import PINNED_STDOUT


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


def _counting(original, calls):
    def counting(*args):
        calls.append(args)
        return original(*args)

    return counting


def test_each_quintic_multiplies_its_covariant_products_once(monkeypatch):
    # C22^3 is built once and shared by the relation and the identity; it is
    # the only power of a Poly the suite takes
    calls = []
    monkeypatch.setattr(Poly, "__pow__", _counting(Poly.__pow__, calls))
    result = suites.run_suite("quintic", 0, 5)
    assert result["pass"]
    assert len(calls) == 5


@pytest.mark.parametrize("family", list(Family))
def test_each_involution_point_computes_its_associated_form_once(monkeypatch, capsys, family):
    # Phi(f) once, Phi(Phi(f)) once: the J comparison reuses the first image.
    # J(f) once and J(Phi(f)) once: every J reads its family's invariants
    # through _quartic_invariants or _cubic_invariants, and nothing else in
    # the scan does
    phi_calls = []
    for module in (duality, suites, cli):
        monkeypatch.setattr(module, "associated_form", _counting(milnor.associated_form, phi_calls))
    j_calls = []
    for name in ("_quartic_invariants", "_cubic_invariants"):
        monkeypatch.setattr(invariants, name, _counting(getattr(invariants, name), j_calls))
    assert suites._family_point_case(FamilyPoint(family, 1))
    assert len(phi_calls) == 2
    assert len(j_calls) == 2
    phi_calls.clear()
    j_calls.clear()
    assert cli.main(["duality-scan", family.value, "--t=1"]) == 0
    assert '"involution": "fixed"' in capsys.readouterr().out
    assert len(phi_calls) == 2
    assert len(j_calls) == 2


def _reference_family_point_case(point):
    # involution_check, then the Mobius map of the J-line written out
    f = family_form(point)
    status = involution_check(f)
    try:
        dual_parameter(point)
    except ExcludedParameterError:
        return status is InvolutionStatus.IMAGE_DEGENERATE
    F = milnor.associated_form(f).form
    if point.family is Family.BINARY_QUARTIC:
        j = j_quartic(f)
        image_j = j_quartic(F) == j / (j - 1)
    else:
        j = j_cubic_family(TernaryCubicFamily.from_poly(f))
        image_j = j_cubic_family(TernaryCubicFamily.from_poly(F)) == 1 / j
    return status is InvolutionStatus.FIXED and image_j


_PINNED_SCAN_POINTS = [
    (Family(argv[1]), Fraction(t))
    for argv in PINNED_STDOUT
    if argv[0] == "duality-scan"
    for t in argv[2].removeprefix("--t=").split(",")
]


@pytest.mark.parametrize("family, t", _PINNED_SCAN_POINTS, ids=str)
def test_family_point_case_matches_the_reference_at_every_pinned_scan_point(family, t):
    point = FamilyPoint(family, t)
    assert suites._family_point_case(point) == _reference_family_point_case(point)
