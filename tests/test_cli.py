import hashlib
import json
import sys
from fractions import Fraction

import pytest

from assoform import apolarity, duality, linalg, milnor, sampling, suites
from assoform.cli import main
from assoform.errors import DegenerateFamilyError
from assoform.invariants import INVARIANTS, TernaryCubicFamily, a6_family
from assoform.milnor import associated_form
from assoform.poly import Space, parse_poly


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out else None
    return rc, doc, captured.out


def test_assoc_fermat_quartic(capsys):
    rc, doc, _ = run(capsys, "assoc", "z1^4+z2^4", "--n", "2", "--d", "4")
    assert rc == 0
    assert doc["status"] == "pass"
    assert doc["results"]["form"] == "1/24*e1^2*e2^2"
    assert doc["results"]["terms"] == [[[2, 2], "1/24"]]
    assert doc["results"]["mu"] == [[[2, 2], "1/144"]]


def test_assoc_degenerate_exits_2(capsys):
    rc, doc, _ = run(capsys, "assoc", "z1^4+2*z1^2*z2^2+z2^4", "--n", "2", "--d", "4")
    assert rc == 2
    assert doc["status"] == "error"
    # the report names the degree where the gradient ideal fails to be full
    assert doc["results"]["error"]["degree"] == 5


def test_assoc_of_a_form_free_of_a_variable_exits_2(capsys):
    rc, doc, _ = run(capsys, "assoc", "3*z2^3", "--n", "2", "--d", "3")
    assert rc == 2
    error = doc["results"]["error"]
    assert error["message"].startswith("form has a non-isolated singularity")
    assert error["degree"] == 3


def test_assoc_fermat_cubic_three_variables(capsys):
    rc, doc, _ = run(capsys, "assoc", "z1^3+z2^3+z3^3", "--n", "3", "--d", "3")
    assert rc == 0
    assert doc["results"]["form"] == "1/36*e1*e2*e3"


def test_assoc_wrong_degree_exits_2(capsys):
    rc, doc, _ = run(capsys, "assoc", "z1^3+z2^3", "--n", "2", "--d", "4")
    assert rc == 2
    assert doc["status"] == "error"


@pytest.mark.parametrize(
    "argv",
    [
        ("invariant", "cat", "5", "--n", "0"),
        ("assoc", "5", "--n", "0", "--d", "0"),
        ("inverse-system", "5", "--n", "0", "--d", "3"),
    ],
)
def test_nonpositive_variable_count_exits_2(capsys, argv):
    rc, doc, _ = run(capsys, *argv)
    assert rc == 2
    assert doc["status"] == "error"
    assert "number of variables" in doc["results"]["error"]["message"]


def test_parse_error_exits_3(capsys):
    rc, doc, _ = run(capsys, "assoc", "z1^^4", "--n", "2", "--d", "4")
    assert rc == 3
    assert doc["status"] == "error"
    assert isinstance(doc["results"]["error"]["position"], int)


# superscript digits pass str.isdigit but not int(); the parser stops before them
@pytest.mark.parametrize(
    "argv",
    [
        ("invariant", "cat", "z1²"),
        ("assoc", "z1³+z2^3", "--n", "2", "--d", "3"),
    ],
)
def test_superscript_digits_are_a_parse_error(capsys, argv):
    rc, doc, out = run(capsys, *argv)
    assert rc == 3
    assert out.count("\n") == 1
    assert doc["status"] == "error"
    assert doc["results"]["error"]["position"] == 2
    assert "expected '+' or '-'" in doc["results"]["error"]["message"]


def test_mixed_variable_letters_exits_2(capsys):
    rc, doc, _ = run(capsys, "assoc", "z1^2*e1^2", "--n", "2", "--d", "4")
    assert rc == 2


def test_invariant_catalecticant(capsys):
    rc, doc, _ = run(capsys, "invariant", "cat", "e1^2*e2^2")
    assert rc == 0
    assert doc["results"]["value"] == "-1/216"


def test_invariant_dispatches_by_variable_count(capsys):
    rc, doc, _ = run(capsys, "invariant", "j", "z1^4+z1^2*z2^2+z2^4")
    assert rc == 0
    assert doc["results"]["value"] == "2197/972"
    expected = a6_family(TernaryCubicFamily(1, 1, 1, 1))
    rc, doc, _ = run(capsys, "invariant", "a6", "z1^3+z2^3+z3^3+6*z1*z2*z3")
    assert rc == 0
    assert doc["results"]["value"] == str(expected)


def test_invariant_vanishing_denominator_exits_2(capsys):
    rc, doc, _ = run(capsys, "invariant", "j", "z1^4+2*z1^2*z2^2+z2^4")
    assert rc == 2
    assert doc["status"] == "error"


def test_hilbert_example(capsys):
    rc, doc, _ = run(capsys, "hilbert", "z1^2", "z2^2")
    assert rc == 0
    assert doc["results"]["hilbert"] == [1, 2, 1]


def test_hilbert_infinite_colength_exits_2(capsys):
    rc, doc, _ = run(capsys, "hilbert", "z1^2", "z1*z2")
    assert rc == 2


def test_inverse_system_member(capsys):
    rc, doc, _ = run(capsys, "inverse-system", "e1^3*e2^3", "--n", "2", "--d", "5")
    assert rc == 0
    assert doc["results"]["in_U"] is True
    assert doc["results"]["slice_dimension"] == 2
    assert doc["results"]["slice_basis"] == ["z1^4", "z2^4"]


def test_inverse_system_builds_the_slice_once(capsys, monkeypatch):
    calls = []
    real = apolarity.annihilator_graded
    monkeypatch.setattr(
        apolarity, "annihilator_graded", lambda *a: calls.append(a) or real(*a)
    )
    rc, doc, _ = run(capsys, "inverse-system", "e1^3*e2^3", "--n", "2", "--d", "5")
    assert rc == 0
    assert doc["results"]["in_U"] is True
    assert len(calls) == 1


def test_inverse_system_of_zero_names_the_zero_form(capsys):
    rc, doc, _ = run(capsys, "inverse-system", "0", "--n", "2", "--d", "3")
    assert rc == 2
    message = doc["results"]["error"]["message"]
    assert "zero form" in message
    assert "None" not in message


def test_inverse_system_nonmember(capsys):
    rc, doc, _ = run(capsys, "inverse-system", "e1^4", "--n", "2", "--d", "4")
    assert rc == 0
    assert doc["results"]["in_U"] is False
    assert doc["results"]["slice_dimension"] == 3
    assert doc["results"]["slice_basis"] is None


def test_verify_suite_passes(capsys):
    rc, doc, _ = run(capsys, "verify", "quartic", "--seed", "7", "--count", "5")
    assert rc == 0
    assert doc["status"] == "pass"
    assert doc["results"]["pass"] is True
    assert len(doc["results"]["cases"]) == 5
    assert doc["results"]["failures"] == []


def test_verify_every_suite_small(capsys):
    for suite in ("quartic", "quintic", "cubic", "involution", "equivariance", "apolarity", "hilbert"):
        rc, doc, _ = run(capsys, "verify", suite, "--seed", "3", "--count", "3")
        assert rc == 0, suite
        assert doc["results"]["pass"] is True, suite


def test_verify_seed_determinism(capsys):
    _, _, out1 = run(capsys, "verify", "equivariance", "--seed", "11", "--count", "4")
    _, _, out2 = run(capsys, "verify", "equivariance", "--seed", "11", "--count", "4")
    assert out1 == out2


def test_verify_different_seeds_differ(capsys):
    _, doc1, _ = run(capsys, "verify", "quartic", "--seed", "1", "--count", "3")
    _, doc2, _ = run(capsys, "verify", "quartic", "--seed", "2", "--count", "3")
    assert doc1["results"]["cases"] != doc2["results"]["cases"]


def test_duality_scan_flags_degenerate_image(capsys):
    rc, doc, _ = run(capsys, "duality-scan", "quartic", "--t", "1,3,6")
    assert rc == 0
    points = doc["results"]["points"]
    assert [p["t"] for p in points] == ["1", "3", "6"]
    assert points[0]["involution"] == "fixed"
    assert points[0]["J"] == "2197/972"
    assert points[0]["mobius_image"] == "2197/1225"
    assert points[0]["dual_t"] == "-12"
    assert points[0]["j_transform"] is True
    assert points[2]["involution"] == "image_degenerate"
    assert points[2]["J"] == "1"
    assert points[2]["mobius_image"] == "Infinity"
    assert points[2]["j_transform"] is None


def test_duality_scan_cubic(capsys):
    rc, doc, _ = run(capsys, "duality-scan", "cubic", "--t", "1,6")
    assert rc == 0
    points = doc["results"]["points"]
    assert points[0]["involution"] == "fixed"
    assert points[0]["dual_t"] == "-18"
    assert points[1]["involution"] == "image_degenerate"
    assert points[1]["J"] == "0"
    assert points[1]["mobius_image"] == "Infinity"


def test_duality_scan_excluded_parameter_exits_2(capsys):
    rc, doc, _ = run(capsys, "duality-scan", "quartic", "--t", "2")
    assert rc == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("assoc", "z1^4"),
        ("verify", "nope"),
        ("assoc", "z1^4", "--n", "two", "--d", "4"),
        ("duality-scan", "cubic", "--t", "-6,0"),
        (),
    ],
    ids=str,
)
def test_usage_error_prints_error_document(capsys, argv):
    rc, doc, _ = run(capsys, *argv)
    assert rc == 2
    assert doc["status"] == "error"
    assert doc["command"] == (argv[0] if argv else None)
    assert doc["results"]["error"]["message"]


def _raise(error):
    def stub(*args, **kwargs):
        raise error

    return stub


# each stub forces one failure of the library itself, not of its input
@pytest.mark.parametrize(
    "target, name, stub, argv, message",
    [
        (
            # the real solver, given one unit row per column: its kernel is 0
            milnor,
            "kernel_line",
            lambda rows, ncols: linalg.kernel_line(rows + [{c: 1} for c in range(ncols)], ncols),
            ("assoc", "z1^4+z2^4", "--n", "2", "--d", "4"),
            "socle has dimension 0",
        ),
        (
            duality,
            "proportional",
            lambda *args: False,
            ("duality-scan", "quartic", "--t", "1"),
            "left the line of the input",
        ),
        (
            suites,
            "verify_cubic_identity",
            _raise(DegenerateFamilyError("zero discriminant")),
            ("verify", "cubic", "--seed", "0", "--count", "1"),
            "gave up after 3 draws",
        ),
        (
            # an error outside AssoformError, as a library bug would raise
            milnor,
            "kernel_line",
            _raise(ValueError("stub library bug")),
            ("assoc", "z1^4+z2^4", "--n", "2", "--d", "4"),
            "stub library bug",
        ),
    ],
    ids=["degenerate socle", "involution", "rejection sampling", "ValueError"],
)
def test_internal_error_exits_4(capsys, monkeypatch, target, name, stub, argv, message):
    monkeypatch.setattr(target, name, stub)
    monkeypatch.setattr(sampling, "_MAX_REJECTIONS", 3)
    rc, doc, _ = run(capsys, *argv)
    assert rc == 4
    assert doc["status"] == "error"
    assert doc["command"] == argv[0]
    assert message in doc["results"]["error"]["message"]


# integers longer than Python's 4300-digit int/str conversion limit: a
# 4400-digit coefficient read, and a 2500-digit one whose associated form
# has a 5000-digit denominator printed
LONG = "3" * 4400
WIDE = "2" * 2499 + "1"


@pytest.mark.parametrize(
    "command, text",
    [
        ("assoc", f"{LONG}*z1^3 + z2^3"),
        ("invariant", f"{LONG}*z1^4 + z2^4"),
        ("assoc", f"{WIDE}*z1^3 + {WIDE}*z2^3"),
    ],
    ids=["assoc 4400 digits", "invariant 4400 digits", "assoc 5000-digit result"],
)
def test_integers_of_any_length_are_exact(capsys, command, text):
    if command == "assoc":
        argv = ("assoc", text, "--n", "2", "--d", "3")
    else:
        argv = ("invariant", "i2", text)
    limit = sys.get_int_max_str_digits()
    rc, doc, out = run(capsys, *argv)
    assert sys.get_int_max_str_digits() == limit
    assert rc == 0
    assert out.count("\n") == 1
    assert doc["status"] == "pass"
    sys.set_int_max_str_digits(0)
    try:
        f = parse_poly(text, 2, Space.Z)
        if command == "assoc":
            assert parse_poly(doc["results"]["form"], 2, Space.E) == associated_form(f).form
        else:
            assert Fraction(doc["results"]["value"]) == INVARIANTS["i2"](f)
    finally:
        sys.set_int_max_str_digits(limit)


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_json_uses_sorted_keys(capsys):
    _, _, out = run(capsys, "hilbert", "z1^2", "z2^2")
    assert out.index('"command"') < out.index('"inputs"') < out.index('"results"')


# a binary quartic with nonzero catalecticant and discriminant, and a
# cubic of the family a z1^3 + b z2^3 + c z3^3 + 6d z1z2z3 with nonzero A4
# and discriminant, so every invariant name evaluates on one of them
QUARTIC = "z1^4 - 3*z1^3*z2 + 2*z1^2*z2^2 + 5*z1*z2^3 - 4*z2^4"
FAMILY_CUBIC = "z1^3 + 2*z2^3 - 3*z3^3 + 3*z1*z2*z3"

# SHA-256 of stdout at fixed seeds and parameters; a change that alters any
# of these reports changes what a seed means, so it must update them on purpose
PINNED_STDOUT = {
    ("verify", "quartic", "--seed", "0", "--count", "4"):
        "56aed53cd19f9bc50baf71c7806c68f2a58bf0089d958167e2142516bbbe5d5e",
    ("verify", "quintic", "--seed", "0", "--count", "4"):
        "b4f090ff34390a50a59c46455a3f770d0c6e8493e6e8d3f1421139c6d04b4b3a",
    ("verify", "cubic", "--seed", "0", "--count", "4"):
        "6ad39deb104cd23258892910775cbc45bc6a53ce6c0e5dc624b90cada77c3c80",
    ("verify", "involution", "--seed", "0", "--count", "4"):
        "c56cd1198b97bec2c3bd99c71c9c1c700e4337447ee9908b0392408e390fd7e1",
    ("verify", "equivariance", "--seed", "0", "--count", "4"):
        "a5f5b78daa7cf04d67add0e9eb771c409b7837eb786c99855292a01661e74b18",
    ("verify", "apolarity", "--seed", "0", "--count", "4"):
        "bcd996cba0943fe8405dc38c733557d3e488d1b4fcdf716f10ce07270c5b9892",
    ("verify", "hilbert", "--seed", "0", "--count", "4"):
        "e8c4a2717088e920a95d2132d46f13b6085dec6ead2348ed84766f6b0c535714",
    ("verify", "equivariance", "--seed", "5", "--count", "6"):
        "484d4c7bb4f58f22b1edb90de2179102b96bb5b0a80be0610a976c0e682e06a1",
    ("verify", "quintic", "--seed", "3", "--count", "10"):
        "6eff220caf9c3a961f839bd66dafebb887fb19cc120cade10e801d199b3158f5",
    ("verify", "apolarity", "--seed", "2", "--count", "12"):
        "3aa3291b0d45d72264c1f3d98fe6ada15e4b1327df03daa6e9b1f549dc9f971f",
    # both families, orbit cases at k = 0, 5, 10 and the excluded cubic t = 6, 0
    ("verify", "involution", "--seed", "1", "--count", "11"):
        "bcaa22a4c93f3eb0097cbda9462b28c6d23add9b5654f26eb89e6d1b68093eac",
    ("verify", "quartic", "--seed", "1", "--count", "12"):
        "f9a77f34b38d9878f325d820dcb3f9a959599b29a0789e0e94c31f90fd1c5bad",
    ("verify", "cubic", "--seed", "1", "--count", "10"):
        "d07243c8f4cce5bc55cb65efbe8bb2e1eeb93fea2f3a79cd42efb77bfa42c190",
    ("verify", "quintic", "--seed", "1", "--count", "5"):
        "7d2ba887597420c9f71da420077dd612369f3939066ddcead84648bfabf9960d",
    ("duality-scan", "quartic", "--t=0,1,3,6,-6,1/2"):
        "03b7a372084f1b3cf1b131e61137ddb2fd3bbf74c2f9e099f19c0052f1fade2d",
    ("duality-scan", "cubic", "--t=0,1,6,-6,3/2"):
        "eee4cdfadf5f23b30d2008668a84440e7bdfb2e39f52a77e3344dfcb2230c3cd",
    (
        "assoc",
        "4*z1^4 + z1^3*z2 + 5*z1^3*z3 - 5*z1^2*z2^2 - 2*z1^2*z2*z3 - 5*z1^2*z3^2"
        " + 2*z1*z2^3 + z1*z2^2*z3 - 4*z1*z2*z3^2 + 2*z1*z3^3 - z2^4 + z2^3*z3"
        " - 4*z2^2*z3^2 + 5*z2*z3^3 + 4*z3^4",
        "--n", "3", "--d", "4",
    ):
        "bd03f0b57c51c7f85ef5a96bec1204ca62064a6c152eee4ab8c4346632c3edb2",
    ("assoc", "z1^3+2*z2^3-3*z3^3+1/2*z4^3", "--n", "4", "--d", "3"):
        "4a162244980b601f0ad81b01f304f2fbbb7e8f3dbcf7ca5ada2295f3de9cbe27",
    ("assoc", "z1^3+z2^3+z3^3+z4^3+z5^3-z1*z2*z3+2*z3*z4*z5", "--n", "5", "--d", "3"):
        "d946cbcbb4e0b32bc076448d0775f61547c9928a49a798e1535749eff34d91b5",
    (
        "assoc",
        "-2*z1^4 + z1^3*z2 - 4*z1^3*z3 + 3*z1^3*z4 + 4*z1^2*z2^2"
        " + 4*z1^2*z2*z3 - 4*z1^2*z2*z4 - 2*z1^2*z3^2 - 5*z1^2*z3*z4"
        " + 5*z1^2*z4^2 - z1*z2^3 - z1*z2^2*z3 + 5*z1*z2^2*z4 - 3*z1*z2*z3^2"
        " + 4*z1*z2*z3*z4 + 4*z1*z2*z4^2 - 5*z1*z3^3 - 2*z1*z3^2*z4"
        " - 3*z1*z3*z4^2 - 4*z1*z4^3 - 4*z2^4 + 5*z2^3*z3 - 2*z2^3*z4"
        " + 5*z2^2*z3^2 - 2*z2^2*z3*z4 + 4*z2^2*z4^2 + 4*z2*z3^3"
        " - 4*z2*z3^2*z4 - 4*z2*z3*z4^2 + 3*z2*z4^3 - 5*z3^4 - 4*z3^3*z4"
        " + 4*z3^2*z4^2 - 4*z3*z4^3 - 3*z4^4",
        "--n", "4", "--d", "4",
    ):
        "917e5faa2e20417cb861ca3e87e42e6481699ecefd9573f314d19987dc804b48",
    (
        "assoc",
        "-4*z1^6 + 5*z1^5*z2 - 5*z1^5*z3 + 5*z1^4*z2^2 - 5*z1^4*z2*z3"
        " + z1^4*z3^2 + 4*z1^3*z2^3 - 4*z1^3*z2^2*z3 - z1^3*z2*z3^2"
        " - 4*z1^3*z3^3 + 5*z1^2*z2^4 - 5*z1^2*z2^3*z3 - 4*z1^2*z2^2*z3^2"
        " + 3*z1^2*z2*z3^3 + 4*z1^2*z3^4 - 2*z1*z2^5 + 3*z1*z2^4*z3"
        " + 3*z1*z2^3*z3^2 + 4*z1*z2^2*z3^3 + 2*z1*z2*z3^4 + 4*z1*z3^5"
        " - 2*z2^6 - 5*z2^5*z3 + 3*z2^4*z3^2 + 5*z2^3*z3^3 - 2*z2^2*z3^4"
        " - 2*z2*z3^5 - 5*z3^6",
        "--n", "3", "--d", "6",
    ):
        "60ee624e05bf2639b58769b0d2db7ca58b454cbe1891c73dffc0e74e0eb2f3cb",
    (
        "assoc",
        "2*z1^5 - 7/2*z1^4*z2 + 5/4*z1^4*z3 - 2/5*z1^3*z2^2 - z1^3*z2*z3"
        " + 1/3*z1^3*z3^2 + 1/3*z1^2*z2^3 - 3*z1^2*z2^2*z3 - 3*z1^2*z2*z3^2"
        " + z1^2*z3^3 - z1*z2^4 - 7/2*z1*z2^3*z3 - 7/2*z1*z2^2*z3^2"
        " - z1*z2*z3^3 + 2*z1*z3^4 - z2^5 - 7/2*z2^4*z3 - 3*z2^3*z3^2"
        " - z2^2*z3^3 - 2/5*z2*z3^4 - 2/5*z3^5",
        "--n", "3", "--d", "5",
    ):
        "e7508b31c9d7acf1538f010c4c44c3786526ab96ad5a0c216a8039772935690a",
    ("hilbert", "z1^3+z2^3", "z1*z2^2", "z3^3"):
        "e313e27b1abafeb96837fe65fc8d9507c08223866c3275ec459cd8027db1d9ca",
    ("hilbert", "z1^2+z2^2", "z2^2+z3^2", "z3^2+z4^2", "z4^2-z1^2+z1*z2"):
        "cc4b764743c2414e28b7e60a0c72c7168efb4bc9662a7006d16680d27de37eac",
    ("inverse-system", "e1^2*e2^2*e3^2", "--n", "3", "--d", "4"):
        "1db2fbc62fb33c8e63a22dcd95267ac6c867eaece6d474ae8a2aac7ab1a3bd37",
    ("inverse-system", "e1^10+3*e1^4*e2^6-e2^10", "--n", "2", "--d", "7"):
        "3c19f31b963da19c10a1b4e60254c93973286267a607e78e70926f43f3e70888",
    ("inverse-system", "e1^3+e2^3+e3^3", "--n", "3", "--d", "3"):
        "a5d6bf8b60cf9c8580945cb9ee0979826a05b8e70caa6ac33ae37b8d66aef6dc",
    ("invariant", "cat", QUARTIC, "--n", "2"):
        "cbf374e910242e5d0ebae4ae1b129e08b083d339de2b225f3b879fa642c71d08",
    ("invariant", "i2", QUARTIC, "--n", "2"):
        "3329ec98ce1077a315f5341b3dc017df9d362cd5901ecf6a753fa5414e306b32",
    ("invariant", "delta", QUARTIC, "--n", "2"):
        "e31c96e3f9ffa7d3f9d57e63a8a61f916960e38fbe27775cd3ad653d35eae33b",
    ("invariant", "j", QUARTIC, "--n", "2"):
        "c2fff0a81f7e7519e0f18333c3988a351389e6898e91cdeaab4626b368107fa7",
    ("invariant", "k", QUARTIC, "--n", "2"):
        "eee6c7a7fbd8fb280f2b5e096535bfd9fd62d305562fd27cbbb2e829ae54211b",
    (
        "invariant", "a4",
        "z1^3 + 2*z1^2*z2 - z1*z2*z3 + 3*z2^3 - 1/2*z2*z3^2 + 5*z3^3", "--n", "3",
    ):
        "f510c159ba8ec14581674aaaaf86cdc4aad4420534f30497b891ff1af26e60f2",
    ("invariant", "a6", FAMILY_CUBIC, "--n", "3"):
        "51552b2dffa7d4ba45b771f0539f14ec0215ce039ce15afd89e0b2864f29ad7f",
    ("invariant", "delta", FAMILY_CUBIC, "--n", "3"):
        "63e8deb46adde43c2858b162ad8d19d6db33d9dd26cf3ec989f18e196627690f",
    ("invariant", "j", FAMILY_CUBIC, "--n", "3"):
        "e34f7fc0fd1caea12e426f4280dabe1344ee084642d4df094f32628e2bda75a5",
    ("invariant", "k", FAMILY_CUBIC, "--n", "3"):
        "65bd518c64986aa72b8bc3e16064fbccfde17af7498df41e304b1850c9278863",
    # the variable count inferred from the text, the space from its letters
    ("invariant", "i2", "e1^4 + 2*e1^3*e2 - 1/2*e2^4"):
        "5734ab1616db104a63ae73e30eeeba5e25aa4aa8a6c1c80091d5493a23b16231",
}


@pytest.mark.parametrize("argv", list(PINNED_STDOUT), ids=" ".join)
def test_stdout_bytes_are_pinned(capsys, argv):
    rc, _, out = run(capsys, *argv)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT[argv]
