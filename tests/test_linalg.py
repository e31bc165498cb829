import random
from fractions import Fraction

import pytest

from assoform import linalg
from assoform.errors import SingularMatrixError
from assoform.linalg import MatrixQ, _int_rows, nullspace_rows, rank_rows, row_echelon_int


def test_rank_simple():
    assert rank_rows([[1, 2], [2, 4]]) == 1
    assert rank_rows([[1, 0], [0, 1]]) == 2
    assert rank_rows([[0, 0], [0, 0]]) == 0
    assert rank_rows([]) == 0


def test_rank_rational_entries():
    rows = [
        [Fraction(1, 2), Fraction(1, 3), 0],
        [Fraction(3, 2), 1, 0],
        [0, 0, Fraction(7, 5)],
    ]
    assert rank_rows(rows) == 2


def _bareiss_rank(rows):
    return len(row_echelon_int(_int_rows(rows))[1]) if rows else 0


def _random_matrix(rng, nrows, ncols, rank, rational):
    # product of random nrows x rank and rank x ncols factors, redrawn until
    # Bareiss finds the rank min(rank, nrows, ncols)
    den = (lambda: rng.randint(1, 6)) if rational else (lambda: 1)
    while True:
        left = [[Fraction(rng.randint(-3, 3), den()) for _ in range(rank)] for _ in range(nrows)]
        right = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(rank)]
        rows = [[sum(a * r[j] for a, r in zip(row, right)) for j in range(ncols)] for row in left]
        if _bareiss_rank(rows) == min(rank, nrows, ncols):
            return rows


@pytest.mark.parametrize(
    "nrows, ncols, rank",
    [(7, 7, 7), (7, 7, 4), (9, 4, 4), (9, 4, 2), (3, 9, 4), (3, 9, 1), (5, 5, 0)],
    ids=["full", "deficient", "tall", "tall deficient", "wide", "wide deficient", "zero"],
)
@pytest.mark.parametrize("rational", [False, True], ids=["integer", "rational"])
def test_rank_matches_bareiss(nrows, ncols, rank, rational):
    rng = random.Random(100 * nrows + 10 * ncols + rank)
    for _ in range(25):
        rows = _random_matrix(rng, nrows, ncols, rank, rational)
        if rng.random() < 0.5:
            rows.insert(rng.randrange(nrows + 1), [0] * ncols)
        assert rank_rows(rows) == _bareiss_rank(rows)


def test_rank_deficient_mod_prime_takes_the_exact_path(monkeypatch):
    calls = []
    real = linalg.row_echelon_int
    monkeypatch.setattr(linalg, "row_echelon_int", lambda m: calls.append(m) or real(m))
    p = linalg._PRIME
    # determinant p: full rank over Q, rank 1 modulo p (rows stay primitive,
    # so clearing denominators does not divide p out)
    assert rank_rows([[p, 1], [0, 1]]) == 2
    assert rank_rows([[Fraction(p, 3), Fraction(1, 3)], [0, 2]]) == 2
    assert len(calls) == 2


def test_full_rank_skips_bareiss(monkeypatch):
    def refuse(m):
        raise AssertionError("Bareiss ran on a matrix of full rank")

    monkeypatch.setattr(linalg, "row_echelon_int", refuse)
    rng = random.Random(5)
    for nrows, ncols in [(6, 6), (9, 4), (3, 9)]:
        rank = min(nrows, ncols)
        assert rank_rows(_random_matrix(rng, nrows, ncols, rank, True)) == rank
    # every column the full rank can spare has no pivot
    assert rank_rows([[0, 0, 1, 0], [0, 0, 0, 2]]) == 2


def test_echelon_pivots():
    m, pivots = row_echelon_int([[0, 1, 2], [1, 0, 1], [1, 1, 3]])
    assert pivots == [0, 1]
    assert m[2] == [0, 0, 0]


def test_nullspace_line():
    basis = nullspace_rows([[1, 2], [2, 4]])
    assert basis == [[Fraction(-2), Fraction(1)]]


def test_nullspace_trivial():
    assert nullspace_rows([[1, 0], [0, 1]]) == []


def test_nullspace_empty_matrix_is_full():
    basis = nullspace_rows([], ncols=3)
    assert len(basis) == 3
    assert basis[0] == [1, 0, 0]


def test_nullspace_vectors_annihilate():
    rng = random.Random(11)
    for _ in range(20):
        nrows = rng.randint(1, 5)
        ncols = rng.randint(1, 6)
        rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(ncols)] for _ in range(nrows)]
        basis = nullspace_rows(rows, ncols=ncols)
        assert rank_rows(rows) + len(basis) == ncols
        for x in basis:
            for row in rows:
                assert sum(a * b for a, b in zip(row, x)) == 0


def test_nullspace_deterministic_normalization():
    # one free column -> coordinate 1 there, solved values elsewhere
    basis = nullspace_rows([[1, 1, 1], [0, 1, 2]])
    assert basis == [[Fraction(1), Fraction(-2), Fraction(1)]]


def test_matrixq_det_and_inverse():
    C = MatrixQ([[1, 2], [1, 3]])
    assert C.det() == 1
    D = C.inverse()
    assert C @ D == MatrixQ.identity(2)
    assert D @ C == MatrixQ.identity(2)
    assert MatrixQ([[2, 0], [0, Fraction(1, 2)]]).det() == 1


def test_matrixq_det_zero():
    assert MatrixQ([[1, 2], [2, 4]]).det() == 0
    with pytest.raises(SingularMatrixError):
        MatrixQ([[1, 2], [2, 4]]).inverse()


def test_matrixq_transpose():
    C = MatrixQ([[1, 2], [3, 4]])
    assert C.transpose() == MatrixQ([[1, 3], [2, 4]])
    assert C.transpose().transpose() == C


def test_matrixq_random_inverse_roundtrip():
    rng = random.Random(7)
    made = 0
    while made < 15:
        n = rng.randint(1, 4)
        C = MatrixQ([[Fraction(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)])
        if C.det() == 0:
            continue
        made += 1
        assert C @ C.inverse() == MatrixQ.identity(n)
        assert C.det() * C.inverse().det() == 1
