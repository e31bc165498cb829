import random
from fractions import Fraction

import pytest

import bareiss
from assoform import linalg
from assoform.errors import AssoformError, DegenerateSocleError, SingularMatrixError
from assoform.linalg import MatrixQ, _int_rows, nullspace_rows, rank_rows


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


def _random_matrix(rng, nrows, ncols, rank, rational):
    # product of random nrows x rank and rank x ncols factors, redrawn until
    # Bareiss finds the rank min(rank, nrows, ncols)
    den = (lambda: rng.randint(1, 6)) if rational else (lambda: 1)
    while True:
        left = [[Fraction(rng.randint(-3, 3), den()) for _ in range(rank)] for _ in range(nrows)]
        right = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(rank)]
        rows = [[sum(a * r[j] for a, r in zip(row, right)) for j in range(ncols)] for row in left]
        if bareiss.rank(rows) == min(rank, nrows, ncols):
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
        assert rank_rows(rows) == bareiss.rank(rows)
        assert nullspace_rows(rows, ncols=ncols) == bareiss.nullspace(rows, ncols)


def _watch_primes(monkeypatch):
    calls = []
    real = linalg._prev_prime
    monkeypatch.setattr(linalg, "_prev_prime", lambda p: calls.append(p) or real(p))
    return calls


def test_rank_deficient_mod_prime_takes_the_next_prime(monkeypatch):
    calls = _watch_primes(monkeypatch)
    p = linalg._PRIME
    # determinant p: full rank over Q, rank 1 modulo p (rows stay primitive,
    # so clearing denominators does not divide p out)
    assert rank_rows([[p, 1], [0, 1]]) == 2
    assert rank_rows([[Fraction(p, 3), Fraction(1, 3)], [0, 2]]) == 2
    assert calls == [p, p]


def test_full_rank_lifts_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("a kernel vector was lifted for a matrix of full rank")

    monkeypatch.setattr(linalg, "_lift", refuse)
    rng = random.Random(5)
    for nrows, ncols in [(6, 6), (9, 4), (3, 9)]:
        rank = min(nrows, ncols)
        assert rank_rows(_random_matrix(rng, nrows, ncols, rank, True)) == rank
    # every column the full rank can spare has no pivot
    assert rank_rows([[0, 0, 1, 0], [0, 0, 0, 2]]) == 2


def test_echelon_pivots():
    m, pivots = bareiss.row_echelon_int([[0, 1, 2], [1, 0, 1], [1, 1, 3]])
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


def test_nullspace_rejects_a_prime_that_moves_a_pivot(monkeypatch):
    # modulo p the pivot of [p, 1] sits in column 1, over Q in column 0: the
    # vector lifted for free column 0 has an entry right of it
    calls = _watch_primes(monkeypatch)
    p = linalg._PRIME
    assert nullspace_rows([[p, 1]]) == [[Fraction(-1, p), 1]]
    assert calls == [p]


def test_a_kernel_no_prime_certifies_is_an_internal_error(monkeypatch):
    # the prime loop ends at the Hadamard bound instead of running forever
    monkeypatch.setattr(linalg, "_lift", lambda *args: None)
    with pytest.raises(AssoformError, match="no prime certified a kernel of 1x2 rows"):
        nullspace_rows([[1, 1]])


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


def _sparse(rows):
    return [{j: v for j, v in enumerate(row) if v} for row in _int_rows(rows)]


def _assert_same_line(x, rows, ncols):
    # x is a nonzero multiple of the one vector Bareiss finds
    (ref,) = bareiss.nullspace(rows, ncols)
    i = next(j for j, v in enumerate(ref) if v)
    scale = Fraction(x[i]) / ref[i]
    assert scale and list(x) == [scale * v for v in ref]


@pytest.mark.parametrize(
    "nrows, ncols",
    [(6, 7), (7, 7), (12, 7), (20, 6), (4, 2)],
    ids=["wide", "square", "tall", "very tall", "two columns"],
)
def test_kernel_line_matches_nullspace_on_dense_rational_rows(nrows, ncols):
    rng = random.Random(200 + 10 * nrows + ncols)
    for _ in range(15):
        rows = _random_matrix(rng, nrows, ncols, ncols - 1, True)
        _assert_same_line(linalg.kernel_line(_sparse(rows), ncols), rows, ncols)


def test_kernel_line_matches_nullspace_on_diagonal_style_rows():
    # scaled unit rows, repeated and shuffled, that miss one column
    rng = random.Random(17)
    for ncols in (1, 2, 9, 40):
        free = rng.randrange(ncols)
        rows = [
            [rng.choice([-3, -1, 2, 5]) * (j == c) for j in range(ncols)]
            for c in range(ncols)
            if c != free
            for _ in range(rng.randint(1, 3))
        ]
        rng.shuffle(rows)
        x = linalg.kernel_line(_sparse(rows), ncols)
        if rows:
            _assert_same_line(x, rows, ncols)
        assert [bool(v) for v in x] == [j == free for j in range(ncols)]


def test_kernel_line_of_one_column_without_rows():
    assert linalg.kernel_line([], 1) == [1]
    assert linalg.kernel_line([{}, {}], 1) == [1]


def test_kernel_line_takes_the_next_prime(monkeypatch):
    # nullity 1 over Q, 2 modulo the first prime, which divides an entry
    calls = []
    real = linalg._prev_prime
    monkeypatch.setattr(linalg, "_prev_prime", lambda p: calls.append(p) or real(p))
    # sparse rows are taken as given: clearing content would divide p out
    x = linalg.kernel_line([{0: 1}, {1: linalg._PRIME}], 3)
    assert calls == [linalg._PRIME]
    assert x[:2] == [0, 0] and x[2]


def test_next_prime_descends_through_primes():
    primes = [linalg._PRIME]
    while len(primes) < 4:
        primes.append(linalg._prev_prime(primes[-1]))
    assert primes == [1073741789, 1073741783, 1073741741, 1073741723]
    primes = [60]
    while primes[-1] > 2:
        primes.append(linalg._prev_prime(primes[-1]))
    assert primes[1:] == [59, 53, 47, 43, 41, 37, 31, 29, 23, 19, 17, 13, 11, 7, 5, 3, 2]
    with pytest.raises(ValueError):
        linalg._prev_prime(2)


@pytest.mark.parametrize(
    "rows, ncols, dimension",
    [
        ([{0: 1}, {1: 1}], 2, 0),
        ([{0: 1, 1: 2, 2: 3}, {1: 1, 2: 1}, {0: 1, 1: 1, 2: 1}], 3, 0),
        ([{0: 1, 1: 1, 2: 1, 3: 1}, {0: 1, 1: 2, 2: 3, 3: 4}], 4, 2),
        ([], 2, 2),
        # nullity 2 over Q, 3 modulo the first prime: the second prime
        # settles it, and the reported dimension is the one over Q
        ([{0: 1}, {1: linalg._PRIME}], 4, 2),
    ],
    ids=["square", "nonsingular 3x3", "nullity 2", "no rows", "nullity 2 behind a bad prime"],
)
def test_kernel_line_rejects_other_nullities(rows, ncols, dimension):
    with pytest.raises(DegenerateSocleError, match=f"socle has dimension {dimension}, expected 1"):
        linalg.kernel_line(rows, ncols)


def test_reconstruction_recovers_fractions_with_a_common_denominator():
    p = linalg._PRIME
    modulus = p**3
    values = [Fraction(3, 7), Fraction(-5, 14), Fraction(0), Fraction(11, 2)]
    residues = [v.numerator * pow(v.denominator, -1, modulus) % modulus for v in values]
    nums, den = linalg._reconstruct(residues, modulus)
    assert [Fraction(a, den) for a in nums] == values
    # a residue with no small fraction behind it
    assert linalg._reconstruct([pow(3, 77, modulus), pow(5, 91, modulus)], modulus) is None
