import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbn import _modp


def random_matrix(rng, rows, cols, p, zero_frac=0.0):
    return [[rng.randrange(p) if rng.random() >= zero_frac else 0 for _ in range(cols)] for _ in range(rows)]


def product(left, right, p):
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*right)] for row in left]


def transpose(mat):
    return [list(col) for col in zip(*mat)]


def reference_rank(mat, p):
    """Column-by-column Gaussian elimination over F_p with row swaps."""
    rows = [[x % p for x in row] for row in mat]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] * inv % p
            rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


class TestRank:
    def test_agrees_with_python_reference(self):
        rng = random.Random(0)
        p = 1000003
        for rows, cols in [(1, 1), (3, 7), (7, 3), (20, 20), (45, 66), (80, 36)]:
            mat = random_matrix(rng, rows, cols, p)
            assert _modp.modp_rank(mat, p) == reference_rank(mat, p)
        # rank-deficient: products of thin factors
        for inner, rows, cols in [(2, 9, 7), (5, 30, 40), (11, 25, 25)]:
            mat = product(random_matrix(rng, rows, inner, p), random_matrix(rng, inner, cols, 1000), p)
            assert _modp.modp_rank(mat, p) == reference_rank(mat, p) <= inner

    @pytest.mark.parametrize("tall", [True, False], ids=["rows>cols", "rows<cols"])
    @settings(max_examples=60, deadline=None)
    @given(
        short=st.integers(1, 25),
        extra=st.integers(1, 25),
        p=st.sampled_from([2, 3, 101, 1000003]),
        seed=st.integers(0, 2**32 - 1),
        zero_frac=st.sampled_from([0.0, 0.5, 0.9]),
        data=st.data(),
    )
    def test_matches_reference_on_random_matrices(self, tall, short, extra, p, seed, zero_frac, data):
        # rank-deficient as a product through `inner` columns; sparse so that
        # pivot columns often hold zeros below the pivot
        rows, cols = (short + extra, short) if tall else (short, short + extra)
        inner = data.draw(st.integers(0, short))
        rng = random.Random(seed)
        left = random_matrix(rng, rows, inner, p, zero_frac)
        right = random_matrix(rng, inner, cols, p, zero_frac)
        for mat in (random_matrix(rng, rows, cols, p, zero_frac), product(left, right, p)):
            assert _modp.modp_rank(mat, p) == reference_rank(mat, p)

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(1, 30),
        cols=st.integers(1, 30),
        p=st.sampled_from([2, 3, 101, 2147483647]),
        seed=st.integers(0, 2**32 - 1),
        zero_frac=st.sampled_from([0.0, 0.5, 0.9]),
        data=st.data(),
    )
    def test_rank_of_the_transpose(self, rows, cols, p, seed, zero_frac, data):
        # row rank equals column rank; the transpose is eliminated in another
        # order than the matrix and the reference, so this checks the kernel
        # against no shared elimination
        inner = data.draw(st.integers(0, min(rows, cols)))
        rng = random.Random(seed)
        for mat in (
            random_matrix(rng, rows, cols, p, zero_frac),
            product(random_matrix(rng, rows, inner, p, zero_frac), random_matrix(rng, inner, cols, p, zero_frac), p),
        ):
            assert _modp.modp_rank(mat, p) == _modp.modp_rank(transpose(mat), p)

    def test_known_ranks(self):
        p = 101
        eye = [[int(i == j) for j in range(5)] for i in range(5)]
        assert _modp.modp_rank(eye, p) == 5
        assert _modp.modp_rank([[0] * 6 for _ in range(4)], p) == 0
        # rank drops mod p: the second row is p times the first
        assert _modp.modp_rank([[1, 2], [p, 2 * p]], p) == 1

    def test_rank_with_duplicated_rows(self):
        rng = random.Random(3)
        p = 1009
        base = random_matrix(rng, 4, 9, p)
        stacked = base + base + [[3 * x % p for x in row] for row in base]
        assert _modp.modp_rank(stacked, p) == _modp.modp_rank(base, p)

    def test_negative_entries_reduced(self):
        p = 97
        assert _modp.modp_rank([[-1, 1], [96, -96]], p) == 1

    def test_input_rows_are_not_modified(self):
        p = 7
        mat = [[1, 2, 3], [2, 4, 6], [8, 1, 0]]
        before = [row[:] for row in mat]
        assert _modp.modp_rank(mat, p) == 2 and mat == before


class TestNullity:
    def test_rank_nullity(self):
        rng = random.Random(7)
        p = 1000003
        for _ in range(10):
            rows, cols = rng.randrange(1, 40), rng.randrange(1, 40)
            mat = random_matrix(rng, rows, cols, p)
            assert _modp.modp_rank(mat, p) + _modp.modp_nullity(mat, p) == cols

    def test_empty_matrix(self):
        # a zero row, and rows with no columns
        assert _modp.modp_nullity([[0] * 5], 101) == 5
        assert _modp.modp_rank([[], []], 101) == _modp.modp_nullity([[], []], 101) == 0

    def test_modulus_bounds(self):
        mat = [[1, 1], [1, 1]]
        with pytest.raises(ValueError):
            _modp.modp_rank(mat, 1)
