import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbn import _modp


def random_matrix(rng, rows, cols, p):
    return rng.integers(0, p, size=(rows, cols), dtype=np.int64)


def reference_rank(mat, p):
    """Row-by-row Gaussian elimination over F_p in Python integers."""
    rows = [[int(x) % p for x in row] for row in mat.tolist()]
    rank = 0
    for col in range(mat.shape[1]):
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
        rng = np.random.default_rng(0)
        p = 1000003
        for rows, cols in [(1, 1), (3, 7), (7, 3), (20, 20), (45, 66), (80, 36)]:
            mat = random_matrix(rng, rows, cols, p)
            assert _modp.modp_rank(mat, p) == reference_rank(mat, p)
        # rank-deficient: products of thin factors
        for inner, rows, cols in [(2, 9, 7), (5, 30, 40), (11, 25, 25)]:
            mat = random_matrix(rng, rows, inner, p) @ random_matrix(rng, inner, cols, 1000)
            assert _modp.modp_rank(mat % p, p) == reference_rank(mat, p) <= inner

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
        rng = np.random.default_rng(seed)
        left = random_matrix(rng, rows, inner, p) * (rng.random((rows, inner)) >= zero_frac)
        right = random_matrix(rng, inner, cols, p) * (rng.random((inner, cols)) >= zero_frac)
        for mat in (random_matrix(rng, rows, cols, p) * (rng.random((rows, cols)) >= zero_frac), left @ right % p):
            assert _modp.modp_rank(mat, p) == reference_rank(mat, p)

    def test_known_ranks(self):
        p = 101
        eye = np.eye(5, dtype=np.int64)
        assert _modp.modp_rank(eye, p) == 5
        assert _modp.modp_rank(np.zeros((4, 6), dtype=np.int64), p) == 0
        # rank drops mod p: the second row is p times the first
        mat = np.array([[1, 2], [p, 2 * p]], dtype=np.int64)
        assert _modp.modp_rank(mat, p) == 1

    def test_rank_with_duplicated_rows(self):
        rng = np.random.default_rng(3)
        p = 1009
        base = random_matrix(rng, 4, 9, p)
        stacked = np.vstack([base, base, (3 * base) % p])
        assert _modp.modp_rank(stacked, p) == _modp.modp_rank(base, p)

    def test_negative_entries_reduced(self):
        p = 97
        mat = np.array([[-1, 1], [96, -96]], dtype=np.int64)
        assert _modp.modp_rank(mat, p) == 1


class TestNullity:
    def test_rank_nullity(self):
        rng = np.random.default_rng(7)
        p = 1000003
        for _ in range(10):
            rows, cols = int(rng.integers(1, 40)), int(rng.integers(1, 40))
            mat = random_matrix(rng, rows, cols, p)
            assert _modp.modp_rank(mat, p) + _modp.modp_nullity(mat, p) == cols

    def test_empty_matrix(self):
        assert _modp.modp_nullity(np.zeros((0, 5), dtype=np.int64), 101) == 5

    def test_modulus_bounds(self):
        mat = np.ones((2, 2), dtype=np.int64)
        with pytest.raises(ValueError):
            _modp.modp_rank(mat, 1)
        with pytest.raises(ValueError):
            _modp.modp_rank(mat, 1 << 31)

