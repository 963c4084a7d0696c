"""The test oracles judged against independent references."""

import numpy as np
import pytest

from oracles import (
    eig_dense,
    needs_extended,
    norm2,
    pinv_oracle,
    projection_oracle,
    prolate_dense,
    tikhonov_oracle,
    tikhonov_oracle_mpmath,
)


@needs_extended
@pytest.mark.parametrize("w", [0.25, 1.0 / 16.0])
def test_tikhonov_oracle_matches_mpmath(w):
    # the small-alpha criterion 6 cells weight eigenvalue errors by up to
    # 1/alpha, so the oracle judging them must itself sit well below eps
    pytest.importorskip("mpmath")
    n, alpha, eps = 64, 1e-8, 1e-9
    exact = tikhonov_oracle_mpmath(n, w, alpha, dps=40)
    assert norm2(tikhonov_oracle(n, w, alpha) - exact) <= eps / 10


def test_projection_oracle_idempotent_symmetric():
    ref = projection_oracle(128, 0.25, 64)
    assert norm2(ref @ ref - ref) <= 1e-10
    assert norm2(ref - ref.T) <= 1e-10


def test_pinv_oracle_inverts_top_space():
    n, w, k = 128, 0.25, 64
    ref = pinv_oracle(n, w, k)
    b = prolate_dense(n, w)
    lams, vecs = eig_dense(n, w)
    for j in range(k):
        if lams[j] > 1e-4:
            v = vecs[:, j]
            assert np.linalg.norm(ref @ (b @ v) - v) <= 1e-8


def test_tikhonov_oracle_large_alpha_scales_like_b():
    n, w, alpha = 128, 0.25, 1e6
    assert norm2(alpha * tikhonov_oracle(n, w, alpha) - prolate_dense(n, w)) <= 2e-6
