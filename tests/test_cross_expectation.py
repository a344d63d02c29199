"""dto1.cross_expectation against the double-loop oracle and at n = 16."""
import math
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gadgetlab import dto1
from gadgetlab.dto1 import (blocks_of, cross_expectation, cube_spectrum,
                            dist_table, shattered_decomposition,
                            yz_character_matrix)


def cross_expectation_loop(f_coeffs: np.ndarray, g_coeffs: np.ndarray,
                           blocks: list[int], M: np.ndarray) -> float:
    """Small-n oracle: the double loop over both supports, one M entry per
    block and pair of characters."""
    n = f_coeffs.size
    fa = np.nonzero(np.abs(f_coeffs) > 1e-15)[0]
    gb = np.nonzero(np.abs(g_coeffs) > 1e-15)[0]
    block_pos = [sorted(j for j in range(int(round(math.log2(n)))) if (b >> j) & 1)
                 for b in blocks]

    def local(mask: int, positions) -> int:
        out = 0
        for t, j in enumerate(positions):
            out |= ((mask >> j) & 1) << t
        return out

    total = 0.0
    for a in fa:
        for b in gb:
            prod = float(f_coeffs[a]) * float(g_coeffs[b])
            for positions in block_pos:
                prod *= M[local(int(a), positions), local(int(b), positions)]
                if prod == 0.0:
                    break
            total += prod
    return total


def exact_r_projection(r: int, n_blocks: int, rng: random.Random) -> tuple[int, ...]:
    """A random projection with exactly r preimages per target label."""
    proj = [i for i in range(n_blocks) for _ in range(r)]
    rng.shuffle(proj)
    return tuple(proj)


@settings(max_examples=150, deadline=None)
@given(r=st.sampled_from([1, 2, 3]), n_blocks=st.integers(1, 8),
       delta=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1),
       densities=st.tuples(*[st.sampled_from([0.05, 0.3, 1.0])] * 2))
@example(r=2, n_blocks=4, delta=0.25, seed=0, densities=(1.0, 1.0))
@example(r=1, n_blocks=8, delta=0.5, seed=1, densities=(0.05, 1.0))
@example(r=3, n_blocks=2, delta=1.0, seed=2, densities=(0.3, 0.3))
def test_matches_loop_oracle(r, n_blocks, delta, seed, densities):
    assume(r * n_blocks <= 8)
    rng = np.random.default_rng(seed)
    blocks = blocks_of(exact_r_projection(r, n_blocks, random.Random(seed)), n_blocks)
    size = 1 << (r * n_blocks)
    f, g = (rng.normal(size=size) * (rng.uniform(size=size) < p) for p in densities)
    M = yz_character_matrix(dist_table(delta, r))
    got = cross_expectation(f, g, blocks, M)
    want = cross_expectation_loop(f, g, blocks, M)
    scale = max(1.0, float(np.abs(f).sum() * np.abs(g).sum()))
    assert abs(got - want) <= 1e-12 * scale


def test_shattered_closed_form_at_sixteen_bits():
    # 65,536 coefficients in 8 blocks of 2: 2^32 terms for the loop
    rng = np.random.default_rng(43)
    delta, r = 0.3, 2
    eta = 2 * delta / r
    proj = exact_r_projection(r, 8, random.Random(43))
    M = yz_character_matrix(dist_table(delta, r))
    coeffs = cube_spectrum(rng.uniform(0, 1, size=1 << 16))
    dec = shattered_decomposition(coeffs, proj, 8, s=17)
    spectral = cross_expectation(dec.f3, dec.f3, blocks_of(proj, 8), M)
    closed = float((dec.f3**2 * (-1.0 + eta) ** dto1.popcounts(16)).sum())
    assert spectral == pytest.approx(closed, abs=1e-12)
