"""The dto1 spectral kernels against the loops and tables they replaced:
cross_expectation against the double loop and the per-block moveaxis
kernel, the influence and shattering kernels against the mask loops, and
their memory at n = 20."""
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gadgetlab import dto1, gf2
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


def cross_expectation_moveaxis(f_coeffs: np.ndarray, g_coeffs: np.ndarray,
                               blocks: list[int], M: np.ndarray) -> float:
    """Reference: the kernel before the block-major transpose, which moved
    each block's axes to the front and back again around its mode product."""
    n_bits = int(round(math.log2(g_coeffs.size)))
    r = int(round(math.log2(M.shape[0])))
    g = np.asarray(g_coeffs, dtype=np.float64).reshape((2,) * n_bits)
    for b in blocks:
        axes = [k for k in range(n_bits) if (b >> (n_bits - 1 - k)) & 1]
        front = np.moveaxis(g, axes, range(r))
        moved = M @ front.reshape(1 << r, -1)
        g = np.moveaxis(moved.reshape(front.shape), range(r), axes)
    return float(np.dot(f_coeffs, g.reshape(-1)))


def popcounts_doubling(n_bits: int) -> np.ndarray:
    """Reference: the table for n bits is the one for n-1 bits followed by
    itself plus one."""
    out = np.zeros(1, dtype=np.int64)
    for _ in range(n_bits):
        out = np.concatenate((out, out + 1))
    return out


def block_hits_loop(blocks: list[int], n_bits: int) -> np.ndarray:
    """Reference: per mask, the number of blocks it touches."""
    return np.array([sum(1 for b in blocks if m & b) for m in range(1 << n_bits)], dtype=np.int64)


def coordinate_mass_loop(damped: np.ndarray) -> np.ndarray:
    """Reference: per coordinate i, a boolean-mask gather of the characters
    holding i, summed."""
    n_bits = int(round(math.log2(damped.size)))
    masks = np.arange(damped.size)
    out = np.zeros(n_bits)
    for i in range(n_bits):
        out[i] = float(damped[(masks >> i) & 1 == 1].sum())
    return out


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


@settings(max_examples=150)
@given(r=st.integers(1, 4), n_blocks=st.integers(0, 12), delta=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1), density=st.sampled_from([0.05, 0.5, 1.0]))
@example(r=1, n_blocks=0, delta=0.25, seed=0, density=1.0)
@example(r=1, n_blocks=1, delta=0.25, seed=1, density=1.0)
@example(r=3, n_blocks=3, delta=0.5, seed=2, density=1.0)
@example(r=1, n_blocks=9, delta=0.1, seed=3, density=0.5)
@example(r=4, n_blocks=3, delta=0.7, seed=4, density=1.0)
def test_block_major_kernel_matches_moveaxis_kernel(r, n_blocks, delta, seed, density):
    # up to n = 12; the tolerance is relative to |f|^T (tensor of |M|) |g|,
    # the sum of the magnitudes of every product the two kernels add up
    assume(r * n_blocks <= 12)
    rng = np.random.default_rng(seed)
    blocks = blocks_of(exact_r_projection(r, n_blocks, random.Random(seed)), n_blocks)
    size = 1 << (r * n_blocks)
    f, g = (rng.normal(size=size) * (rng.uniform(size=size) < density) for _ in range(2))
    M = yz_character_matrix(dist_table(delta, r))
    got = cross_expectation(f, g, blocks, M)
    want = cross_expectation_moveaxis(f, g, blocks, M)
    assert abs(got - want) <= 1e-12 * cross_expectation_moveaxis(np.abs(f), np.abs(g), blocks, np.abs(M))


@settings(max_examples=200)
@given(n_bits=st.integers(0, 12), target=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
       gamma=st.floats(0.0, 1.0), s=st.floats(0.0, 13.0))
@example(n_bits=0, target=1, seed=0, gamma=0.05, s=3.0)
@example(n_bits=1, target=1, seed=1, gamma=0.05, s=1.0)
@example(n_bits=9, target=4, seed=2, gamma=0.05, s=3.0)
@example(n_bits=9, target=9, seed=3, gamma=1.0, s=0.0)
@example(n_bits=12, target=3, seed=4, gamma=0.3, s=13.0)
def test_influence_and_shattering_kernels_match_the_mask_loops(n_bits, target, seed, gamma, s):
    # integer tables and masks exactly; influences, sums of non-negative
    # terms, to 1e-12 relative
    rng = np.random.default_rng(seed)
    pick = random.Random(seed)
    projection = tuple(pick.randrange(target) for _ in range(n_bits))
    blocks = blocks_of(projection, target)
    coeffs = rng.normal(size=1 << n_bits)
    pops, hits = popcounts_doubling(n_bits), block_hits_loop(blocks, n_bits)
    assert np.array_equal(gf2.popcounts(n_bits), pops) and gf2.popcounts(n_bits).dtype == np.int64
    assert np.array_equal(dto1.block_hits(blocks, n_bits), hits)
    shattered = hits == pops
    assert np.array_equal(dto1.shattered_mask(blocks, n_bits), shattered)
    dec = shattered_decomposition(coeffs, projection, target, s)
    high = pops >= s
    for got, keep in ((dec.f1, high), (dec.f2, ~high & ~shattered), (dec.f3, ~high & shattered)):
        assert np.array_equal(got, np.where(keep, coeffs, 0.0))
    for got, touched in ((dto1.noisy_influences(coeffs, gamma), pops),
                         (dto1.block_noisy_influences(coeffs, gamma, blocks), hits)):
        want = coordinate_mass_loop(coeffs**2 * (1.0 - gamma) ** (2 * touched))
        assert got.shape == (n_bits,)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


@settings(max_examples=150, deadline=None)
@given(n_bits=st.integers(0, 10), rows=st.integers(0, 4), target=st.integers(1, 10),
       seed=st.integers(0, 2**32 - 1), gamma=st.floats(0.0, 1.0), s=st.floats(0.0, 11.0))
@example(n_bits=0, rows=3, target=1, seed=0, gamma=0.05, s=3.0)
@example(n_bits=0, rows=0, target=1, seed=0, gamma=0.05, s=0.0)
@example(n_bits=10, rows=4, target=5, seed=1, gamma=0.3, s=4.0)
def test_stacked_helpers_equal_their_row_calls(n_bits, rows, target, seed, gamma, s):
    # bit for bit: a 1-D call runs the same code as a stack of one
    rng = np.random.default_rng(seed)
    projection = tuple(random.Random(seed).randrange(target) for _ in range(n_bits))
    blocks = blocks_of(projection, target)
    stack = rng.random((rows, 1 << n_bits))
    spectra = cube_spectrum(stack)

    def part(name):
        return lambda f: getattr(shattered_decomposition(f, projection, target, s), name)

    table, per_coordinate = (1 << n_bits,), (n_bits,)
    for source, helper, width in (
            (stack, gf2._fwht, table),
            (stack, gf2.walsh_hadamard, table),
            (stack, cube_spectrum, table),
            (spectra**2, dto1._coordinate_mass, per_coordinate),
            (spectra, lambda f: dto1.noisy_influences(f, gamma), per_coordinate),
            (spectra, lambda f: dto1.block_noisy_influences(f, gamma, blocks), per_coordinate),
            (spectra, part("f1"), table), (spectra, part("f2"), table), (spectra, part("f3"), table)):
        got = helper(source)
        assert got.shape == (rows, *width) and got.dtype == np.float64
        for row, values in zip(got, source):
            want = helper(values)
            assert want.shape == width and row.tobytes() == want.tobytes()


def test_kernels_hold_a_few_tables_at_twenty_bits():
    # six 2^n float64 tables per spectrum; a (2^n x n) table of bits would be twenty
    n, r = 20, 2
    rng = np.random.default_rng(47)
    f, g = rng.normal(size=1 << n), rng.normal(size=1 << n)
    stack = np.stack([f, g])
    blocks = blocks_of(exact_r_projection(r, n // r, random.Random(47)), n // r)
    projection = exact_r_projection(r, n // r, random.Random(48))
    M = yz_character_matrix(dist_table(0.25, r))
    for rows, kernel in ((1, lambda: dto1.noisy_influences(f, 0.05)),
                         (1, lambda: dto1.block_noisy_influences(f, 0.05, blocks)),
                         (1, lambda: cross_expectation(f, g, blocks, M)),
                         (2, lambda: cube_spectrum(stack)),
                         (2, lambda: dto1.noisy_influences(stack, 0.05)),
                         (2, lambda: dto1.block_noisy_influences(stack, 0.05, blocks)),
                         (2, lambda: shattered_decomposition(stack, projection, n // r, 3.0).f2)):
        tracemalloc.start()
        try:
            kernel()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 8 << n <= peak < rows * 6 * 8 << n  # numpy's tables are traced, and few
