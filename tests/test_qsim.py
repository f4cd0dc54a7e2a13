import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from permcode import asymptotics, qsim
from permcode.coding import CodingInstance, balanced_color_classes, classical_success, quantum_pmax_exact
from permcode.qsim import (
    _color_counts,
    _gamma_index,
    _gamma_indices,
    _generic_state,
    _orbit,
    all_perms,
    build_gamma,
    build_n3_example,
    build_optimal_signal,
    classical_channel_mc,
    compose,
    covariant_slack,
    invert,
    n3_irrep_basis,
    orbit_rank,
    orthogonality_check_n3,
    pgm_success,
    random_povm,
    success_probability,
    symmetrize_elements,
    symmetrize_povm,
)
from permcode.young import CapacityError, InternalInvariantError


# ------------------------------------------------------- permutation ops

def test_gamma_identity():
    g = np.eye(8)[build_gamma((0, 1, 2), 3, 2)]
    assert np.array_equal(g, np.eye(8))


def test_gamma_swap_is_swap_matrix():
    swap = np.eye(4)[build_gamma((1, 0), 2, 2)]
    expected = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=float)
    assert np.array_equal(swap, expected)


def test_gamma_three_cycle_order():
    g = np.eye(8)[build_gamma((1, 2, 0), 3, 2)]
    assert np.array_equal(np.linalg.matrix_power(g, 3), np.eye(8))
    assert not np.array_equal(g, np.eye(8))


def test_gamma_composition_property():
    rng = random.Random(0)
    perms = all_perms(4)
    for _ in range(50):
        p, q = rng.choice(perms), rng.choice(perms)
        lhs = np.eye(16)[build_gamma(p, 4, 2)] @ np.eye(16)[build_gamma(q, 4, 2)]
        rhs = np.eye(16)[build_gamma(compose(p, q), 4, 2)]
        assert np.array_equal(lhs, rhs)


def test_gamma_inverse_is_transpose():
    for p in all_perms(3):
        g = np.eye(8)[build_gamma(p, 3, 2)]
        assert np.array_equal(np.eye(8)[build_gamma(invert(p), 3, 2)], g.T)


def test_gamma_capacity():
    build_gamma(tuple(range(7)), 7, 2)  # 2^7 = 128 is fine
    with pytest.raises(CapacityError):
        build_gamma(tuple(range(13)), 13, 2)  # 2^13 = 8192 exceeds the cap


def test_gamma_rejects_a_non_permutation():
    with pytest.raises(ValueError, match="not a permutation"):
        build_gamma((0, 0, 1), 3, 2)


def test_orbit_capacity():
    # 9! * 2^9 stacked indices would take 1.5 GB: refused before any permutation is listed
    with pytest.raises(CapacityError):
        _gamma_indices(9, 2)
    with pytest.raises(CapacityError):
        orbit_rank(9, 2, seed=0)
    with pytest.raises(CapacityError):
        build_optimal_signal(7, 4)  # 4^7 = 16384 exceeds the dense-operator cap


def _digit_loop_gamma(perm, n, d):
    """Dense Gamma(perm) by the defining digit loop: the state of box i moves to box perm(i)."""
    dim = d**n
    mat = np.zeros((dim, dim))
    for digits in itertools.product(range(d), repeat=n):
        out = [0] * n
        for i, x in enumerate(digits):
            out[perm[i]] = x
        mat[int("".join(map(str, out)), d), int("".join(map(str, digits)), d)] = 1.0
    return mat


OPERATOR_CASES = [(2, 2), (3, 2), (4, 2), (3, 3), (2, 4)]


@pytest.mark.parametrize("n,d", OPERATOR_CASES)
def test_gamma_axis_convention(n, d):
    # the cached index, as the dense matrix np.eye(d**n)[idx] and raw, follows the digit-loop definition
    for p in all_perms(n):
        loop = _digit_loop_gamma(p, n, d)
        assert np.array_equal(np.eye(d**n)[build_gamma(p, n, d)], loop)
        idx = _gamma_index(p, n, d)
        assert np.array_equal(loop[np.arange(d**n), idx], np.ones(d**n))


@pytest.mark.parametrize("n,d", OPERATOR_CASES)
def test_gamma_index_application_and_conjugation(n, d):
    rng = np.random.default_rng(n * 10 + d)
    dim = d**n
    for p in all_perms(n):
        g = np.eye(d**n)[build_gamma(p, n, d)]
        idx = build_gamma(p, n, d)
        inv = build_gamma(invert(p), n, d)
        x = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        assert np.array_equal(x[idx], g @ x)
        assert np.allclose(m[np.ix_(idx, idx)], g @ m @ g.conj().T, rtol=0, atol=1e-12)
        assert np.allclose(m[np.ix_(inv, inv)], g.conj().T @ m @ g, rtol=0, atol=1e-12)


def test_weight_sectors_partition_the_basis():
    # every Gamma(sigma) keeps the color counts of each basis state, so a
    # state inside one weight sector keeps its orbit inside that sector
    counts = _color_counts(5, 4)
    assert np.array_equal(counts.sum(axis=1), np.full(4**5, 5))
    for idx in _gamma_indices(5, 4):
        assert np.array_equal(counts[idx], counts)


# ---------------------------------------------------------- n=3 example

def test_n3_basis_orthonormal_and_invariant():
    basis = n3_irrep_basis()
    mat = np.stack(list(basis.values()))
    assert np.abs(mat.conj() @ mat.T - np.eye(8)).max() < 1e-12
    # each 2-dim span is preserved by every permutation operator
    for names in (("1,1", "1,2"), ("2,1", "2,2")):
        block = np.stack([basis[nm] for nm in names]).T
        proj = block @ block.conj().T
        for p in all_perms(3):
            g = np.eye(8)[build_gamma(p, 3, 2)]
            assert np.abs(proj @ g @ proj - g @ proj).max() < 1e-12


def test_n3_signal_overlaps():
    psi, _ = build_n3_example()
    assert abs(np.vdot(psi, psi) - 1) < 1e-12
    for p in all_perms(3):
        ov = abs(np.vdot(psi, np.eye(8)[build_gamma(p, 3, 2)] @ psi))
        if p == (0, 1, 2):
            assert abs(ov - 1) < 1e-12
        else:
            assert abs(ov - 1 / 5) < 1e-12


def _elements(seed, n, d):
    """The covariant POVM of ``seed``, one element per permutation."""
    return {p: seed[np.ix_(idx, idx)] for p, idx in zip(all_perms(n), _gamma_indices(n, d))}


def test_n3_povm_is_valid():
    _, seed = build_n3_example()
    elements = _elements(seed, 3, 2)
    slack = covariant_slack(seed, 3, 2)
    assert np.abs(sum(elements.values()) + slack - np.eye(8)).max() < 1e-10
    for e in elements.values():
        assert np.linalg.eigvalsh((e + e.conj().T) / 2).min() > -1e-12
    assert np.linalg.eigvalsh((slack + slack.conj().T) / 2).min() > -1e-12
    # the slack projects onto the 3-dim complement of the 5-dim optimal subspace
    assert np.trace(slack).real == pytest.approx(3.0, abs=1e-10)


def test_n3_success_probability():
    psi, seed = build_n3_example()
    assert success_probability(psi, seed, 3, 2) == pytest.approx(5 / 6, abs=1e-10)


def test_n3_covariant_success_equals_seed_expectation():
    psi, seed = build_n3_example()
    seed_expect = float(np.real(psi.conj() @ seed @ psi))
    assert abs(success_probability(psi, seed, 3, 2) - seed_expect) < 1e-12


def test_success_random_guessing():
    psi, _ = build_n3_example()
    assert success_probability(psi, np.eye(8) / 6, 3, 2) == pytest.approx(1 / 6, abs=1e-12)


def test_success_perfect_classical_code_n2():
    psi = np.zeros(4, dtype=complex)
    psi[1] = 1.0  # up-down
    seed = np.outer(psi, psi.conj())
    assert np.linalg.eigvalsh(covariant_slack(seed, 2, 2)).min() > -1e-12
    assert success_probability(psi, seed, 2, 2) == pytest.approx(1.0, abs=1e-12)


def test_completion_of_elements_above_identity_raises(monkeypatch):
    # a doubled seed sums to more than I, so its slack is not PSD; the guard
    # of symmetrize_povm is reached only if the slack of a valid input is wrong,
    # here that of the doubled seed
    _, seed = build_n3_example()
    assert np.linalg.eigvalsh(covariant_slack(2 * seed, 3, 2)).min() == pytest.approx(-1.0, abs=1e-9)
    raw = {p: np.eye(8) / 6 for p in all_perms(3)}
    monkeypatch.setattr(qsim, "covariant_slack", lambda s, n, d: covariant_slack(2 * s, n, d))
    with pytest.raises(InternalInvariantError, match="not PSD"):
        symmetrize_povm(raw, 3, 2)


# --------------------------------------------------------- symmetrization

def test_symmetrize_fixed_point():
    _, seed = build_n3_example()
    slack = covariant_slack(seed, 3, 2)
    raw = _elements(seed, 3, 2)
    raw[(0, 1, 2)] = raw[(0, 1, 2)] + slack  # fold in the completion
    # a covariant POVM is unchanged apart from the completion it absorbs
    out = symmetrize_povm(raw, 3, 2)
    assert np.abs(out - (seed + slack / 6)).max() < 1e-12


def test_symmetrize_random_povm_covariance_and_success():
    rng = np.random.default_rng(5)
    psi, _ = build_n3_example()
    raw = random_povm(rng, 3, 2)
    seed = symmetrize_povm(raw, 3, 2)
    averaged = symmetrize_elements(raw, 3, 2)
    for p in all_perms(3):
        g = np.eye(8)[build_gamma(p, 3, 2)]
        assert np.abs(averaged[p] - g @ seed @ g.conj().T).max() < 1e-12
    raw_success = np.mean(
        [
            np.real(
                (np.eye(8)[build_gamma(p, 3, 2)] @ psi).conj()
                @ raw[p]
                @ (np.eye(8)[build_gamma(p, 3, 2)] @ psi)
            )
            for p in all_perms(3)
        ]
    )
    assert abs(success_probability(psi, seed, 3, 2) - raw_success) < 1e-12


def test_symmetrize_projective_n2():
    # computational-basis projectors bundled into two permutation outcomes
    kets = np.eye(4)
    raw = {
        (0, 1): np.outer(kets[0], kets[0]) + np.outer(kets[1], kets[1]),
        (1, 0): np.outer(kets[2], kets[2]) + np.outer(kets[3], kets[3]),
    }
    seed = symmetrize_povm(raw, 2, 2)
    # |00>, |11> split evenly between the outcomes, |01> and |10> each to one
    assert np.abs(seed - np.diag([0.5, 1.0, 0.0, 0.5])).max() < 1e-12
    # so the covariant POVM is complete: its slack vanishes
    assert np.abs(covariant_slack(seed, 2, 2)).max() < 1e-10


def test_symmetrize_rejects_incomplete_input():
    raw = {p: np.eye(8) / 7 for p in all_perms(3)}
    with pytest.raises(ValueError, match="identity"):
        symmetrize_povm(raw, 3, 2)
    # one permutation without an element
    raw = {p: np.eye(8) / 6 for p in all_perms(3)[1:]}
    with pytest.raises(ValueError, match="one element per permutation"):
        symmetrize_povm(raw, 3, 2)


def test_symmetrize_rejects_sum_above_identity_in_eigenvalue():
    # every entry of the sum is within 1e-10 of I, but the all-ones matrix J
    # has eigenvalue 8, so the sum exceeds I by 7.2e-10 in one direction
    raw = {p: (np.eye(8) + 0.9e-10 * np.ones((8, 8))) / 6 for p in all_perms(3)}
    with pytest.raises(ValueError, match="identity"):
        symmetrize_povm(raw, 3, 2)


def test_symmetrize_rejects_non_psd():
    raw = {p: np.eye(8) / 6 for p in all_perms(3)}
    raw[(0, 1, 2)] = raw[(0, 1, 2)] + np.diag([0.25] * 4 + [-0.25] * 4)
    raw[(0, 2, 1)] = raw[(0, 2, 1)] - np.diag([0.25] * 4 + [-0.25] * 4)
    with pytest.raises(ValueError, match="PSD"):
        symmetrize_povm(raw, 3, 2)


# ------------------------------------------------------------------- PGM

def test_pgm_n3_example():
    psi, seed = build_n3_example()
    assert pgm_success(psi, 3, 2) == pytest.approx(5 / 6, abs=1e-8)
    assert abs(pgm_success(psi, 3, 2) - success_probability(psi, seed, 3, 2)) < 1e-8


def test_pgm_orthogonal_ensemble():
    psi = np.zeros(4, dtype=complex)
    psi[1] = 1.0
    assert pgm_success(psi, 2, 2) == pytest.approx(1.0, abs=1e-12)


def test_pgm_symmetric_state():
    psi = np.zeros(8, dtype=complex)
    psi[0] = 1.0  # all spins up: invariant under every permutation
    assert pgm_success(psi, 3, 2) == pytest.approx(1 / 6, abs=1e-12)


def test_pgm_never_beats_formula_n3():
    rng = np.random.default_rng(42)
    best = float(quantum_pmax_exact(CodingInstance(3, 2)).p_quantum)
    for _ in range(200):
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi = v / np.linalg.norm(v)
        assert pgm_success(psi, 3, 2) <= best + 1e-8


@pytest.mark.parametrize(
    "n,d",
    [(3, 2), (4, 2), (4, 3), (5, 2), (5, 4), (6, 3), (7, 2), (8, 2), (7, 3)],
)
def test_optimal_signal_achieves_formula(n, d):
    exact = float(quantum_pmax_exact(CodingInstance(n, d)).p_quantum)
    signal = build_optimal_signal(n, d)
    assert pgm_success(signal, n, d) == pytest.approx(exact, abs=1e-8)


@pytest.mark.parametrize("rng_seed", [2083956903, 1727971462])
def test_optimal_signal_hard_seeds(rng_seed):
    # 2083956903: ten true eigenvalues of S lie below 1e-9 times the largest;
    # 1727971462: numpy's eigh (LAPACK dsyevd, OpenBLAS 0.3.31) does not converge on the
    # signal's two-valued Gram matrix, so the PGM must not need eigenvectors
    signal = build_optimal_signal(6, 3, rng_seed=rng_seed)
    assert pgm_success(signal, 6, 3) == pytest.approx(365 / 720, abs=1e-8)


def _gram_pgm(psi, n, d):
    """Reference PGM from the n! x n! Gram matrix of the orbit: (1/n!) sum of
    squared diagonal entries of its PSD square root."""
    states = psi[_gamma_indices(n, d)]
    gram = states.conj() @ states.T
    evals, evecs = np.linalg.eigh((gram + gram.conj().T) / 2)
    clipped = np.where(evals < 1e-12, 0.0, evals)
    sqrt_gram = (evecs * np.sqrt(clipped)) @ evecs.conj().T
    return float(np.sum(np.real(np.diag(sqrt_gram)) ** 2) / len(gram))


@pytest.mark.parametrize("n,d", [(3, 2), (4, 2), (4, 3), (5, 2)])
def test_pgm_matches_gram_oracle_random_state(n, d):
    rng = np.random.default_rng(n * 10 + d)
    for _ in range(3):
        v = rng.normal(size=d**n) + 1j * rng.normal(size=d**n)
        psi = v / np.linalg.norm(v)
        assert abs(pgm_success(psi, n, d) - _gram_pgm(psi, n, d)) <= 1e-10


@pytest.mark.parametrize("n,d", [(4, 3), (5, 4)])
def test_pgm_matches_gram_oracle_optimal_signal(n, d):
    signal = build_optimal_signal(n, d)
    assert abs(pgm_success(signal, n, d) - _gram_pgm(signal, n, d)) <= 1e-10


def _frame_pgm(psi, n, d):
    """Reference PGM from the whole d^n x d^n frame operator S = A^T conj(A):
    <psi|S^(-1/2)|psi>^2 on the eigenvalues of S at least 1e-12."""
    states = psi[_gamma_indices(n, d)]
    frame = states.T @ states.conj()
    evals, evecs = np.linalg.eigh((frame + frame.conj().T) / 2)
    kept = evals >= 1e-12
    overlaps = evecs[:, kept].conj().T @ psi
    return float(np.sum(np.abs(overlaps) ** 2 / np.sqrt(evals[kept]))) ** 2


@pytest.mark.parametrize("n,d", [(3, 2), (4, 3), (5, 4), (6, 3)])
def test_pgm_matches_frame_oracle_random_state(n, d):
    # instances where n! <= d^n, so pgm_success works from the Gram matrix
    rng = np.random.default_rng(n * 10 + d)
    for _ in range(2):
        v = rng.normal(size=d**n) + 1j * rng.normal(size=d**n)
        psi = v / np.linalg.norm(v)
        assert abs(pgm_success(psi, n, d) - _frame_pgm(psi, n, d)) <= 1e-10


@pytest.mark.parametrize("n,d", [(4, 2), (5, 4), (6, 3), (7, 2)])
def test_optimal_signal_is_tight_frame(n, d):
    # the orbit of S^(-1/2) psi has frame operator n!/dim_w times a projector of rank dim_w
    dim_w = quantum_pmax_exact(CodingInstance(n, d)).dim_w
    states = build_optimal_signal(n, d)[_gamma_indices(n, d)]
    evals = np.linalg.eigvalsh(states.T @ states)
    top = evals[-dim_w:]
    assert np.abs(top / (math.factorial(n) / dim_w) - 1).max() <= 1e-9
    assert np.abs(evals[:-dim_w]).max(initial=0.0) < 1e-9


def _gram_root(psi, n, d):
    """Reference S^(-1/2) psi from the whole n! x n! Gram matrix of the orbit:
    A^T G^(-1/2) e_0 on the eigenvalues of G at least 1e-12."""
    states = psi[_gamma_indices(n, d)]
    gram = states.conj() @ states.T
    evals, evecs = np.linalg.eigh((gram + gram.conj().T) / 2)
    kept = evals >= 1e-12
    return states.T @ (evecs[:, kept] / np.sqrt(evals[kept]) @ evecs[0, kept].conj())


@pytest.mark.parametrize("n,d", [(3, 2), (4, 3), (5, 4), (6, 3)])
@pytest.mark.parametrize("kind", ["real", "complex", "sector"])
def test_orbit_blocks_match_the_whole_gram_matrix(n, d, kind):
    # n! <= d^n: the core diagonalises n blocks of size (n-1)!, not G itself
    v = np.random.default_rng(n * 10 + d).normal(size=(2, d**n)).T @ [1, 1j]
    sizes = balanced_color_classes(n, d)
    psi = {
        "real": _generic_state(n, d, 3),
        "complex": v / np.linalg.norm(v),
        "sector": _generic_state(n, d, 3, tuple(sizes + [0] * (d - len(sizes)))),
    }[kind]
    states = psi[_gamma_indices(n, d)]
    whole = np.linalg.eigvalsh(states.conj() @ states.T)
    evals, _, root = _orbit(psi, n, d, root=True)
    assert len(evals) == math.factorial(n)
    assert np.abs(np.sort(evals) - whole).max() <= 1e-12 * whole.max()
    assert np.abs(root - _gram_root(psi, n, d)).max() <= 1e-10
    assert np.isrealobj(root) == np.isrealobj(psi)


def test_orbit_refuses_a_gamma_that_is_not_a_representation(monkeypatch):
    # the blocks split G only when G(h sigma, h tau) = G(sigma, tau); two rows of
    # the index stack swapped break that, and the blocks are no longer Hermitian
    swapped = _gamma_indices(4, 3).copy()
    swapped[[1, 2]] = swapped[[2, 1]]
    monkeypatch.setattr(qsim, "_gamma_indices", lambda n, d: swapped)
    with pytest.raises(InternalInvariantError, match="not Hermitian"):
        orbit_rank(4, 3, seed=1)


def test_qsim_reads_no_formula():
    # the dense checks are oracles for the formula, so of the modules that
    # hold it they may use only the errors and the color classes
    allowed = {"CapacityError", "InternalInvariantError", "balanced_color_classes"}
    formula_modules = {"permcode.young", "permcode.coding", "permcode.asymptotics"}
    used = {name for name, obj in vars(qsim).items() if getattr(obj, "__module__", None) in formula_modules}
    assert used <= allowed


def test_asymptotics_binds_no_private_name_of_young():
    # young's internals stay behind its public functions: the estimators read
    # the log pass and the exact ratio, never a helper of their own copy
    private = {
        name for name, obj in vars(asymptotics).items()
        if name.startswith("_") and getattr(obj, "__module__", None) == "permcode.young"
    }
    assert private == set()


def test_optimal_signal_memory_peak():
    # no dense Gamma(sigma): the (6, 3) construction plus its PGM stays far
    # below the ~3 GiB that 720 dense 729 x 729 operators would take
    build_gamma.cache_clear()
    tracemalloc.start()
    try:
        signal = build_optimal_signal(6, 3)
        pgm_success(signal, 6, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 * 2**20


def test_optimal_signal_42_adjudication():
    # the exact formula gives 12/24 = 1/2 at (4, 2) and the PGM oracle at the
    # constructed state confirms it is achievable (and below the 2/3 bound)
    signal = build_optimal_signal(4, 2)
    assert pgm_success(signal, 4, 2) == pytest.approx(0.5, abs=1e-8)


# ----------------------------------------------------- orbit rank (converse)

ORBIT_CASES = [(3, 2), (4, 2), (5, 4), (6, 3), (7, 2), (8, 2)]
MIN_GAP_RATIO = 1e6


@pytest.mark.parametrize("n,d", ORBIT_CASES)
def test_orbit_rank_is_dim_w(n, d):
    # a generic orbit spans sum D * min(m, D) = n! * P_max dimensions
    rank, gap = orbit_rank(n, d, seed=1)
    assert rank == quantum_pmax_exact(CodingInstance(n, d)).dim_w
    assert gap >= MIN_GAP_RATIO


@pytest.mark.parametrize("n,d,seed", [(4, 2, 247), (4, 3, 68), (6, 3, 2083956903)])
def test_orbit_rank_is_dim_w_at_hard_seeds(n, d, seed):
    # seeds at which true eigenvalues of S lie below 1e-9 times the largest,
    # while roundoff at (8, 2) reaches 2e-12: the support must scale with both
    rank, gap = orbit_rank(n, d, seed=seed)
    assert rank == quantum_pmax_exact(CodingInstance(n, d)).dim_w
    assert gap >= MIN_GAP_RATIO


@pytest.mark.parametrize("n,d", ORBIT_CASES)
def test_orbit_rank_balanced_sector_is_classical(n, d):
    # a signal with fixed color counts spans its sector, n! / prod(counts!) dimensions
    sizes = balanced_color_classes(n, d)
    rank, gap = orbit_rank(n, d, seed=1, sector=tuple(sizes + [0] * (d - len(sizes))))
    assert rank == math.factorial(n) * classical_success(CodingInstance(n, d))
    assert gap >= MIN_GAP_RATIO


def test_orbit_rank_rejects_bad_sector():
    with pytest.raises(ValueError):
        orbit_rank(4, 2, seed=0, sector=(2, 1))
    with pytest.raises(ValueError):
        orbit_rank(4, 2, seed=0, sector=(2, 2, 0))


# --------------------------------------------------------- orthogonality

def test_orthogonality_check_n3():
    relations, copies = orthogonality_check_n3()
    assert relations < 1e-12
    assert copies < 1e-12
    assert qsim.N3_COPY_SHARE == 1 / 3  # D/n! = 2/3!


def test_orthogonality_check_n3_flags_a_misaligned_copy(monkeypatch):
    # the second copy's basis in the other order: an equivalent copy, but its
    # matrix elements no longer equal the first's, so F^dagger F between the
    # two copies is not (n!/dim) delta_ac delta_bd
    basis = qsim.n3_irrep_basis()
    swapped = {**basis, "2,1": basis["2,2"], "2,2": basis["2,1"]}
    monkeypatch.setattr(qsim, "n3_irrep_basis", lambda: swapped)
    relations, copies = orthogonality_check_n3()
    assert relations > 1.0
    # the projection onto a copy does not depend on the order of its basis
    assert copies < 1e-12


# --------------------------------------------------- classical channel MC

def test_classical_channel_two_boxes():
    p_hat, stderr = classical_channel_mc(2, 2, 1000, seed=0)
    assert p_hat == 1.0 and stderr == 0.0


@pytest.mark.parametrize(
    "n,d,target", [(3, 2, 0.5), (4, 2, 0.25), (5, 2, 1 / 12), (6, 3, 1 / 8)]
)
def test_classical_channel_matches_formula(n, d, target):
    p_hat, stderr = classical_channel_mc(n, d, 100_000, seed=12)
    assert abs(p_hat - target) <= 4 * max(stderr, 1e-12)


def test_classical_channel_rejects_bad_trials():
    with pytest.raises(ValueError):
        classical_channel_mc(3, 2, 0, seed=0)


def test_dimension_mismatch_rejected():
    # n and d must describe the vector: an 8-amplitude state is not a (2, 2) state
    psi, _ = build_n3_example()
    with pytest.raises(ValueError, match="shape"):
        success_probability(psi, np.eye(4) / 2, 2, 2)
    with pytest.raises(ValueError, match="shape"):
        pgm_success(np.ones(8) / np.sqrt(8), 2, 2)
    # a signal is a unit vector: a scaled one is the caller's error, not an internal one
    with pytest.raises(ValueError, match="unit vector"):
        pgm_success(1e3 * psi, 3, 2)
    with pytest.raises(ValueError, match="unit vector"):
        success_probability(1e3 * psi, np.eye(8) / 6, 3, 2)


def test_seed_shape_rejected():
    # a 16 x 16 seed holding the N=3 seed in its top-left block is not a (3, 2) seed
    psi, seed = build_n3_example()
    padded = np.zeros((16, 16), dtype=complex)
    padded[:8, :8] = seed
    with pytest.raises(ValueError, match="seed has shape"):
        success_probability(psi, padded, 3, 2)
    with pytest.raises(ValueError, match="seed has shape"):
        covariant_slack(padded, 3, 2)
