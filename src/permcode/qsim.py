"""Dense-matrix verification of the covariant-POVM machinery at small N and d:
permutation operators on (C^d)^(tensor N), the three-box two-color example,
POVM symmetrization, pretty-good-measurement success probabilities and orbit
ranks from the frame operator, matrix orthogonality relations, and a
classical-channel Monte Carlo.

A state is a plain vector of d^N amplitudes, and a permutation operator
Gamma(sigma) the index array idx that permutes the d^N basis states:
Gamma x = x[idx] and Gamma M Gamma^dagger = M[idx[:, None], idx].  The dense
matrix, np.eye(d^N)[idx], is never built here.  A covariant POVM is its seed
operator E, a d^N x d^N array, whose element for sigma is E[idx[:, None], idx].
One orbit core, ``_orbit``, gives both sides of the optimum from a generic
state psi: the rank of its orbit bounds every signal (``orbit_rank``), and the
tight frame S^(-1/2) psi reaches that bound (``build_optimal_signal``).  Where
n! <= d^n it splits the orbit's Gram matrix into n blocks by the cyclic
subgroup Z_n of S_n, whose characters omega^(jt) are the only ones it reads;
it reads no character of S_n, hook or content.

numpy is imported on first use: ``np`` is a stand-in that loads it on its
first attribute read, so importing this module, or ``permcode.cli``, loads
no numpy, and only the commands that call into this module pay for it.
"""

from __future__ import annotations

import importlib
import itertools
import math
import types
from functools import lru_cache

from .coding import balanced_color_classes
from .young import CapacityError, InternalInvariantError

DIMENSION_CAP = 4096  # largest d**n for dense operators
ORBIT_CAP = 2**24  # largest n! * d**n for the stacked Gamma indices of one orbit

COMPLETENESS_TOL = 1e-10  # on the sum of POVM elements, and on |psi|^2 = 1

Perm = tuple[int, ...]


class _LazyModule(types.ModuleType):
    """The module of this name, imported on the first attribute read.  Each
    attribute read through it is then kept on the stand-in itself."""

    def __getattr__(self, attr: str):
        value = getattr(importlib.import_module(self.__name__), attr)
        setattr(self, attr, value)
        return value


np = _LazyModule("numpy")


def all_perms(n: int) -> list[Perm]:
    """All permutations of {0..n-1} in a fixed (lexicographic) order."""
    return list(itertools.permutations(range(n)))

def compose(p: Perm, q: Perm) -> Perm:
    """(p o q)(i) = p(q(i)): apply q first."""
    return tuple(p[q[i]] for i in range(len(p)))

def invert(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, pi in enumerate(p):
        inv[pi] = i
    return tuple(inv)


def _dense_dim(n: int, d: int) -> int:
    """d^n, refused above ``DIMENSION_CAP``."""
    dim = d**n
    if dim > DIMENSION_CAP:
        raise CapacityError(f"d^n = {dim} exceeds the dense-operator cap {DIMENSION_CAP}")
    return dim


def _gamma_index(perm: Perm, n: int, d: int) -> np.ndarray:
    """Index array of Gamma(perm): (Gamma x)[k] = x[idx[k]].  Output box perm(i)
    reads input box i, so the (d,)*n tensor of indices is transposed by the
    inverse permutation."""
    return np.arange(d**n).reshape((d,) * n).transpose(invert(perm)).ravel()


@lru_cache(maxsize=1024)
def build_gamma(perm: Perm, n: int, d: int) -> np.ndarray:
    """The unitary permuting the n tensor factors, as the read-only index
    array idx with (Gamma x)[k] = x[idx[k]]: the state of box i moves to box
    perm(i), so Gamma(p)Gamma(q) = Gamma(p o q).  The dense matrix is
    ``np.eye(d**n)[idx]``.  ``d^n`` is capped at ``DIMENSION_CAP``.
    """
    _dense_dim(n, d)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"not a permutation of 0..{n - 1}: {perm}")
    idx = _gamma_index(perm, n, d)
    idx.flags.writeable = False  # shared through the cache
    return idx


def _gamma_indices(n: int, d: int) -> np.ndarray:
    """The Gamma indices of all permutations in ``all_perms`` order, stacked,
    shape (n!, d^n); d^n is capped at ``DIMENSION_CAP`` and n! * d^n at
    ``ORBIT_CAP``.  The indices are built here, not through the cache of
    ``build_gamma``, which holds fewer than the 5040 permutations of n = 7."""
    size = math.factorial(n) * _dense_dim(n, d)
    if size > ORBIT_CAP:
        raise CapacityError(f"n! * d^n = {size} exceeds the orbit cap {ORBIT_CAP}")
    return np.stack([_gamma_index(p, n, d) for p in all_perms(n)])


def _color_counts(n: int, d: int) -> np.ndarray:
    """How often each color occurs in every basis state (its weight), shape
    (d^n, d), from the state's n base-d digits, one per box."""
    digits = (np.arange(d**n)[:, None] // d ** np.arange(n - 1, -1, -1)) % d
    return (digits[:, :, None] == np.arange(d)).sum(axis=1)


def _ket(bits: str) -> np.ndarray:
    """Computational basis vector of (C^2)^(tensor len(bits)); '0' is up."""
    v = np.zeros(2 ** len(bits), dtype=complex)
    v[int(bits, 2)] = 1.0
    return v


N3_COPY_SHARE = 2 / 6  # D/n! of S_3's two-dimensional irrep: the optimal state's share of each copy


def n3_irrep_basis() -> dict[str, np.ndarray]:
    """Orthonormal basis of (C^2)^(tensor 3) adapted to the S_3 action: four
    symmetric one-dimensional spans plus two aligned two-dimensional copies.

    The second copy's basis is the spin-flip of the first's; since the global
    spin flip commutes with every Gamma(sigma), the two copies automatically
    carry identical matrix elements.
    """
    w = np.exp(2j * np.pi / 3)
    s3 = 1 / np.sqrt(3)
    basis = {
        "sym0": _ket("000"),
        "sym1": s3 * (_ket("001") + _ket("010") + _ket("100")),
        "sym2": s3 * (_ket("011") + _ket("101") + _ket("110")),
        "sym3": _ket("111"),
        # first two-dimensional copy
        "1,1": s3 * (_ket("011") + w * _ket("101") + np.conj(w) * _ket("110")),
        "1,2": s3 * (_ket("011") + np.conj(w) * _ket("101") + w * _ket("110")),
        # second copy: all spins flipped
        "2,1": s3 * (_ket("100") + w * _ket("010") + np.conj(w) * _ket("001")),
        "2,2": s3 * (_ket("100") + np.conj(w) * _ket("010") + w * _ket("001")),
    }
    return basis


def build_n3_example() -> tuple[np.ndarray, np.ndarray]:
    """The three-box, two-color example: signal state psi with equal overlap
    1/5 under every non-identity permutation, and the seed (5/6)|psi><psi| of
    the covariant POVM built from it."""
    b = n3_irrep_basis()
    psi = np.sqrt(1 / 5) * b["sym0"] + np.sqrt(2 / 5) * b["1,1"] + np.sqrt(2 / 5) * b["2,2"]
    # dim W = 5: one symmetric copy plus both two-dimensional copies
    return psi, (5 / 6) * np.outer(psi, psi.conj())


def _check_shape(name: str, array: np.ndarray, shape: tuple[int, ...], n: int, d: int) -> None:
    if array.shape != shape:
        raise ValueError(f"{name} has shape {array.shape}, not {shape} for n={n}, d={d}")


def _check_signal(psi: np.ndarray, n: int, d: int) -> None:
    """Refuse a ``psi`` that is not a unit vector of d^n amplitudes."""
    _check_shape("psi", psi, (d**n,), n, d)
    norm_sq = float(np.vdot(psi, psi).real)
    if abs(norm_sq - 1.0) > COMPLETENESS_TOL:
        raise ValueError(f"psi must be a unit vector, got squared norm {norm_sq:.12g}")


def covariant_slack(seed: np.ndarray, n: int, d: int) -> np.ndarray:
    """I - sum over sigma of Gamma(sigma) seed Gamma(sigma)^dagger, what the
    covariant POVM of the d^n x d^n ``seed`` leaves to a completion.  Its
    elements sum to at most I exactly when the slack is PSD."""
    _check_shape("seed", seed, (d**n, d**n), n, d)
    return np.eye(d**n) - sum(seed[idx[:, None], idx] for idx in _gamma_indices(n, d))


def symmetrize_elements(
    raw_elements: dict[Perm, np.ndarray], n: int, d: int
) -> dict[Perm, np.ndarray]:
    """The group average of a POVM indexed by permutations, one element per
    outcome t: E'_t = (1/n!) sum over s of Gamma(s)^dagger E_{s o t} Gamma(s).
    It is the only group average here; ``symmetrize_povm`` checks its input
    and keeps the identity's element."""
    perms = all_perms(n)
    inverse = [(s, build_gamma(invert(s), n, d)) for s in perms]  # Gamma(s)^dagger = Gamma(s^-1)
    nfact = math.factorial(n)
    return {t: sum(raw_elements[compose(s, t)][inv[:, None], inv] for s, inv in inverse) / nfact for t in perms}


def random_povm(rng: np.random.Generator, n: int, d: int) -> dict[Perm, np.ndarray]:
    """A random POVM, one element per permutation of ``all_perms(n)``: M M^dagger
    for each in turn, M = X + iY with X, Y standard normal d^n x d^n draws from
    ``rng``, all conjugated by T^(-1/2), T their sum, so that they sum to I."""
    dim, perms = _dense_dim(n, d), all_perms(n)
    gaussians = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)) for _ in perms)
    raws = [m @ m.conj().T for m in gaussians]
    evals, evecs = np.linalg.eigh(sum(raws))
    inv_sqrt = (evecs * (1.0 / np.sqrt(evals))) @ evecs.conj().T
    return {p: inv_sqrt @ e @ inv_sqrt for p, e in zip(perms, raws)}


def symmetrize_povm(raw_elements: dict[Perm, np.ndarray], n: int, d: int) -> np.ndarray:
    """Group-average a POVM indexed by permutations into the seed of a
    covariant one: after its checks, the identity's element of
    ``symmetrize_elements``.  Each averaged element is
    E'_t = Gamma(t) seed Gamma(t)^dagger, with the same success probability
    on the covariant ensemble.  The raw elements must be PSD and sum to I,
    every eigenvalue of their sum minus I within ``COMPLETENESS_TOL``; a
    ``covariant_slack`` of the seed that is not PSD is an internal error.
    """
    if set(raw_elements) != set(all_perms(n)):
        raise ValueError("raw POVM must have exactly one element per permutation")
    # the largest singular value: the largest |eigenvalue| of a Hermitian sum
    if np.linalg.norm(sum(raw_elements.values()) - np.eye(d**n), 2) > COMPLETENESS_TOL:
        raise ValueError("raw POVM elements do not sum to the identity")
    for p, e in raw_elements.items():
        if np.linalg.eigvalsh((e + e.conj().T) / 2).min() < -1e-9:
            raise ValueError(f"raw POVM element for {p} is not PSD")
    seed = symmetrize_elements(raw_elements, n, d)[tuple(range(n))]
    slack = covariant_slack(seed, n, d)
    evals = np.linalg.eigvalsh((slack + slack.conj().T) / 2)
    if evals.min() < -COMPLETENESS_TOL:
        raise InternalInvariantError(f"covariant completion not PSD: min eigenvalue {evals.min():.3e}")
    return seed


def success_probability(psi: np.ndarray, seed: np.ndarray, n: int, d: int) -> float:
    """Average probability of identifying a uniformly random permutation with
    the covariant POVM of ``seed``, E_sigma = Gamma(sigma) seed Gamma(sigma)^dagger:
    (1/n!) sum over sigma of <psi| Gamma(sigma)^dagger E_sigma Gamma(sigma) |psi>.
    Gamma(sigma) is unitary, so every term, and the average, is <psi|seed|psi>.
    ``psi`` must be a unit vector of d^n amplitudes and ``seed`` be d^n x d^n."""
    _check_signal(psi, n, d)
    _check_shape("seed", seed, (d**n, d**n), n, d)
    total = psi.conj() @ seed @ psi
    if abs(total.imag) > 1e-12:
        raise InternalInvariantError(f"success probability has imaginary part {total.imag:.3e}")
    return float(total.real)


def _coset_order(n: int) -> np.ndarray:
    """The positions in ``all_perms(n)`` of c^t o s_r, t-major: c the n-cycle
    i -> i + 1 mod n, and s_r the (n-1)! permutations that fix 0, one in each
    right coset of <c>.  ``all_perms`` lists those first, identity first."""
    perms = all_perms(n)
    position = {p: i for i, p in enumerate(perms)}
    reps = perms[: math.factorial(n - 1)]
    return np.array([position[tuple((x + t) % n for x in s)] for t in range(n) for s in reps])


def _orbit(
    psi: np.ndarray, n: int, d: int, root: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The eigenvalues of the frame operator
    S = sum_sigma Gamma(sigma)|psi><psi|Gamma(sigma)^dagger, or of the orbit's
    Gram matrix; the mask of those on the support of S; and with ``root``,
    S^(-1/2) psi on that support.

    With A = psi[indices], whose row sigma is Gamma(sigma) psi, S = A^T conj(A)
    (d^n x d^n) has the nonzero spectrum of the Gram matrix G = conj(A) A^T
    (n! x n!).  Where d^n < n!, S is diagonalised.  Elsewhere G is, in n
    blocks: G(h sigma, h tau) = G(sigma, tau), since Gamma is a unitary
    representation, so in the order sigma = c^t s_r of ``_coset_order`` G is
    block-circulant in t, with blocks F(u - t)[r, q] = G(s_r, c^(u-t) s_q)
    that R = (n-1)! rows of G hold.  A length-n DFT over t splits it into the
    Hermitian R x R blocks B_j = sum_t omega^(jt) F(t), omega = e^(2 pi i/n),
    whose eigenvalues together are those of G; only characters of Z_n enter.
    The diagonalised matrices must be Hermitian, which on the Gram side also
    tests that Gamma is a representation, and PSD.

    The support is the k eigenvalues above max|lambda| * k * eps, with k = d^n
    or n!, numpy's ``matrix_rank`` default: a fixed share of the largest drops
    true eigenvalues at rare psi, and a fixed floor keeps roundoff at n = 8.
    On the Gram side S^(-1/2) psi = A^T G^(-1/2) e_0, e_0 the identity's row,
    and G^(-1/2) e_0 is the inverse DFT over j of B_j^(-1/2) e_id; a real psi
    gets a real root.  Without ``root`` no eigenvectors are computed: LAPACK's
    divide-and-conquer eigenvector solver can fail to converge on the
    two-valued spectrum of a tight frame.
    """
    frame = psi[_gamma_indices(n, d)]
    real = not np.iscomplexobj(frame)
    conj = frame if real else np.conj(frame)  # a real A^T A is one BLAS syrk
    gram_side = frame.shape[0] <= frame.shape[1]
    if gram_side:
        size, order = math.factorial(n - 1), _coset_order(n)
        slab = (conj[:size] @ frame.T)[:, order].reshape(size, n, size)  # F(t)[r, q] at [r, t, q]
        mats = np.fft.ifft(slab, axis=1).swapaxes(0, 1) * n
    else:
        mats = (frame.T @ conj)[None]
    herm_resid = np.abs(mats - mats.conj().swapaxes(1, 2)).max()
    if herm_resid > 1e-10:
        raise InternalInvariantError(f"orbit matrix not Hermitian: residual {herm_resid:.3e}")
    mats = (mats + mats.conj().swapaxes(1, 2)) / 2
    evals, evecs = np.linalg.eigh(mats) if root else (np.linalg.eigvalsh(mats), None)
    if evals.min() < -1e-10:
        raise InternalInvariantError(f"orbit matrix not PSD: min eigenvalue {evals.min():.3e}")
    kept = evals > np.abs(evals).max() * evals.size * np.finfo(evals.dtype).eps
    if not root:
        return evals.ravel(), kept.ravel(), None
    inv_sqrt = kept / np.sqrt(np.where(kept, evals, 1.0))
    if gram_side:
        coeffs = np.fft.ifft(np.einsum("jrk,jk->jr", evecs, inv_sqrt * np.conj(evecs[:, 0])), axis=0).ravel()
        root_psi = frame.T @ (coeffs.real if real else coeffs)[np.argsort(order)]
    else:
        root_psi = (evecs[0] * inv_sqrt[0]) @ (np.conj(evecs[0]).T @ psi)
    return evals.ravel(), kept.ravel(), root_psi


def _generic_state(n: int, d: int, seed: int, sector: tuple[int, ...] | None = None) -> np.ndarray:
    """A unit real Gaussian vector on the d^n-dimensional tensor space; with
    ``sector`` (the count of each of the d colors) it is zero outside that
    weight sector."""
    psi = np.random.default_rng(seed).normal(size=_dense_dim(n, d))
    if sector is not None:
        if len(sector) != d or sum(sector) != n or min(sector) < 0:
            raise ValueError(f"sector must give a count >= 0 for each of {d} colors, summing to {n}")
        psi[(_color_counts(n, d) != np.asarray(sector)).any(axis=1)] = 0.0
    return psi / np.linalg.norm(psi)  # a unit psi keeps tr S = n!


def pgm_success(psi: np.ndarray, n: int, d: int) -> float:
    """Pretty-good-measurement success probability on the equal-prior ensemble
    {Gamma(sigma)|psi>}: |<psi|S^(-1/2)|psi>|^2, with S the frame operator
    sum_sigma Gamma(sigma)|psi><psi|Gamma(sigma)^dagger taken on its support,
    see ``_orbit``.

    Every Gamma(sigma) commutes with S, so each state of the ensemble is
    identified with this same probability.  The eigenvalues suffice: with G
    the orbit's Gram matrix, <psi|S^(-1/2)|psi> = (G^(1/2))_00, and
    G_(sigma,tau) = <psi|Gamma(sigma^-1 tau)|psi> commutes with the regular
    representation, so every diagonal entry of G^(1/2) is tr G^(1/2) / n!.
    ``psi`` must be a unit vector of d^n amplitudes.
    """
    _check_signal(psi, n, d)
    evals, kept, _ = _orbit(psi, n, d)
    return float((np.sqrt(evals[kept]).sum() / math.factorial(n)) ** 2)


def orbit_rank(
    n: int, d: int, seed: int, sector: tuple[int, ...] | None = None
) -> tuple[int, float]:
    """Dimension of the span of the orbit {Gamma(sigma) psi} of a real Gaussian
    psi, and the spectral gap that separates it from zero.

    The rank is the number of eigenvalues of the frame operator S on its
    support (see ``_orbit``); the gap ratio is the smallest of them over the
    largest magnitude off it (infinite when that is exactly zero).  Any pure
    signal identifies the permutation with probability at most rank / n!,
    and a generic psi spans sum over diagrams of D * min(m, D) dimensions.
    With ``sector`` (the count of each of the d colors) psi is restricted to
    that weight sector, which a generic psi spans whole: n! / prod(counts!)
    dimensions.
    """
    evals, kept, _ = _orbit(_generic_state(n, d, seed, sector), n, d)
    below = np.abs(evals[~kept]).max(initial=0.0)
    gap = evals[kept].min() / below if below > 0 else math.inf
    return int(kept.sum()), float(gap)


def build_optimal_signal(n: int, d: int, rng_seed: int = 7) -> np.ndarray:
    """A signal state whose pretty-good measurement succeeds with probability
    rank / n!, the optimum: the canonical tight frame S^(-1/2) psi, normalised,
    of the same generic psi whose rank ``orbit_rank`` counts.  Its orbit spans
    the same subspace, and its own frame operator is n!/rank times the
    projector onto it (Eldar & Forney 2001).
    """
    _, _, root_psi = _orbit(_generic_state(n, d, rng_seed), n, d, root=True)
    return root_psi / np.linalg.norm(root_psi)


def orthogonality_check_n3() -> tuple[float, float]:
    """On the adapted basis for n=3, d=2: the largest deviation from the
    matrix-element orthogonality relations, and that of the squared norms of
    the optimal state's projections onto the two equivalent two-dimensional
    copies from ``N3_COPY_SHARE``.  The tolerances are ``cli.verify_checks``'s.

    F has one row per permutation sigma and one column per matrix element
    (copy, a, b), sigma -> <a|Gamma(sigma)|b> within that copy.  The relations
    say F^dagger F = (n!/dim) delta_ac delta_bd between copies of the same
    irrep and 0 across irreps; equivalent copies, aligned, have equal columns.
    """
    basis = n3_irrep_basis()
    indices = [build_gamma(p, 3, 2) for p in all_perms(3)]
    copies = [("triv", ["sym0"]), ("triv", ["sym1"]), ("triv", ["sym2"]), ("triv", ["sym3"]),
              ("std", ["1,1", "1,2"]), ("std", ["2,1", "2,2"])]
    blocks = [np.stack([basis[nm] for nm in names]).T for _, names in copies]  # columns
    f_copies = [np.stack([(block.conj().T @ block[idx]).ravel() for idx in indices]) for block in blocks]
    labels = [(rho, len(names), a, b) for rho, names in copies for a in range(len(names)) for b in range(len(names))]
    irrep, dim, a, b = map(np.array, zip(*labels))  # of each column
    same = irrep[:, None] == irrep
    expected = np.where(same & (a[:, None] == a) & (b[:, None] == b), len(indices) / dim, 0.0)
    f = np.hstack(f_copies)
    resid = np.abs(f.conj().T @ f - expected)
    phi = math.sqrt(5 / 6) * build_n3_example()[0]
    relations = max(resid.max(), np.abs(f_copies[-2] - f_copies[-1]).max())
    comps = [block.conj().T @ phi for block in blocks[-2:]]
    copies = max(abs(float(np.real(c.conj() @ c)) - N3_COPY_SHARE) for c in comps)
    return float(relations), copies


def classical_channel_mc(n: int, d: int, trials: int, seed: int) -> tuple[float, float]:
    """Simulate the classical protocol, encode -> permute -> decode, one row per
    trial: a uniformly random balanced coloring of the n boxes, a uniformly
    random channel permutation sigma (box i arrives at position sigma(i)), and
    a decoder that knows the coloring and sends the boxes of each color to the
    positions where that color arrived, in uniformly random order.  A trial
    succeeds iff the decoder's guess equals sigma."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    sizes = balanced_color_classes(n, d)
    palette = np.repeat(np.arange(len(sizes)), sizes)
    shape = (trials, n)
    identity = np.broadcast_to(np.arange(n), shape)
    coloring = palette[rng.permuted(identity, axis=1)]
    sigma = rng.permuted(identity, axis=1)
    received = np.empty_like(coloring)
    np.put_along_axis(received, sigma, coloring, axis=1)
    # boxes sorted by color, randomly within a color, meet the positions
    # sorted by received color
    boxes = np.lexsort((rng.random(shape), coloring))
    slots = np.argsort(received, axis=1, kind="stable")
    guess = np.empty_like(sigma)
    np.put_along_axis(guess, boxes, slots, axis=1)
    p_hat = float(np.all(guess == sigma, axis=1).mean())
    stderr = math.sqrt(max(p_hat * (1 - p_hat), 0.0) / trials)
    return p_hat, stderr
