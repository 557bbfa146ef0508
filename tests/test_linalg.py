"""Dense kernels checked against closed forms and numpy.linalg."""
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lvmut import linalg
from lvmut.errors import NoConvergence, NotIrreducible, NotSymmetric, SingularMatrix
from lvmut.linalg import (
    is_irreducible,
    is_positive_definite,
    perron_eigenpair,
    require_nonsingular,
    solve_linear,
    symmetric_spectrum,
)
from lvmut.model import build_model, growth_mutation_matrix, point_mutation_matrix, uniform_linear


def test_perron_2x2_closed_form():
    # eigenvalues of [[0.9, 0.1], [0.1, 1.9]] from the quadratic formula
    a = np.array([[0.9, 0.1], [0.1, 1.9]])
    lam_exact = (2.8 + math.sqrt(1.04)) / 2.0
    res = perron_eigenpair(a)
    assert abs(res.lambda_p - lam_exact) < 1e-13
    # eigenvector direction: second component / first = (lam - 0.9)/0.1
    ratio = res.v_p[1] / res.v_p[0]
    assert abs(ratio - (lam_exact - 0.9) / 0.1) < 1e-10
    assert np.all(res.v_p > 0)
    assert res.residual < 1e-12


def test_perron_negative_diagonal_shift():
    a = np.array([[-0.5, 0.2], [0.3, -0.1]])
    res = perron_eigenpair(a)
    lam_np = max(np.linalg.eigvals(a).real)
    assert abs(res.lambda_p - lam_np) < 1e-12
    assert np.all(res.v_p > 0)


def test_perron_rejects_negative_offdiagonal():
    with pytest.raises(ValueError):
        perron_eigenpair(np.array([[1.0, -0.1], [0.2, 1.0]]))


def test_perron_rejects_reducible():
    block = np.array([[1.0, 0.0], [0.0, 2.0]])
    with pytest.raises(NotIrreducible):
        perron_eigenpair(block)


def test_irreducibility():
    assert is_irreducible(np.array([[0.0]]))
    cycle = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    assert is_irreducible(cycle)
    # one-way chain: no path back
    chain = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert not is_irreducible(chain)


def _irreducible_by_search(mat):
    """Strong connectivity by a node-at-a-time breadth-first search both ways."""
    adj = np.asarray(mat) > 0.0
    np.fill_diagonal(adj, False)

    def reaches_all(a):
        seen = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for i in frontier:
                for j in np.nonzero(a[i])[0]:
                    if j not in seen:
                        seen.add(j)
                        nxt.append(j)
            frontier = nxt
        return len(seen) == len(a)

    return reaches_all(adj) and reaches_all(adj.T)


def _irreducibility_cases():
    rng = np.random.default_rng(4)
    block = rng.uniform(0.1, 1.0, size=(6, 6))
    block[3:, :3] = 0.0  # block upper triangular: no path from the lower block back
    one_way = np.roll(np.eye(7), 1, axis=1)  # i -> i + 1 around a cycle
    broken = one_way.copy()
    broken[6, 0] = 0.0
    sparse = (rng.uniform(size=(40, 40)) < 0.04).astype(float)
    cube = point_mutation_matrix(7, 0.02)
    cut = cube.copy()
    cut[:, 0] = 0.0  # nothing reaches genotype 0
    return [block, one_way, broken, sparse, cube, cut, np.zeros((3, 3))]


@pytest.mark.parametrize("mat", _irreducibility_cases())
def test_irreducible_matches_node_search(mat):
    assert is_irreducible(mat) == _irreducible_by_search(mat)


def test_irreducible_verdicts():
    block, one_way, broken, _, cube, cut, zeros = _irreducibility_cases()
    assert [is_irreducible(m) for m in (block, one_way, broken, cube, cut, zeros)] == [
        False, True, False, True, False, False
    ]


@settings(deadline=None, max_examples=50)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**31))
def test_jacobi_matches_numpy(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n))
    sym = 0.5 * (m + m.T)
    spec = symmetric_spectrum(sym)
    ref = np.linalg.eigvalsh(sym)[::-1]
    scale = max(1.0, float(np.max(np.abs(ref))))
    assert np.max(np.abs(spec.eigenvalues - ref)) < 1e-12 * scale
    q = spec.eigenvectors
    assert np.max(np.abs(q.T @ q - np.eye(n))) < 1e-12
    recon = q @ np.diag(spec.eigenvalues) @ q.T
    assert np.max(np.abs(recon - sym)) < 1e-11 * scale


def test_jacobi_descending_order():
    sym = np.diag([3.0, -1.0, 5.0])
    spec = symmetric_spectrum(sym)
    assert np.all(np.diff(spec.eigenvalues) <= 0)
    assert np.allclose(spec.eigenvalues, [5.0, 3.0, -1.0])


def test_jacobi_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        symmetric_spectrum(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_symmetry_is_judged_relative_to_the_largest_entry():
    # the rule mutation_symmetric applies to mu: an asymmetry of 4e-11 passes
    # on entries of 1e3 and is rejected on entries of 1
    skew = np.array([[1.0, 0.1], [0.1 * (1.0 + 4e-13), 1.5]])
    assert np.allclose(symmetric_spectrum(1e3 * skew).eigenvalues,
                       1e3 * symmetric_spectrum(skew).eigenvalues)
    with pytest.raises(NotSymmetric):
        symmetric_spectrum(skew + [[0.0, 0.0], [4e-11, 0.0]])


def test_solve_linear_cramer_oracle():
    a = np.array([[0.9, 0.1], [0.1, 1.9]])
    x = solve_linear(a, np.array([1.0, 2.0]))
    # by Cramer: det = 1.70, x1 = (1*1.9 - 0.1*2)/1.7 = 1, x2 = (0.9*2 - 0.1)/1.7 = 1
    assert np.max(np.abs(x - 1.0)) < 1e-14


@settings(deadline=None, max_examples=50)
@given(st.integers(min_value=1, max_value=7), st.integers(min_value=0, max_value=2**31))
def test_solve_linear_matches_numpy(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + n * np.eye(n)
    b = rng.normal(size=n)
    x = solve_linear(a, b)
    assert np.max(np.abs(x - np.linalg.solve(a, b))) < 1e-10


def test_solve_linear_singular():
    with pytest.raises(SingularMatrix):
        solve_linear(np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([1.0, 1.0]))


def _svd_verdict(a):
    """require_nonsingular's SVD rule, written out: the message it raises, or None."""
    scale = float(np.max(np.abs(a).sum(axis=1)))
    sigma_min = float(np.linalg.svd(a, compute_uv=False)[-1])
    if sigma_min >= 1e-14 * max(scale, 1e-300):
        return None
    return f"smallest singular value {sigma_min:g} below threshold"


def _symmetric_with_sigma_min(n, rel, rng):
    """An exactly symmetric, indefinite Q diag(lambda) Q^T whose smallest
    |lambda| is about rel times its largest absolute row sum."""
    q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    lam = np.geomspace(1.0, rel, n) * np.where(np.arange(n) % 2 == 0, 1.0, -1.0)

    def build():
        a = (q * lam) @ q.T
        return 0.5 * (a + a.T)

    lam[-1] *= np.max(np.abs(build()).sum(axis=1))
    return build()


@pytest.mark.parametrize("n", [2, 3, 8, 16, 64])
def test_symmetric_nonsingularity_verdict_is_the_svd_rule(monkeypatch, n):
    # the eigenvalue proof only skips the SVD where the SVD would pass; below
    # its margin the SVD decides, with the same message
    rng = np.random.default_rng(n)
    svd_calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        svd_calls.append(None)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    skipped = 0
    for rel in np.geomspace(1e-16, 1e-6, 21):
        a = _symmetric_with_sigma_min(n, rel, rng)
        assert np.array_equal(a, a.T)
        expected = _svd_verdict(a)
        svd_calls.clear()
        if expected is None:
            require_nonsingular(a)
        else:
            with pytest.raises(SingularMatrix) as info:
                require_nonsingular(a)
            assert str(info.value) == expected
        skipped += not svd_calls
    # both sides of the margin are exercised: rel >= 1e-8 skips the SVD
    assert 0 < skipped < 21


def _kernel_calls(monkeypatch, kernels=("eigh", "eigvalsh", "svd", "eig")):
    """The names of the numpy.linalg kernels called from here on, in order."""
    calls = []
    for kernel in kernels:
        def counted(*args, _kernel=kernel, _original=getattr(np.linalg, kernel), **kwargs):
            calls.append(_kernel)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, kernel, counted)
    return calls


def test_solve_linear_proves_a_symmetric_matrix_nonsingular_without_the_svd(monkeypatch):
    calls = _kernel_calls(monkeypatch)
    a = point_mutation_matrix(5, 0.01) + np.diag(np.linspace(0.5, 2.0, 32))
    x = solve_linear(a, np.ones(32))
    assert calls == ["eigh"]
    assert np.max(np.abs(a @ x - 1.0)) < 1e-12
    calls.clear()
    a[0, 1] += 1e-3  # asymmetric: the SVD alone
    solve_linear(a, np.ones(32))
    assert calls == ["svd"]


def test_positive_definiteness():
    assert is_positive_definite(np.array([[2.0, 0.5], [0.5, 2.0]]))
    assert not is_positive_definite(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_jacobi_handles_tiny_offdiagonals():
    # near-diagonal input with subnormal couplings must not stall the sweep
    a = np.diag([1.0, 2.0, 3.0])
    a[0, 1] = a[1, 0] = 1e-200
    spec = symmetric_spectrum(a)
    assert np.allclose(spec.eigenvalues, [3.0, 2.0, 1.0])


def test_solve_linear_rejects_near_singular():
    with pytest.raises(SingularMatrix):
        solve_linear(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]]), np.array([1.0, 1.0]))


def test_perron_nonsymmetric_metzler_matches_numpy():
    a = np.array([[-0.3, 0.2, 0.0], [0.0, 0.5, 0.7], [0.4, 0.1, -1.2]])
    res = perron_eigenpair(a)
    assert abs(res.lambda_p - max(np.linalg.eigvals(a).real)) < 1e-12
    assert np.all(res.v_p > 0)
    assert res.residual < 1e-12


def test_perron_starts_from_the_lapack_eigenvector():
    a = point_mutation_matrix(6, 0.01) + np.diag(np.linspace(0.5, 2.0, 64))
    res = perron_eigenpair(a)
    # one shifted step from the LAPACK vector; from a flat start it would take thousands
    assert res.iterations == 1
    assert res.residual < 1e-12
    assert abs(res.lambda_p - np.linalg.eigvalsh(a)[-1]) < 1e-12


@pytest.mark.parametrize("scale", [1e3, 1e4])
@pytest.mark.parametrize("loci", [1, 3, 5])
def test_perron_certificate_scales_with_the_matrix(loci, scale):
    # R+M of a point-mutation hypercube in finer time units: an absolute
    # residual bound of 1e-13 is below rounding once ||A|| reaches about 1e3
    n = 2 ** loci
    r = np.ones(n)
    model = build_model(n, r, 10.0, point_mutation_matrix(loci, 0.02), uniform_linear(r))
    a = scale * growth_mutation_matrix(model)
    res = perron_eigenpair(a)
    lam = max(np.linalg.eigvals(a).real)
    assert res.iterations == 1
    assert abs(res.lambda_p - lam) <= 1e-12 * abs(lam)
    assert np.all(res.v_p > 0)
    assert res.residual <= 1e-13 * np.max(np.abs(a).sum(axis=1))


def test_perron_rejects_a_collapsed_step():
    # the shifted map of a nonpositive 1x1 matrix is zero
    with pytest.raises(NoConvergence):
        perron_eigenpair(np.array([[-0.5]]))


def test_symmetric_spectrum_at_n128_matches_numpy():
    rng = np.random.default_rng(128)
    m = rng.normal(size=(128, 128))
    sym = 0.5 * (m + m.T)
    spec = symmetric_spectrum(sym)
    ref = np.linalg.eigvalsh(sym)[::-1]
    assert np.max(np.abs(spec.eigenvalues - ref)) < 1e-12 * np.max(np.abs(ref))
    q = spec.eigenvectors
    assert np.max(np.abs(q.T @ q - np.eye(128))) < 1e-12


# -- the eigh memo ----------------------------------------------------------------

_ENTRIES = st.one_of(
    st.just(0.0),
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=0.5e300, max_value=1e300).flatmap(lambda x: st.sampled_from([x, -x])),
)


@st.composite
def _symmetric_matrices(draw):
    """An exactly symmetric n x n matrix, n = 1..16: its upper triangle
    mirrored, entries 0, in [-1, 1] or of magnitude near 1e300."""
    n = draw(st.integers(min_value=1, max_value=16))
    upper = draw(st.lists(_ENTRIES, min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2))
    mat = np.zeros((n, n))
    mat[np.triu_indices(n)] = upper
    return np.triu(mat) + np.triu(mat, 1).T


def _eigh_or_error(mat):
    try:
        return np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        return exc


@settings(deadline=None, derandomize=True, max_examples=300)
@given(_symmetric_matrices())
def test_memoized_eigh_is_numpys_eigh_bit_for_bit(mat):
    linalg._EIGH_MEMO.clear()
    ref = _eigh_or_error(mat)
    if isinstance(ref, np.linalg.LinAlgError):
        with pytest.raises(NoConvergence) as info:
            linalg._symmetric_eigh(mat)
        assert str(info.value) == f"eigensolver failed: {ref}"
        assert linalg._EIGH_MEMO == []
        return
    got = linalg._symmetric_eigh(mat)
    again = linalg._symmetric_eigh(mat.copy())  # a hit, keyed on the bits
    assert again[0] is got[0] and again[1] is got[1]
    for mine, numpys in zip(got, ref):
        assert (mine.dtype, mine.shape) == (numpys.dtype, numpys.shape)
        assert mine.tobytes() == numpys.tobytes()
        assert not mine.flags.writeable


def _eigh_spy(monkeypatch):
    """The matrices np.linalg.eigh is called on, from here on."""
    calls = []
    eigh = np.linalg.eigh

    def counted(mat):
        calls.append(mat.copy())
        return eigh(mat)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


def test_memo_keeps_the_two_most_recently_used_matrices(monkeypatch):
    calls = _eigh_spy(monkeypatch)
    a, b, c = (np.diag([1.0, float(k)]) for k in (2, 3, 4))
    for mat in (a, b, a, b):
        linalg._symmetric_eigh(mat)
    assert len(calls) == 2
    linalg._symmetric_eigh(c)  # a third distinct matrix evicts the oldest, a
    assert len(calls) == 3
    linalg._symmetric_eigh(b)
    linalg._symmetric_eigh(c)
    assert len(calls) == 3
    linalg._symmetric_eigh(a)  # evicts b
    assert len(calls) == 4
    # a hit counts as a use: c, used after a, outlives it when b returns
    linalg._symmetric_eigh(c)
    linalg._symmetric_eigh(b)
    linalg._symmetric_eigh(c)
    assert len(calls) == 5 and np.array_equal(calls[-1], b)
    # the key is the bits: -0.0 is not 0.0
    linalg._symmetric_eigh(np.diag([1.0, 4.0]) * np.array([[1.0, -0.0], [-0.0, 1.0]]))
    assert len(calls) == 6


def test_a_failed_eigh_is_not_cached(monkeypatch):
    mat = np.array([[1.0, 0.5], [0.5, 1.0]])
    eigh = np.linalg.eigh

    def failing(mat):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing)  # looked up at call time
    with pytest.raises(NoConvergence, match="^eigensolver failed: Eigenvalues did not converge$"):
        linalg._symmetric_eigh(mat)
    assert linalg._EIGH_MEMO == []
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    calls = _eigh_spy(monkeypatch)
    w = linalg._symmetric_eigh(mat)[0]
    assert len(calls) == 1 and w.tobytes() == eigh(mat)[0].tobytes()


def test_a_failed_eigh_is_one_no_convergence_for_every_symmetric_reader(monkeypatch):
    # the memoized eigh is the one place a failed eigh becomes NoConvergence;
    # require_nonsingular catches it and leaves the verdict to the SVD
    def failing(mat):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing)
    mat = np.array([[-1.0, 0.5], [0.5, -2.0]])  # symmetric, irreducible, Metzler
    for reader in (symmetric_spectrum, is_positive_definite, perron_eigenpair):
        with pytest.raises(NoConvergence) as info:
            reader(mat)
        assert str(info.value) == "eigensolver failed: Eigenvalues did not converge", reader
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)
    require_nonsingular(mat)
    with pytest.raises(SingularMatrix, match="below threshold"):
        require_nonsingular(np.array([[1.0, 2.0], [2.0, 4.0]]))
    assert linalg._EIGH_MEMO == []


def test_require_nonsingular_reads_a_memoized_spectrum(monkeypatch):
    # a factorized symmetric matrix is proved nonsingular from the memo, with
    # no second eigh or SVD; one near-singular there still takes the SVD's
    # verdict
    calls = _kernel_calls(monkeypatch)
    a = point_mutation_matrix(5, 0.01) + np.diag(np.linspace(0.5, 2.0, 32))
    linalg._symmetric_eigh(a)
    require_nonsingular(a)
    assert calls == ["eigh"]
    singular = np.array([[1.0, 2.0], [2.0, 4.0]])
    linalg._symmetric_eigh(singular)
    with pytest.raises(SingularMatrix, match="below threshold"):
        require_nonsingular(singular)
    assert calls == ["eigh", "eigh", "svd"]


def test_a_fresh_symmetric_matrix_is_factorized_once_for_solve_and_perron(monkeypatch):
    # solve_linear's nonsingularity proof factorizes it, and perron_eigenpair
    # reads that factorization's top eigenvector
    calls = _kernel_calls(monkeypatch)
    a = point_mutation_matrix(4, 0.01) + np.diag(np.linspace(0.5, 2.0, 16))
    solve_linear(a, np.ones(16))
    res = perron_eigenpair(a)
    assert calls == ["eigh"]
    assert res.residual <= 1e-13 * max(1.0, float(np.max(np.abs(a).sum(axis=1))))


def _perron_from_a_tilted_vector(monkeypatch, norm, target):
    """perron_eigenpair on the 2 x 2 matrix of entries norm / 2 (||A||_inf =
    norm), started from a LAPACK vector tilted off the Perron vector so that
    the residual after the shifted step is about target: its result, or the
    NoConvergence it raises.

    The Perron vector is e1 = (1, 1) / sqrt 2 and the other eigenvector e2 =
    (1, -1) / sqrt 2, eigenvalues norm and 0. The shifted step (shift norm /
    2) divides a start e1 + delta e2's tilt by 3, and a unit vector tilted by
    d leaves the residual sqrt(2) (norm / 2) d to first order.
    """
    h = 0.5 * norm
    delta = 3.0 * target / (math.sqrt(2.0) * h)
    monkeypatch.setattr(linalg, "_top_eigenvector", lambda mat: np.array([1.0 + delta, 1.0 - delta]))
    try:
        return perron_eigenpair(np.full((2, 2), h))
    except NoConvergence as exc:
        return exc


@pytest.mark.parametrize("norm, bound", [(0.5, 1e-13), (5.0, 5e-13)])
def test_perron_residual_bound_is_relative_to_max_one_and_the_norm(monkeypatch, norm, bound):
    # the residual bound is 1e-13 max(1, ||A||_inf): at ||A||_inf = 0.5 the
    # floor 1 sets it, at 5 the norm does; a residual 5% under it passes and
    # one 5% over it fails
    under = _perron_from_a_tilted_vector(monkeypatch, norm, 0.95 * bound)
    assert isinstance(under, linalg.PerronResult)
    assert 0.94 * bound <= under.residual <= 0.96 * bound
    over = _perron_from_a_tilted_vector(monkeypatch, norm, 1.05 * bound)
    assert isinstance(over, NoConvergence)
    residual, limit = map(float, re.fullmatch(r"Perron residual (\S+) exceeds (\S+)", str(over)).groups())
    assert limit == bound
    assert 1.04 * bound <= residual <= 1.06 * bound


@pytest.mark.parametrize("call, message", [
    (lambda: perron_eigenpair(np.ones((2, 3))), "square"),
    (lambda: symmetric_spectrum(np.ones((2, 3))), "square"),
    (lambda: solve_linear(np.ones((2, 3)), np.ones(2)), "square"),
    (lambda: solve_linear(np.eye(2), np.ones(3)), "right-hand side"),
], ids=["perron-not-square", "spectrum-not-square", "solve-not-square", "solve-rhs-length"])
def test_kernels_reject_mis_shaped_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()
