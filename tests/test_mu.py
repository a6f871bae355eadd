"""The mu engine: scalings, gradient, bounds, certificates."""

import dataclasses
import inspect
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rosenmu import (
    BlockStructure,
    NumericError,
    PartialIsometrySet,
    Scenario,
    all_scenarios,
    backward_error,
    certificate_to_delta,
    mu_bracket,
    mu_lower,
    mu_upper,
    perturbation_norm,
    sigma_max,
)
from rosenmu.instances import fluid_solid_instance
from rosenmu.mu import (
    BURSTS,
    CLOSE_TOL,
    EXACT_GAP_TOL,
    LINE_TRIALS,
    NEWTON_STEPS,
    STATIONARY_TOL,
    X_BOUND,
    UpperBound,
    _ascend,
    _ascent_direction,
    _branch,
    _branch_derivatives,
    _cluster_model,
    _damped_newton,
    _evaluate,
    _floor,
    _hermitian_basis,
    _kernel_direction,
    _kkt_step,
    _line_search,
    _normalized,
    _scaled,
    _snap_partial_isometry,
    _weights,
    minimize,
)

from conftest import (
    GOLDEN_5X5,
    GOLDEN_COMPETITOR_UPPER,
    GOLDEN_MU,
    GOLDEN_STRUCTURE,
    cgauss,
    random_structure,
    scan_reduce,
)

TWO_SCALARS = BlockStructure(((1, 1), (1, 1)))
ANTIDIAG = np.array([[0.0, 2.0], [3.0, 0.0]], dtype=complex)


def dense_scalings(x, structure):
    """Reference D1(x) = diag(e^{x_i} I_{k_i}) and D2(x) = diag(e^{x_i} I_{p_i})."""
    d1 = np.diag([np.exp(xi) for (_, k), xi in zip(structure.blocks, x) for _ in range(k)])
    d2 = np.diag([np.exp(xi) for (p, _), xi in zip(structure.blocks, x) for _ in range(p)])
    return d1, d2


def test_scale_matrices_identity():
    np.testing.assert_allclose(_scaled(ANTIDIAG, TWO_SCALARS, np.zeros(2)), ANTIDIAG)


def test_scale_matrices_two_scalars():
    # D1 M D2(-x) with D1 = D2 = diag(1, e)
    d = np.diag([1.0, np.e])
    ref = d @ ANTIDIAG @ np.linalg.inv(d)
    np.testing.assert_allclose(_scaled(ANTIDIAG, TWO_SCALARS, np.array([0.0, 1.0])), ref)
    assert _evaluate(ANTIDIAG, TWO_SCALARS, np.array([0.0, 1.0]))[1][0] == pytest.approx(sigma_max(ref))


def test_scale_matrices_rectangular():
    d1 = np.diag([1, 1, 1, np.e, np.e])
    d2 = np.diag([1, 1, np.e, np.e, np.e])
    ref = d1 @ GOLDEN_5X5 @ np.linalg.inv(d2)
    x = np.array([0.0, 1.0])
    np.testing.assert_allclose(_scaled(GOLDEN_5X5, GOLDEN_STRUCTURE, x), ref)
    assert _evaluate(GOLDEN_5X5, GOLDEN_STRUCTURE, x)[1][0] == pytest.approx(sigma_max(ref))


def test_scaled_sigma_at_zero(rng):
    m = cgauss(rng, 2, 2)
    assert _evaluate(m, TWO_SCALARS, np.zeros(2))[1][0] == pytest.approx(sigma_max(m))


def test_scaled_sigma_closed_form():
    for t in (-1.0, -0.2, 0.0, 0.4, 1.5):
        got = _evaluate(ANTIDIAG, TWO_SCALARS, np.array([0.0, t]))[1][0]
        assert got == pytest.approx(max(2 * np.exp(-t), 3 * np.exp(t)), rel=1e-12)


@given(st.integers(0, 300), st.floats(-5, 5))
@settings(max_examples=30, deadline=None)
def test_scaled_sigma_gauge_shift(seed, c):
    rng = np.random.default_rng(seed)
    structure = random_structure(rng, n_blocks=int(rng.integers(1, 4)))
    m = cgauss(rng, structure.k_total, structure.p_total)
    x = rng.uniform(-2, 2, structure.n_blocks)
    a = _evaluate(m, structure, x)[1][0]
    b = _evaluate(m, structure, x + c)[1][0]
    assert b == pytest.approx(a, rel=1e-12)


def test_gradient_antidiagonal():
    _, g, mult = _branch(_evaluate(ANTIDIAG, TWO_SCALARS, np.zeros(2)), TWO_SCALARS)
    assert mult == 1
    np.testing.assert_allclose(g, [-3.0, 3.0], rtol=1e-12)


def test_gradient_nonsmooth_flag():
    # sigma_max of the identity is repeated for two scalar blocks.
    assert _branch(_evaluate(np.eye(2), TWO_SCALARS, np.zeros(2)), TWO_SCALARS)[2] == 2


def test_gradient_sums_to_zero(rng):
    for _ in range(20):
        structure = random_structure(rng, n_blocks=3)
        m = cgauss(rng, structure.k_total, structure.p_total)
        x = rng.uniform(-1, 1, 3)
        _, g, mult = _branch(_evaluate(m, structure, x), structure)
        if mult > 1:
            continue
        assert abs(g.sum()) <= 1e-10 * sigma_max(m)


def central_difference_gradient(m, structure, x, h=1e-6):
    g = np.zeros(structure.n_blocks)
    for i in range(structure.n_blocks):
        e = np.zeros(structure.n_blocks)
        e[i] = h
        g[i] = (
            _evaluate(m, structure, x + e)[1][0] - _evaluate(m, structure, x - e)[1][0]
        ) / (2 * h)
    return g


def test_gradient_matches_central_differences(rng):
    done = 0
    while done < 25:
        structure = random_structure(rng, n_blocks=int(rng.integers(2, 4)))
        m = cgauss(rng, structure.k_total, structure.p_total)
        x = rng.uniform(-1, 1, structure.n_blocks)
        _, g, mult = _branch(_evaluate(m, structure, x), structure)
        if mult > 1:
            continue
        fd = central_difference_gradient(m, structure, x)
        assert np.linalg.norm(g - fd) <= 1e-5 * max(1.0, np.linalg.norm(fd))
        done += 1


@pytest.mark.parametrize("real", [True, False])
def test_branch_hessian_matches_central_differences(real):
    # the Hessian of sigma_1 from one SVD against central differences of the
    # analytic gradient, on rectangular M (k != p) under 2-4 blocks
    rng = np.random.default_rng(77 + real)
    h, done = 1e-5, 0
    while done < 20:
        structure = random_structure(rng, n_blocks=int(rng.integers(2, 5)), max_dim=3)
        if structure.k_total == structure.p_total:
            continue
        m = rng.standard_normal((structure.k_total, structure.p_total))
        if not real:
            m = m + 1j * rng.standard_normal(m.shape)
        m = np.asarray(m, dtype=complex)
        x = rng.uniform(-1, 1, structure.n_blocks)
        u, s, vh = np.linalg.svd(_scaled(m, structure, x))
        if s[0] - s[1] <= 1e-3 * s[0]:
            continue  # too near a kink for differences of step h
        grad, hess = _branch_derivatives(u, s, vh, structure)
        np.testing.assert_allclose(grad, _branch((u, s, vh), structure)[1], rtol=0, atol=1e-13)
        fd = np.column_stack([
            (_branch(_evaluate(m, structure, x + e), structure)[1]
             - _branch(_evaluate(m, structure, x - e), structure)[1]) / (2 * h)
            for e in h * np.eye(structure.n_blocks)
        ])
        assert np.abs(hess - fd).max() <= 1e-6 * np.abs(hess).max()
        done += 1


@pytest.mark.parametrize("real", [True, False])
def test_cluster_model_matches_branch_derivatives_and_differences(real):
    # At t = 1 and Z = 1 the KKT model is the branch's gradient and Hessian.
    # At t = 2 the traces of its forms are the gradient of sigma_1 + sigma_2
    # and W(I) its Hessian, against central differences, on rectangular M
    # under 2-4 blocks with the top pair apart from sigma_3
    rng = np.random.default_rng(91 + real)
    h, done = 1e-5, 0
    while done < 20:
        structure = random_structure(rng, n_blocks=int(rng.integers(2, 5)), max_dim=3)
        if min(structure.k_total, structure.p_total) < 3:
            continue
        m = rng.standard_normal((structure.k_total, structure.p_total))
        if not real:
            m = m + 1j * rng.standard_normal(m.shape)
        x = rng.uniform(-1, 1, structure.n_blocks)
        svd = _evaluate(m, structure, x)
        s = svd[1]
        if min(s[0] - s[1], s[1] - s[2]) <= 1e-3 * s[0]:
            continue  # too near a kink for differences of step h
        grad, hess = _branch_derivatives(*svd, structure)
        forms, hessian = _cluster_model(svd, 1, structure)
        np.testing.assert_allclose(forms[:, 0, 0], grad, rtol=0, atol=1e-14 * s[0])
        np.testing.assert_allclose(hessian(np.ones((1, 1))), hess, rtol=0, atol=1e-13 * np.abs(hess).max())

        def top_two_gradient(y):
            svd = _evaluate(m, structure, y)
            return _cluster_model(svd, 2, structure)[0].trace(axis1=1, axis2=2).real

        forms, hessian = _cluster_model(svd, 2, structure)
        fd = np.column_stack([
            (top_two_gradient(x + e) - top_two_gradient(x - e)) / (2 * h) for e in h * np.eye(structure.n_blocks)
        ])
        w = hessian(np.eye(2))
        np.testing.assert_allclose(w, w.T, rtol=0, atol=1e-14 * np.abs(w).max())
        assert np.abs(w - fd).max() <= 1e-6 * np.abs(w).max()
        done += 1


def test_block_sums_match_block_loops(rng):
    # the scalings index exp(x) by block: the same bits as repeating it
    for _ in range(20):
        structure = random_structure(rng, n_blocks=int(rng.integers(1, 6)), max_dim=4)
        ps, ks = zip(*structure.blocks)
        x = rng.uniform(-3, 3, structure.n_blocks)
        row, col = _weights(structure, x)
        assert row.tobytes() == np.repeat(np.exp(x), ks).tobytes()
        assert col.tobytes() == np.repeat(np.exp(-x), ps).tobytes()


def test_mu_upper_single_block(rng):
    m = cgauss(rng, 3, 2)
    res = mu_upper(m, BlockStructure(((2, 3),)))
    assert res.value == pytest.approx(sigma_max(m), rel=1e-14)
    np.testing.assert_allclose(res.x, [0.0])


def test_mu_bracket_single_block_both_sides(rng):
    # unstructured case: both bounds coincide with the spectral norm
    m = cgauss(rng, 3, 3)
    res = mu_bracket(m, BlockStructure(((3, 3),)))
    assert res.upper == pytest.approx(sigma_max(m), rel=1e-9)
    assert res.lower == pytest.approx(sigma_max(m), rel=1e-9)


def test_mu_upper_sqrt6():
    res = mu_upper(ANTIDIAG, TWO_SCALARS)
    assert res.value == pytest.approx(np.sqrt(6), rel=1e-10)


def test_mu_bracket_sqrt6_closed():
    res = mu_bracket(ANTIDIAG, TWO_SCALARS)
    assert res.upper == pytest.approx(np.sqrt(6), rel=1e-9)
    assert res.lower == pytest.approx(np.sqrt(6), rel=1e-9)
    assert res.exactness == "exact_n_le_3"
    d1, d2 = res.certificate_delta
    assert abs(d1[0, 0]) == pytest.approx(1 / np.sqrt(6), rel=1e-9)
    assert abs(d2[0, 0]) == pytest.approx(1 / np.sqrt(6), rel=1e-9)
    assert d1[0, 0] * d2[0, 0] == pytest.approx(1 / 6, rel=1e-9)


def test_mu_bracket_golden_example():
    res = mu_bracket(GOLDEN_5X5, GOLDEN_STRUCTURE)
    assert res.upper == pytest.approx(GOLDEN_MU, abs=1e-4)
    assert res.lower == pytest.approx(res.upper, rel=1e-6)
    assert res.upper < GOLDEN_COMPETITOR_UPPER
    assert res.exactness == "exact_n_le_3"


def test_mu_lower_zero_matrix():
    zero = np.zeros((2, 2))
    res = mu_lower(mu_upper(zero, TWO_SCALARS))
    assert res.value == 0.0
    assert res.certificate is None


def test_mu_zero_bracket_flag():
    res = mu_bracket(np.zeros((2, 2)), TWO_SCALARS)
    assert res.possibly_zero
    assert res.lower == res.upper == 0.0


@pytest.fixture
def kernel_only(monkeypatch):
    """mu_lower without its ascent: each candidate is taken as built."""
    monkeypatch.setattr("rosenmu.mu._ascend", lambda a, delta, rho, places, **_: (rho, delta, 0))


# a kernel direction is accepted up to this residual sum
KERNEL_TOL = 1e-8


def _upper_at(m, structure, x):
    """An upper-bound record at a chosen x with no target: mu_lower then
    refines every candidate of the evaluation at x."""
    a = np.asarray(m, dtype=complex)
    scale, x = sigma_max(a), np.asarray(x, dtype=float)
    a_n = _normalized(a, scale)
    return UpperBound(np.inf, x, 1, None, 0, scale, 1, _evaluate(a_n, structure, x), a_n, structure)


def test_extract_certificate_simple_case(rng, kernel_only):
    # Generic single block: top pair is simple, certificate reaches sigma_max.
    m = cgauss(rng, 3, 3)
    structure = BlockStructure(((3, 3),))
    low = mu_lower(_upper_at(m, structure, np.zeros(1)))
    assert low.kernel_residual <= KERNEL_TOL
    pset = low.certificate
    assert pset is not None
    assert pset.max_defect() <= 1e-10
    rho = np.max(np.abs(np.linalg.eigvals(structure.assemble(pset.blocks) @ m)))
    assert rho == pytest.approx(sigma_max(m), rel=1e-9)


def test_extract_certificate_kink(kernel_only):
    # At the sqrt(6) optimum both branches meet: repeated sigma_max.
    t_star = 0.5 * np.log(2.0 / 3.0)
    low = mu_lower(_upper_at(ANTIDIAG, TWO_SCALARS, [0.0, t_star]))
    assert low.kernel_residual <= KERNEL_TOL
    pset = low.certificate
    assert pset is not None
    rho = np.max(np.abs(np.linalg.eigvals(TWO_SCALARS.assemble(pset.blocks) @ ANTIDIAG)))
    assert rho == pytest.approx(np.sqrt(6), rel=1e-7)


def test_certificate_to_delta_scaled_identity():
    structure = BlockStructure(((2, 2),))
    m = 2 * np.eye(2, dtype=complex)
    res = mu_bracket(m, structure)
    blocks, resid = certificate_to_delta(res.lower_bound.certificate, m)
    assert perturbation_norm(blocks) == pytest.approx(0.5, rel=1e-12)
    assert resid <= 1e-12


def _identity_set(structure):
    return PartialIsometrySet(
        tuple(np.eye(p, k, dtype=complex) for p, k in structure.blocks), structure
    )


def test_certificate_to_delta_diagonal():
    # P = I: Delta = I / lambda_e with lambda_e = -3j, the dominant eigenvalue.
    blocks, resid = certificate_to_delta(
        _identity_set(BlockStructure(((2, 2),))), np.diag([2, -3j])
    )
    np.testing.assert_allclose(blocks[0], np.eye(2) / -3j)
    assert resid <= 1e-14


def test_certificate_to_delta_nilpotent_raises():
    with pytest.raises(NumericError):
        certificate_to_delta(
            _identity_set(BlockStructure(((2, 2),))), np.array([[0, 1], [0, 0]])
        )


def test_certificate_to_delta_zero_set_raises():
    zero = PartialIsometrySet((np.zeros((1, 1)), np.zeros((1, 1))), TWO_SCALARS)
    with pytest.raises(NumericError):
        certificate_to_delta(zero, ANTIDIAG)


def test_certificate_to_delta_balanced_antidiagonal():
    # det(I - Delta M) = 1 - 6 d1 d2 vanishes at |di| = 1/sqrt(6).
    m = ANTIDIAG @ np.diag([1 / np.sqrt(6), 1 / np.sqrt(6)])
    blocks, resid = certificate_to_delta(_identity_set(TWO_SCALARS), m)
    assert perturbation_norm(blocks) == pytest.approx(1.0, rel=1e-12)
    assert resid <= 1e-12


def test_certificate_to_delta_bounded_by_sigma_max(rng):
    structure = BlockStructure(((5, 5),))
    for _ in range(20):
        m = cgauss(rng, 5, 5)
        blocks, resid = certificate_to_delta(_identity_set(structure), m)
        rho = 1.0 / perturbation_norm(blocks)
        assert rho <= sigma_max(m) * (1 + 1e-12)
        assert resid <= 1e-8 * sigma_max(m) / rho


def test_snap_partial_isometry(rng):
    g = cgauss(rng, 3, 2)
    p = _snap_partial_isometry(g)
    assert np.linalg.norm(p @ p.conj().T @ p - p, 2) <= 1e-12
    np.testing.assert_allclose(_snap_partial_isometry(np.zeros((2, 3))), 0)


def _check_bracket_and_certificate(m, structure):
    res = mu_bracket(m, structure)
    assert res.lower <= res.upper + 1e-9 * max(1.0, res.upper)
    assert res.upper <= sigma_max(m) + 1e-12
    if res.lower_bound.certificate is not None:
        assert res.lower_bound.certificate.max_defect() <= 1e-10
    if res.certificate_delta is not None:
        delta = structure.assemble(res.certificate_delta)
        assert res.delta_residual <= 1e-8 * max(
            1.0, sigma_max(m) * sigma_max(delta)
        )
        assert perturbation_norm(res.certificate_delta) == pytest.approx(
            1.0 / res.lower, rel=1e-9
        )
    return res


def test_bracket_and_certificate_invariants(rng):
    for _ in range(12):
        structure = random_structure(rng, n_blocks=int(rng.integers(1, 5)))
        _check_bracket_and_certificate(cgauss(rng, structure.k_total, structure.p_total), structure)
    # wide M (p_i >= 2 k_i), where the thin SVD's trailing right singular
    # vectors are not those of the full one; real M on every third draw
    wide = np.random.default_rng(2026)
    for i in range(12):
        n_blocks = int(wide.integers(2, 6))
        structure = BlockStructure(tuple((int(wide.integers(2, 5)), 1) for _ in range(n_blocks)))
        m = cgauss(wide, structure.k_total, structure.p_total)
        res = _check_bracket_and_certificate(m.real if i % 3 == 0 else m, structure)
        if n_blocks <= 3:
            assert res.exactness == "exact_n_le_3"


def test_bracket_bounds_ordered_on_wide_draws():
    # on wide M the two bounds meet to roundoff, where the searches' last
    # bits may cross; the reported pair is ordered exactly
    wide = np.random.default_rng(2026)
    for i in range(120):
        n_blocks = int(wide.integers(2, 6))
        structure = BlockStructure(tuple((int(wide.integers(2, 5)), 1) for _ in range(n_blocks)))
        m = cgauss(wide, structure.k_total, structure.p_total)
        res = mu_bracket(m.real if i % 3 == 0 else m, structure)
        assert res.lower <= res.upper, i


def test_exactness_n_le_3(rng):
    for _ in range(10):
        structure = random_structure(rng, n_blocks=int(rng.integers(2, 4)))
        m = cgauss(rng, structure.k_total, structure.p_total)
        res = mu_bracket(m, structure)
        assert res.exactness == "exact_n_le_3"
        assert res.upper - res.lower <= 1e-6 * max(1.0, res.upper)


@given(st.integers(0, 200))
@settings(max_examples=20, deadline=None)
def test_homogeneity(seed):
    rng = np.random.default_rng(seed)
    structure = random_structure(rng, n_blocks=int(rng.integers(1, 4)))
    m = cgauss(rng, structure.k_total, structure.p_total)
    c = complex(rng.standard_normal(), rng.standard_normal())
    if abs(c) < 0.1:
        c = 0.5 + 0.5j
    base = mu_bracket(m, structure)
    scaled = mu_bracket(c * m, structure)
    assert scaled.upper == pytest.approx(abs(c) * base.upper, rel=1e-9)
    assert scaled.lower == pytest.approx(abs(c) * base.lower, rel=1e-9)


def test_delta_scaling_invariance(rng):
    # The identity behind the upper bound: D2(-x) Delta D1(x) = Delta.
    for _ in range(10):
        structure = random_structure(rng, n_blocks=3)
        delta = structure.assemble(
            [cgauss(rng, p, k) for p, k in structure.blocks]
        )
        x = rng.uniform(-3, 3, 3)
        d1, _ = dense_scalings(x, structure)
        _, d2m = dense_scalings(-x, structure)
        np.testing.assert_allclose(d2m @ delta @ d1, delta, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# Early exit at a smooth optimum and lazily built lower-bound candidates.
# ---------------------------------------------------------------------------

# mu_upper values (float.hex) from the full search: eight BFGS starts and
# the simplex polish on every problem.  Stopping after the first start at
# a smooth stationary point may land a few ulps higher; more than
# UPPER_SLACK relative would be a worse bound.
PINNED_RANDOM_UPPER = [
    "0x1.4c94340c64defp+1", "0x1.8efd71b3ec233p+1", "0x1.87749df842240p+1",
    "0x1.36137e2932c27p+2", "0x1.59ff2856591e0p+2", "0x1.26a0815c563f3p+2",
    "0x1.95df7075f32bbp+2", "0x1.561fa6f8a73a1p+2", "0x1.4fa067bb56395p+2",
    "0x1.82ecf12a372ccp+2", "0x1.ca82a9a373504p+2", "0x1.8213c6a590deep+2",
]
PINNED_FLUID_SOLID_UPPER = {
    "AB": "0x1.008d1174a6256p+2",
    "AC": "0x1.03f87e59b85dbp+2", "AP": "0x1.d5c99ec0d8858p+1",
    "BC": "0x1.353d769b16fadp+1", "BP": "0x1.153919f898eb8p+1",
    "CP": "0x1.22d35532b30dbp+1", "ABC": "0x1.4c86b2a1698e6p+2",
    "ABP": "0x1.343b5539a6095p+2", "ACP": "0x1.380ec26ca7017p+2",
    "BCP": "0x1.b58d08101f410p+1", "ABCP": "0x1.8271e65cb580dp+2",
}
UPPER_SLACK = 1e-10


def test_mu_upper_no_worse_than_full_search_random():
    rng = np.random.default_rng(404)
    for i, pinned in enumerate(PINNED_RANDOM_UPPER):
        structure = random_structure(rng, n_blocks=2 + i // 3, max_dim=2)
        m = cgauss(rng, structure.k_total, structure.p_total)
        assert mu_upper(m, structure).value <= float.fromhex(pinned) * (1 + UPPER_SLACK)


def test_mu_upper_no_worse_than_full_search_fluid_solid():
    sys_ = fluid_solid_instance()
    seen = {}
    for scenario in all_scenarios():
        m, structure, _ = scan_reduce(sys_, [0.7], scenario)
        if structure.n_blocks > 1:
            seen[scenario.name] = mu_upper(m[0], structure).value
    assert sorted(seen) == sorted(PINNED_FLUID_SOLID_UPPER)
    for name, value in seen.items():
        assert value <= float.fromhex(PINNED_FLUID_SOLID_UPPER[name]) * (1 + UPPER_SLACK)


# The Newton descent's exact bits (float.hex of the upper bound, then of x)
# on every multi-block scenario at lambda = 0.7.  Each ends at a smooth
# stationary point, so the kink search never runs.
EARLY_EXIT_FLUID_SOLID = {
    "AB": ("0x1.008d1174a6259p+2", ["0x0.0p+0", "0x1.e7331d2571b43p-2"]),
    "AC": ("0x1.03f87e59b85dbp+2", ["0x0.0p+0", "-0x1.c7f8ccf02c096p-2"]),
    "AP": ("0x1.d5c99ec0d8858p+1", ["0x0.0p+0", "0x1.26fb3c9dcf558p-2"]),
    "BC": ("0x1.353d769b16fb0p+1", ["0x0.0p+0", "-0x1.88367603341dbp-1"]),
    "BP": ("0x1.153919f898ebbp+1", ["0x0.0p+0", "0x1.398f78776d009p-6"]),
    "CP": ("0x1.22d35532b30e1p+1", ["0x0.0p+0", "0x1.1f7e2063cbdc3p-1"]),
    "ABC": ("0x1.4c86b2a1698ebp+2", ["0x0.0p+0", "0x1.d49c60e28eb79p-2", "-0x1.bd5080241ce21p-2"]),
    "ABP": ("0x1.343b5539a609cp+2", ["0x0.0p+0", "0x1.cdfac83976e2dp-2", "0x1.302f780e8e936p-2"]),
    "ACP": ("0x1.380ec26ca701dp+2", ["0x0.0p+0", "-0x1.aeb2d7c95122ap-2", "0x1.2790fce1c08e3p-2"]),
    "BCP": ("0x1.b58d08101f41ep+1", ["0x0.0p+0", "-0x1.50fb0cca53afdp-1", "-0x1.81edf86370adep-5"]),
    "ABCP": (
        "0x1.8271e65cb5813p+2",
        ["0x0.0p+0", "0x1.be1f207a922e7p-2", "-0x1.a4b247aae1429p-2", "0x1.291b5b91a7f1cp-2"],
    ),
}

# The same upper bounds as reached by a quasi-Newton (BFGS) first descent.
BFGS_EARLY_EXIT_UPPER = {
    "AB": "0x1.008d1174a6259p+2", "AC": "0x1.03f87e59b85dcp+2", "AP": "0x1.d5c99ec0d8859p+1",
    "BC": "0x1.353d769b16fb2p+1", "BP": "0x1.153919f898ebbp+1", "CP": "0x1.22d35532b30ddp+1",
    "ABC": "0x1.4c86b2a1698e8p+2", "ABP": "0x1.343b5539a6099p+2", "ACP": "0x1.380ec26ca701cp+2",
    "BCP": "0x1.b58d08101f417p+1", "ABCP": "0x1.8271e65cb5810p+2",
}


def test_mu_bracket_early_exit_bits_fluid_solid():
    seen = set()
    for scenario in all_scenarios():
        m, structure, _ = scan_reduce(fluid_solid_instance(), [0.7], scenario)
        if structure.n_blocks > 1:
            upper = mu_bracket(m[0], structure).upper_bound
            assert upper.grad_norm <= STATIONARY_TOL
            bits = (upper.value.hex(), [float(v).hex() for v in upper.x])
            assert bits == EARLY_EXIT_FLUID_SOLID[scenario.name]
            seen.add(scenario.name)
    assert seen == set(EARLY_EXIT_FLUID_SOLID)


# Six real scalar blocks whose optimum has a repeated sigma_max.
KINK_6X6 = (np.random.default_rng(6).standard_normal((6, 6)), BlockStructure(((1, 1),) * 6))


def test_mu_bracket_kink_no_worse_than_full_search():
    # Pinned: the bracket of eight BFGS starts and two simplex polishes.
    res = mu_bracket(*KINK_6X6)
    assert res.upper_bound.multiplicity == 2
    assert res.exactness == "bracket_only"
    assert res.upper <= float.fromhex("0x1.a935877479862p+1") * (1 + UPPER_SLACK)
    assert res.lower >= float.fromhex("0x1.a935877479228p+1") * (1 - LOWER_SLACK)


def _counting_minimize(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs.get("method"))
        return minimize(*args, **kwargs)

    monkeypatch.setattr("rosenmu.mu.minimize", counting)
    return calls


def test_mu_upper_one_descent_at_smooth_optimum(monkeypatch):
    # Newton's descent ends the search at a smooth optimum: no quasi-Newton run
    calls = _counting_minimize(monkeypatch)
    m = cgauss(np.random.default_rng(404), 2, 2)
    res = mu_bracket(m, TWO_SCALARS)
    assert calls == []
    assert res.upper_bound.multiplicity == 1
    assert res.upper_bound.grad_norm <= STATIONARY_TOL


def test_mu_upper_newton_evaluations_fluid_solid(monkeypatch):
    # Every multi-block scenario at lambda = 0.7 ends in Newton's descent, in
    # few evaluations, no higher than the quasi-Newton descent's bound
    calls = _counting_minimize(monkeypatch)
    evaluations = []
    for scenario in all_scenarios():
        m, structure, _ = scan_reduce(fluid_solid_instance(), [0.7], scenario)
        if structure.n_blocks > 1:
            upper = mu_upper(m[0], structure)
            evaluations.append(upper.evaluations)
            bfgs = float.fromhex(BFGS_EARLY_EXIT_UPPER[scenario.name])
            assert upper.value <= bfgs * (1 + 1e-14)
    assert len(evaluations) == len(BFGS_EARLY_EXIT_UPPER)
    assert calls == []
    assert sum(evaluations) / len(evaluations) <= 8


def test_mu_upper_continuation_at_kink(monkeypatch):
    # sigma_max(ANTIDIAG scaled) = max(2 e^-t, 3 e^t): both branches meet at
    # the optimum.  Newton gives up next to the kink, one BFGS burst brings x
    # to it, and a KKT step closes on it, in fewer SVDs than the 59 that
    # scipy's BFGS line search took there
    calls = _counting_minimize(monkeypatch)
    res = mu_upper(ANTIDIAG, TWO_SCALARS)
    assert calls == ["BFGS"]
    assert res.multiplicity == 2
    assert res.grad_norm is None
    assert res.value == pytest.approx(np.sqrt(6), rel=1e-12)
    assert res.evaluations < 59


def test_kkt_steps_reach_sqrt6_at_antidiag_kink():
    # Within PAIR_TOL of the kink t* = ln(2/3) / 2 on either side, KKT steps
    # of multiplicity 2 alone converge to sigma_max = sqrt 6 (of M / 3)
    t_star = np.log(2.0 / 3.0) / 2.0
    for offset in (-4e-3, 4e-3):
        x = np.array([0.0, t_star + offset])
        for _ in range(4):
            step = _kkt_step(_evaluate(ANTIDIAG / 3, TWO_SCALARS, x), TWO_SCALARS, np.array([1]))
            if step is None:  # no t qualifies once the top pair is equal to roundoff
                break
            x[1:] += step[0]
        assert 3 * _evaluate(ANTIDIAG / 3, TWO_SCALARS, x)[1][0] == pytest.approx(np.sqrt(6), rel=1e-12)
        assert x[1] == pytest.approx(t_star, abs=1e-12)


# A complex M under six scalar blocks whose scaling optimum is a kink of
# multiplicity 2 above mu, and the upper bound (float.hex) that the smoothing
# continuation reached there in 676 evaluations.
COMPLEX_KINK = (cgauss(np.random.default_rng(1), 6, 6), BlockStructure(((1, 1),) * 6))
COMPLEX_KINK_CONTINUATION_UPPER = "0x1.018c4fc24a60ap+2"


def test_kkt_step_closes_complex_scalar_kink():
    # The forms are complex, so all t^2 = 4 rows of the 2 x 2 Hermitian
    # constraint are live.  No floor meets sigma_max (mu lies below), and the
    # KKT steps close on the kink: at the returned point the step predicts a
    # decrease below CLOSE_TOL, and the bound is no higher than the
    # continuation's
    m, structure = COMPLEX_KINK
    res = mu_bracket(m, structure)
    upper = res.upper_bound
    assert upper.multiplicity == 2
    assert res.upper - res.lower > 1e-4 * res.upper
    assert res.upper <= float.fromhex(COMPLEX_KINK_CONTINUATION_UPPER) * (1 + CLOSE_TOL)
    forms, _ = _cluster_model(upper.svd, 2, structure)
    assert np.abs(forms[:, 0, 1].imag).max() > 1e-2 * np.abs(forms).max()
    d, omega = _kkt_step(upper.svd, structure, np.arange(1, 6))
    value = upper.svd[1][0]
    assert 0 <= value - omega <= CLOSE_TOL * value
    assert upper.evaluations <= 100


def test_kkt_upper_invariant_under_diagonal_rotation():
    # Phi M Phi* for a diagonal unitary Phi has the same scaled singular
    # values as a real M, and forms that are real up to the phases of the
    # singular vectors: one Hermitian direction of the KKT system drops out
    rng = np.random.default_rng(21)
    for m, structure in _mu_scalar_problems():
        phi = np.exp(2j * np.pi * rng.uniform(size=m.shape[0]))
        rotated = phi[:, None] * m * phi.conj()[None, :]
        upper = mu_upper(m, structure).value
        assert mu_upper(rotated, structure).value == pytest.approx(upper, rel=1e-13)


# The upper bound (float.hex) that the smoothing continuation reached in
# 755 SVDs on the near-orthogonal M of the wide-cluster test below.
WIDE_CLUSTER_CONTINUATION_UPPER = "0x1.ffed1f3b7329bp-1"


def test_kkt_model_stays_small_on_a_wide_cluster(monkeypatch):
    # All 30 singular values of a (near-)orthogonal M lie within PAIR_TOL of
    # sigma_1.  Over 29 free exponents the KKT model takes at most t = 7
    # (7 * 8 / 2 <= 30), so it never builds the 30^4-entry basis, and the
    # search stays cheap and no higher than the continuation's
    sizes = []

    def recording(t):
        sizes.append(t)
        return _hermitian_basis(t)

    monkeypatch.setattr("rosenmu.mu._hermitian_basis", recording)
    rng = np.random.default_rng(30)
    q, _ = np.linalg.qr(rng.standard_normal((30, 30)))
    structure = BlockStructure(((1, 1),) * 30)
    res = mu_bracket(q, structure)  # x = 0 is optimal, at multiplicity 30
    assert res.upper_bound.multiplicity == 30
    assert res.upper == pytest.approx(1.0, rel=1e-14)
    assert res.upper - res.lower <= EXACT_GAP_TOL * res.upper
    assert res.upper_bound.evaluations <= 50
    near = mu_upper(q * (1 - 1e-3 * rng.random(30)), structure)
    assert near.value <= float.fromhex(WIDE_CLUSTER_CONTINUATION_UPPER) * (1 + CLOSE_TOL)
    assert near.evaluations <= 200
    assert 3 <= max(sizes) <= 7


def _mu_scalar_problems():
    """The twelve real matrices of the mu-scalar benchmark workload, all at kinks."""
    base = np.random.default_rng(0)
    for i in range(12):
        nb = 6 + i % 3
        yield base.standard_normal((nb, nb)), BlockStructure(((1, 1),) * nb)


def test_mu_scalar_brackets_close():
    for m, structure in _mu_scalar_problems():
        res = mu_bracket(m, structure)
        assert res.upper - res.lower <= EXACT_GAP_TOL * res.upper


def test_mu_scalar_bfgs_iterations():
    # Newton steps, BFGS iterations and KKT steps: 243 on these matrices,
    # where the seven stages of the smoothing continuation took 3,097
    total = sum(mu_upper(m, structure).iterations for m, structure in _mu_scalar_problems())
    assert total <= 300


def test_mu_scalar_kinks_take_few_svds(monkeypatch):
    # One or two BFGS bursts and a few KKT steps reach each kink (463 SVDs
    # in all), where the smoothing continuation took 5,189; each bracket closes on the
    # first candidate, with no ascent
    calls = _recording_svd(monkeypatch)
    for m, structure in _mu_scalar_problems():
        res = mu_bracket(m, structure)
        assert res.upper - res.lower <= CLOSE_TOL * res.upper
        assert res.lower_bound.refine_rounds == 0
    assert len(calls) <= 1500


def test_mu_scalar_continuation_stops_on_the_floor(monkeypatch):
    # The kink search stops once the floor meets sigma_max.  mu_lower then
    # starts from the same candidates at the same x: it reads them from the
    # evaluation that the last floor read, so the reported lower bound is
    # the floor that stopped the search.
    floors = []

    def recording(a_n, structure, svd, goal):
        floor = _floor(a_n, structure, svd, goal)
        floors.append((floor, goal, svd))
        return floor

    monkeypatch.setattr("rosenmu.mu._floor", recording)
    for m, structure in _mu_scalar_problems():
        floors.clear()
        res = mu_bracket(m, structure)
        floor, goal, svd = floors[-1]
        assert svd is res.upper_bound.svd
        assert floor >= goal
        assert res.upper - res.lower <= CLOSE_TOL * res.upper
        # mu_bracket lowers a lower bound that roundoff puts above the upper one
        assert res.lower_bound.value >= res.upper_bound.scale * floor
        assert res.lower_bound.refine_rounds == 0


# mu_upper values (float.hex) of the full search on strictly upper
# triangular 3x3, 5x5 and 7x7 matrices (mu = 0): the infimum lies past the
# exponent bound X_BOUND, where the search must stop at the clip.
PINNED_NILPOTENT_UPPER = ["0x1.a48e4c84b972ep-30", "0x1.08143399d4e39p-16", "0x1.1e9fb87d59cffp-10"]


def test_mu_upper_nilpotent_no_worse_than_full_search():
    # in fewer SVDs than the 615 (30 + 134 + 451) that bursts with scipy's
    # BFGS line search took
    rng = np.random.default_rng(3)
    evaluations = 0
    for n, pinned in zip((3, 5, 7), PINNED_NILPOTENT_UPPER):
        m = np.triu(rng.standard_normal((n, n)), 1)
        upper = mu_upper(m, BlockStructure(((1, 1),) * n))
        assert upper.value <= float.fromhex(pinned) * (1 + UPPER_SLACK)
        evaluations += upper.evaluations
    assert evaluations < 615


def test_mu_upper_nilpotent_runs_until_no_progress(monkeypatch):
    # mu = 0, so no floor meets sigma_max: rounds of a BFGS burst and KKT
    # steps run until one does not lower sigma_max, at most BURSTS of them
    rng = np.random.default_rng(3)
    for n in (3, 5, 7):
        calls = _counting_minimize(monkeypatch)
        m = np.triu(rng.standard_normal((n, n)), 1)
        mu_upper(m, BlockStructure(((1, 1),) * n))
        assert set(calls) == {"BFGS"}
        assert 1 < len(calls) <= BURSTS


def test_line_search_gives_up_after_line_trials():
    # f(x) = -x: every trial meets the Armijo condition and none the
    # curvature condition, so the step doubles LINE_TRIALS times
    trials = []

    def fg(x):
        trials.append(float(x[0]))
        return -float(x[0]), np.array([-1.0])

    assert _line_search(fg, np.zeros(1), 0.0, -1.0, np.ones(1), 1.0) is None
    assert trials == [2.0**i for i in range(LINE_TRIALS)]


def test_damped_newton_stops_at_its_step_cap():
    # every full step is accepted and the decrement never falls: the descent
    # ends after NEWTON_STEPS steps, not converged
    def evaluate(xf):
        return None, np.array([-float(xf[0])]), None

    xf, svd, steps, converged = _damped_newton(
        np.zeros(1), evaluate(np.zeros(1)), lambda xf, svd: (np.ones(1), 1.0), evaluate
    )
    assert (steps, converged) == (NEWTON_STEPS, False)
    assert xf[0] == NEWTON_STEPS
    assert svd[1][0] == -NEWTON_STEPS


def test_simple_sigma_at_the_clip_is_not_exact():
    # M is triangular, so mu = 1, but sigma_max(D1 M D2^-1) only tends to 1
    # as the exponents grow: the search ends at the clip X_BOUND with a small
    # gradient there, which is no evidence of a minimum.  The bracket stays
    # 1e-8 open, too wide for exact_n_le_3.
    m = np.array([[1.0, 10.0, 3.0], [0.0, 1.0, 5.0], [0.0, 0.0, 1.0]])
    res = mu_bracket(m, BlockStructure(((1, 1),) * 3))
    assert res.upper_bound.grad_norm <= STATIONARY_TOL
    assert np.abs(res.upper_bound.x).max() == X_BOUND
    assert res.exactness == "bracket_only"
    assert res.lower == pytest.approx(1.0, rel=1e-15)
    assert res.upper == pytest.approx(1.0000000103057678, rel=1e-12)


@pytest.mark.parametrize("n", [3, 4])
def test_vanishing_sigma_is_not_stationary(n):
    # M = E_{0,n-1} has mu = 0, and scaling drives sigma_max, and with it the
    # gradient of sigma_max, toward zero: not a smooth stationary optimum.
    m = np.zeros((n, n))
    m[0, n - 1] = 1.0
    res = mu_bracket(m, BlockStructure(((1, 1),) * n))
    assert res.lower == 0.0
    assert res.exactness == "bracket_only"
    assert res.possibly_zero


def test_mu_lower_builds_one_kernel_candidate_when_it_meets_target(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return _kernel_direction(*args, **kwargs)

    monkeypatch.setattr("rosenmu.mu._kernel_direction", counting)
    res = mu_bracket(GOLDEN_5X5, GOLDEN_STRUCTURE)
    assert res.lower >= res.upper * (1 - 1e-13)
    assert len(calls) == 1


def _recording_svd(monkeypatch):
    """Record each np.linalg.svd call as (argument, whether it computes vectors)."""
    svd, calls = np.linalg.svd, []

    def recording(a, *args, **kwargs):
        calls.append((a, kwargs.get("compute_uv", True)))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    return calls


def test_backward_error_takes_sigma_max_of_m_once(monkeypatch):
    # the SVD of M that starts mu_upper gives sigma_max(M); mu_lower,
    # certificate_to_delta and the zero test of the backward error read it
    # from the bracket
    sys_, scenario = fluid_solid_instance(), Scenario.from_string("ABCP")
    m = scan_reduce(sys_, [0.7], scenario)[0][0]
    svd = np.linalg.svd
    calls = _recording_svd(monkeypatch)
    res = backward_error(sys_, 0.7, scenario)
    assert res.mu is not None and res.certificate is not None
    assert [uv for a, uv in calls if np.array_equal(a, m)] == [True]
    assert res.mu.upper_bound.scale == svd(m, full_matrices=False)[1][0]


def test_mu_upper_takes_one_svd_per_evaluation(monkeypatch):
    # Every SVD that mu_upper takes is one of its evaluations, the first of
    # them that of M, and none is values-only; the floors read their
    # candidates from the evaluations it made
    m, structure, _ = scan_reduce(fluid_solid_instance(), [0.7], Scenario.from_string("ABCP"))
    problems = [(m[0], structure), KINK_6X6, (ANTIDIAG, TWO_SCALARS), (GOLDEN_5X5, GOLDEN_STRUCTURE)]
    problems.append((cgauss(np.random.default_rng(5), 3, 4), BlockStructure(((4, 3),))))
    for a, structure in problems:
        calls = _recording_svd(monkeypatch)
        upper = mu_upper(a, structure)
        assert len(calls) == upper.evaluations
        assert all(uv for _, uv in calls)
        assert np.array_equal(calls[0][0], a)


def test_mu_bracket_takes_one_svd_per_evaluation(monkeypatch):
    # mu_lower reads its candidates from mu_upper's last evaluation: where
    # no candidate climbs, every SVD with vectors in a bracket is one of
    # mu_upper's evaluations, and the one values-only SVD is the certificate's
    # residual sigma_min(I - Delta M)
    m, structure, _ = scan_reduce(fluid_solid_instance(), [0.7], Scenario.from_string("ABCP"))
    for problem, newton_exit in (((m[0], structure), True), (KINK_6X6, False)):
        calls = _recording_svd(monkeypatch)
        res = mu_bracket(*problem)
        if newton_exit:
            assert res.upper_bound.grad_norm <= STATIONARY_TOL
        else:
            assert res.upper_bound.multiplicity == 2
        assert res.lower_bound.refine_rounds == 0
        assert sum(uv for _, uv in calls) == res.upper_bound.evaluations
        assert sum(not uv for _, uv in calls) == 1


def test_one_block_upper_is_sigma_max_bit_for_bit():
    # one block has nothing to scale: the upper bound is the largest singular
    # value of the SVD that starts the search, with no division on the way
    rng = np.random.default_rng(24)
    for _ in range(200):
        k, p = (int(d) for d in rng.integers(1, 6, 2))
        m = cgauss(rng, k, p) * 10.0 ** rng.uniform(-5, 5)
        upper = mu_upper(m, BlockStructure(((p, k),)))
        assert upper.value == np.linalg.svd(m, full_matrices=False)[1][0]
        assert upper.evaluations == 1


def test_mu_lower_one_eigen_solve_per_candidate(monkeypatch):
    # a candidate's eigenpairs come from one eig, which its ascent starts
    # from; the one eigvals is that of the snapped winner
    counts = Counter()
    for name in ("eig", "eigvals"):
        real = getattr(np.linalg, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    ascents = []

    def recording(*args, **kwargs):
        ascents.append(1)
        return _ascend(*args, **kwargs)

    monkeypatch.setattr("rosenmu.mu._ascend", recording)
    m, structure = KINK_6X6
    low = mu_lower(_upper_at(m, structure, np.zeros(6)))  # every candidate climbs
    assert ascents
    assert counts == {"eig": len(ascents) + low.refine_rounds, "eigvals": 1}


def test_ascent_direction_undefined_at_a_defective_eigenvalue():
    # Delta M = [[1, 1], [0, 1]] is a Jordan block: its computed eigenvectors
    # are parallel (sigma_min(V) ~ 1e-16), so y* x ~ 0 and no gradient exists
    m = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    w, v = np.linalg.eig(m)
    assert _ascent_direction(m, w, v, TWO_SCALARS.places) is None


def test_mu_bracket_deterministic_without_options(rng):
    # the engine takes no seed and no effort knobs, and repeats its bits
    assert list(inspect.signature(mu_bracket).parameters) == ["m", "structure"]
    assert list(inspect.signature(mu_lower).parameters) == ["upper"]
    structure = random_structure(rng, n_blocks=5)
    m = cgauss(rng, structure.k_total, structure.p_total)
    a, b = mu_bracket(m, structure), mu_bracket(m, structure)
    assert (a.lower.hex(), a.upper.hex()) == (b.lower.hex(), b.upper.hex())
    for blk_a, blk_b in zip(a.certificate_delta, b.certificate_delta):
        assert blk_a.tobytes() == blk_b.tobytes()


def test_exactness_n_le_3_needs_a_closed_bracket(monkeypatch):
    # The theorem makes the upper bound exact for at most three blocks; the
    # label also needs a lower bound in the run within EXACT_GAP_TOL of it.
    # Without one, the label is decided as for more blocks.
    smooth = (cgauss(np.random.default_rng(3), 3, 3), BlockStructure(((1, 1),) * 3))
    kink = (ANTIDIAG, TWO_SCALARS)
    for m, structure in (smooth, kink):
        assert mu_bracket(m, structure).exactness == "exact_n_le_3"
    real_lower = mu_lower

    def lowered(shortfall):
        def patched(*args, **kwargs):
            low = real_lower(*args, **kwargs)
            return dataclasses.replace(low, value=low.value * (1 - shortfall))

        return patched

    monkeypatch.setattr("rosenmu.mu.mu_lower", lowered(0.1 * EXACT_GAP_TOL))
    for m, structure in (smooth, kink):
        assert mu_bracket(m, structure).exactness == "exact_n_le_3"
    monkeypatch.setattr("rosenmu.mu.mu_lower", lowered(10 * EXACT_GAP_TOL))
    assert mu_bracket(*smooth).exactness == "exact_simple_sigma"
    assert mu_bracket(*kink).exactness == "bracket_only"


# ---------------------------------------------------------------------------
# The rank-two kernel direction in closed form.
# ---------------------------------------------------------------------------


def _residual(forms, v):
    return float(sum(np.vdot(v, h @ v).real ** 2 for h in forms))


def _hermitian_forms(rng, n_forms, complex_):
    forms = []
    for _ in range(n_forms):
        g = rng.standard_normal((2, 2)) + (1j * rng.standard_normal((2, 2)) if complex_ else 0)
        forms.append((g + g.conj().T) / 2 + 0j)
    return forms


def _sphere_grid(n):
    """n points of the Fibonacci lattice on the unit sphere S^2."""
    k = np.arange(n) + 0.5
    z = 1.0 - 2.0 * k / n
    r = np.sqrt(1.0 - z**2)
    phi = np.pi * (3.0 - np.sqrt(5.0)) * k
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def test_kernel_direction_2_no_worse_than_sphere_grid():
    # the closed form is the global minimum: with v v* = (I + s . sigma) / 2,
    # v* H_i v = (t_i + h_i . s) / 2, and no point s of a dense grid on S^2
    # does better.  Zero-residual sets meet at the roundoff floor.
    grid = _sphere_grid(20_000)
    rng = np.random.default_rng(2024)
    for trial in range(100):
        forms = _hermitian_forms(rng, int(rng.integers(1, 9)), complex_=trial % 2 == 1)
        v, resid = _kernel_direction(forms)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-15)
        assert resid == _residual(forms, v)
        hs = np.array([[2 * h[0, 1].real, -2 * h[0, 1].imag, (h[0, 0] - h[1, 1]).real] for h in forms])
        t = np.array([(h[0, 0] + h[1, 1]).real for h in forms])
        grid_min = float(np.min(np.sum(((grid @ hs.T + t) / 2) ** 2, axis=1)))
        floor = 1e-24 * sum(np.linalg.norm(h) ** 2 for h in forms)
        assert resid <= grid_min * (1 + 1e-12) + floor


def test_kernel_direction_2_hard_case():
    # all forms diag(1, -1): no sigma_y or sigma_x part and zero traces, so
    # H^T H is singular, the right-hand side vanishes and every s on the
    # equator is optimal
    z = np.diag([1.0, -1.0]).astype(complex)
    for forms in ([z], [z, -2 * z, 0.5 * z]):
        v, resid = _kernel_direction(forms)
        assert resid <= 1e-30
        assert abs(v[0]) == pytest.approx(abs(v[1]), rel=1e-15)
    # real forms: zero sigma_y column, and a solvable rest completed along e_y
    forms = [np.array([[1.0, 0.2], [0.2, -0.5]], complex), np.array([[0.1, -0.3], [-0.3, 0.2]], complex)]
    v, resid = _kernel_direction(forms)
    assert resid <= 1e-30
    # the hard case completes s along e_y: s_y = 2 Im(v_1 conj(v_0)) = +-0.65
    assert abs(2 * (v[1] * v[0].conj()).imag) > 0.6


def test_kernel_direction_2_single_and_zero_forms():
    # one indefinite form: its kernel cone is hit exactly
    h = np.array([[0.3, 1 - 2j], [1 + 2j, -0.7]])
    v, resid = _kernel_direction([h])
    assert resid <= 1e-30
    # one definite form: the best v is its bottom eigenvector
    h = np.array([[3.0, 1j], [-1j, 2.0]])
    v, resid = _kernel_direction([h])
    assert resid == pytest.approx(np.linalg.eigvalsh(h)[0] ** 2, rel=1e-12)
    # all forms zero: any unit v, residual 0
    v, resid = _kernel_direction([np.zeros((2, 2), complex)] * 3)
    assert resid == 0.0
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-15)


def _matrix_with_singular_values(rng, s):
    n = len(s)
    u, _ = np.linalg.qr(cgauss(rng, n, n))
    w, _ = np.linalg.qr(cgauss(rng, n, n))
    return u @ np.diag(s) @ w.conj().T


@pytest.mark.parametrize(
    "sigmas, kernel_ranks",
    [
        # a simple sigma_max within PAIR_TOL of sigma_2: the top pair, then the
        # top two pairs (the cluster of four within PAIR_TOL is compressed)
        ([1, 1 - 1e-7, 1 - 1e-3, 1 - 1e-3, 0.5, 0.4], [1, 2]),
        # a repeated sigma_max: the top two pairs of the cluster of three only
        ([1, 1, 1 - 1e-5, 0.5, 0.4, 0.3], [2]),
        # the two sides of PAIR_TOL = 1e-2 for the gap sigma_1 - sigma_2
        ([1, 1 - 5e-3, 0.5, 0.4, 0.3, 0.2], [1, 2]),
        ([1, 1 - 2e-2, 0.5, 0.4, 0.3, 0.2], [1]),
    ],
)
def test_mu_lower_one_kernel_call_per_distinct_rank(monkeypatch, kernel_only, sigmas, kernel_ranks):
    ranks = []

    def recording(forms):
        ranks.append(forms[0].shape[0])
        return _kernel_direction(forms)

    monkeypatch.setattr("rosenmu.mu._kernel_direction", recording)
    m = _matrix_with_singular_values(np.random.default_rng(8), sigmas)
    structure = BlockStructure(((1, 1),) * 6)
    mu_lower(_upper_at(m, structure, np.zeros(6)))
    assert ranks == kernel_ranks


def test_rank_three_top_cluster_takes_its_top_two_pairs(monkeypatch):
    # At M = I under n scalar blocks the top singular value has multiplicity
    # n at the optimum x = 0.  The top two pairs of that cluster give a
    # partial isometry with rho(P M) = 1 = mu, so the floor closes the
    # bracket after the first BFGS burst, before any KKT step of size n, and
    # mu_lower takes that candidate as built.
    shapes = []

    def recording(forms):
        shapes.append(forms[0].shape)
        return _kernel_direction(forms)

    monkeypatch.setattr("rosenmu.mu._kernel_direction", recording)
    kkt_steps = []
    with monkeypatch.context() as mp:
        mp.setattr("rosenmu.mu._kkt_step", lambda *args: kkt_steps.append(args))
        for n in (4, 6):
            calls = _counting_minimize(mp)
            res = mu_bracket(np.eye(n), BlockStructure(((1, 1),) * n))
            assert calls == ["BFGS"]
            assert kkt_steps == []
            assert res.upper - res.lower <= CLOSE_TOL * res.upper
    # a multiplicity-3 optimum under three blocks keeps its exact label
    rng = np.random.default_rng(77)
    for _ in range(3):
        m = _matrix_with_singular_values(rng, [1, 1, 1, 0.5, 0.3, 0.1])
    res = mu_bracket(m, BlockStructure(((1, 1), (2, 2), (3, 3))))
    assert res.upper_bound.multiplicity == 3
    assert res.exactness == "exact_n_le_3"
    assert set(shapes) <= {(1, 1), (2, 2)}


# mu_lower values (float.hex) from mu_bracket while the rank-two kernel
# direction came from a 16-start BFGS search and every cluster tolerance
# got its own candidate: the twelve real matrices of the mu-scalar
# benchmark workload, then complex matrices under 4-6 mixed blocks.
PINNED_SCALAR_LOWER = [
    "0x1.367ac59b6dd1cp+1", "0x1.fbe767280dc17p+1", "0x1.fcb71571a8076p+1",
    "0x1.923fe17573fe0p+1", "0x1.041d953736aacp+2", "0x1.1de2da88b90e1p+2",
    "0x1.94b51ba430301p+1", "0x1.c7d83cd6aca5fp+1", "0x1.22779a1eda283p+2",
    "0x1.d6f3df7bae701p+1", "0x1.d1792015cef7ap+1", "0x1.a4e006a92a745p+1",
]
PINNED_COMPLEX_LOWER = [
    "0x1.408fc6644047cp+2", "0x1.950350c3f25d2p+2", "0x1.4dbbf889a3ffap+2",
    "0x1.45bf2ba2150d9p+2", "0x1.28a8484a9ae4cp+2", "0x1.aa472c42a2d0ep+2",
]
LOWER_SLACK = 1e-10


def test_mu_lower_no_worse_than_parent():
    base = np.random.default_rng(0)
    for i, pinned in enumerate(PINNED_SCALAR_LOWER):
        nb = 6 + i % 3
        m = base.standard_normal((nb, nb))
        res = mu_bracket(m, BlockStructure(((1, 1),) * nb))
        assert res.lower >= float.fromhex(pinned) * (1 - LOWER_SLACK)
    rng = np.random.default_rng(505)
    for i, pinned in enumerate(PINNED_COMPLEX_LOWER):
        structure = random_structure(rng, n_blocks=4 + i % 3, max_dim=1 + i % 2)
        m = cgauss(rng, structure.k_total, structure.p_total)
        assert mu_bracket(m, structure).lower >= float.fromhex(pinned) * (1 - LOWER_SLACK)


# brute_force_mu(budget=5000, seed=0) values (float.hex) of problems 59 and 68
# of a seeded sample of 5-6 block problems whose brackets stay open at a
# multiplicity-2 kink.  The old alternating refinement stopped 0.9% and 0.97%
# below them; the shared projected ascent reaches them.
PINNED_ORACLE_LOWER = {59: "0x1.963c0cdaa94d6p+2", 68: "0x1.76ed2f37e63cep+2"}


def test_mu_lower_reaches_oracle_on_open_brackets():
    rng = np.random.default_rng(777)
    for i in range(max(PINNED_ORACLE_LOWER) + 1):
        structure = random_structure(rng, n_blocks=2 + i % 5, max_dim=2)
        m = cgauss(rng, structure.k_total, structure.p_total)
        if i in PINNED_ORACLE_LOWER:
            res = mu_bracket(m, structure)
            assert res.exactness == "bracket_only"
            assert res.lower >= float.fromhex(PINNED_ORACLE_LOWER[i]) * (1 - LOWER_SLACK)
            assert res.lower_bound.certificate.max_defect() <= 1e-10
