"""Report bookkeeping of the verification sweeps."""

import itertools
import json
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from majoranaq import PhasePoint, fock, kernel, suites
from majoranaq.tensors import _pair_rows_cols, random_boundary_point, random_interior_point


@pytest.mark.parametrize(
    "runner",
    [
        lambda: suites.run_traceless_and_channels(3, seed=4, cases=6),
        lambda: suites.run_appendix_c(Ms=(2,), seed=4, cases=2),
    ],
    ids=["traceless_and_channels", "appendix_c"],
)
def test_per_check_seconds_are_measured(runner):
    start = time.perf_counter()
    checks = runner()
    wall = time.perf_counter() - start
    assert all(c.seconds > 0 for c in checks)
    assert sum(c.seconds for c in checks) <= wall
    # each check times its own work, not an even share of the sweep
    assert len({c.seconds for c in checks}) == len(checks)


def test_eigensum_gates_the_traceless_check(monkeypatch):
    traceless, _ = suites.run_traceless_and_channels(4, seed=4, cases=4)
    eigsum = traceless.info["eigsum"]
    assert traceless.passed and traceless.info["eigsum_pass"]
    assert 0.0 < eigsum <= suites.TOLERANCES["traceless-eigsum"]
    monkeypatch.setitem(suites.TOLERANCES, "traceless-eigsum", eigsum / 2)
    traceless, channels = suites.run_traceless_and_channels(4, seed=4, cases=4)
    # the diagonal still passes; only the eigenvalue sum is out of tolerance
    assert traceless.max_residual <= traceless.tolerance
    assert traceless.info["eigsum_pass"] is False
    assert traceless.passed is False
    assert channels.passed


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda d: replace(d, indices=d.indices[1:], weights=d.weights[1:],
                          b_minus=d.b_minus[1:], b_plus=d.b_plus[1:]),
        # only on positive-weight rows: sum_t w_t |b_plus_t|^2 vanishes on its
        # own, so scaling every b_plus alike leaves the balance untouched
        lambda d: replace(d, b_plus=d.b_plus * np.where(d.weights > 0, 1 + 1e-6, 1.0)[:, None]),
    ],
    ids=["ordering-dropped", "forward-b_plus-scaled"],
)
def test_corrupt_decomposition_fails_the_balance(monkeypatch, corrupt):
    channels_of = suites.kernel.diffusion_channels
    monkeypatch.setattr(suites.kernel, "diffusion_channels",
                        lambda *args: corrupt(channels_of(*args)))
    traceless, channels = suites.run_traceless_and_channels(4, seed=4, cases=4)
    assert traceless.passed
    assert channels.info["balance"] > suites.TOLERANCES["channel-balance"]
    assert channels.passed is False


def test_balance_tolerance_gates_the_channel_check(monkeypatch):
    _, channels = suites.run_traceless_and_channels(4, seed=4, cases=4)
    balance = channels.info["balance"]
    assert channels.passed and 0.0 < balance
    monkeypatch.setitem(suites.TOLERANCES, "channel-balance", balance / 2)
    _, channels = suites.run_traceless_and_channels(4, seed=4, cases=4)
    # reconstruction and boundary still pass; only the balance is out of tolerance
    assert channels.max_residual <= channels.tolerance
    assert _boundary(channels) <= suites.TOLERANCES["channel-boundary"]
    assert channels.passed is False


def _boundary(channels):
    """The largest of the gated boundary values of a channel check."""
    keys = ("boundary_tangency", "boundary_symmetry", "boundary_vanishing")
    return max(channels.info[k] for k in keys if channels.info[k] is not None)


def _flip_dd_of_re(tables):
    """Sign flip of the delta-delta term of RE."""
    def mutated(M, xm):
        RE, IM = tables(M, xm)
        al, be = _pair_rows_cols(M)
        eye = np.eye(2 * M)
        return RE - 2 * eye[:, al][:, None, :] * eye[be, :].T[None, :, :], IM
    return mutated


def _flip_dbj_of_im(tables):
    """Sign flip of the x_ia d_bj term of IM."""
    def mutated(M, xm):
        RE, IM = tables(M, xm)
        al, be = _pair_rows_cols(M)
        return RE, IM + 2 * xm[:, al][:, None, :] * np.eye(2 * M)[be, :].T[None, :, :]
    return mutated


@pytest.mark.parametrize("mutate", [None, _flip_dd_of_re, _flip_dbj_of_im],
                         ids=["unmutated", "re-delta-delta", "im-x-delta"])
@pytest.mark.parametrize("M", [3, 4])
def test_table_mutations_fail_the_boundary_gate(monkeypatch, M, mutate):
    """A wrong Re/Im table fails the channel check through the reconstruction.

    D is gathered from x without the tables, so a table mutation reaches
    only the channels: D's boundary values do not move, and the channel sum
    no longer rebuilds D.
    """
    if mutate is not None:
        monkeypatch.setattr(suites.kernel, "_re_im_tables", mutate(suites.kernel._re_im_tables))
    _, channels = suites.run_traceless_and_channels(M, seed=20260810, cases=10)
    assert _boundary(channels) <= suites.TOLERANCES["channel-boundary"]
    assert channels.info["balance"] <= suites.TOLERANCES["channel-balance"]
    if mutate is None:
        assert channels.passed
        assert channels.max_residual <= suites.TOLERANCES["channel-reconstruction"]
    else:
        assert channels.max_residual > 1.0
        assert channels.passed is False


def _drop_identity_of_rea(rows):
    """REa = -C2(x), without its identity."""
    def mutated(M, xm):
        REa, IMa = rows(M, xm)
        return REa - np.eye(len(REa)), IMa
    return mutated


def _flip_first_shared_of_ima(rows):
    """Sign flip of the IMa entries whose pairs share their first index."""
    def mutated(M, xm):
        REa, IMa = rows(M, xm)
        first, _ = _pair_rows_cols(M)
        return REa, np.where(first[:, None] == first[None, :], -IMa, IMa)
    return mutated


@pytest.mark.parametrize("mutate", [_drop_identity_of_rea, _flip_first_shared_of_ima],
                         ids=["re-identity-dropped", "im-sign-flipped"])
@pytest.mark.parametrize("M", [3, 4])
def test_compound_mutations_fail_the_channel_check(monkeypatch, M, mutate):
    monkeypatch.setattr(suites.kernel, "_compound_rows", mutate(suites.kernel._compound_rows))
    _, channels = suites.run_traceless_and_channels(M, seed=20260810, cases=10)
    # the channels still come from the tables, so the sum no longer rebuilds D
    assert channels.max_residual > 1.0
    assert _boundary(channels) > 1e-3
    assert channels.passed is False


def test_sweep_calls_the_public_kernel_once_per_instance(monkeypatch):
    calls = {"diffusion": 0, "diffusion_channels": 0}

    def counted(name):
        fn = getattr(suites.kernel, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(suites.kernel, name, counted(name))
    suites.run_traceless_and_channels(3, seed=4, cases=6)
    assert calls == {"diffusion": 6, "diffusion_channels": 6}


@pytest.mark.parametrize("M, seed", [(3, 20260810), (4, 20260810), (4, 918273)])
def test_sweep_equals_the_public_route(M, seed):
    cases = 20
    traceless, channels = suites.run_traceless_and_channels(M, seed, cases=cases)
    diag = rec = eigsum = 0.0
    for i in range(cases):
        g = suites._random_quartic(M, np.random.default_rng(seed + i))
        if i % 2 == 0:
            x = random_interior_point(M, seed + 10000 + i, scale=0.5)
        else:
            x = random_boundary_point(M, seed + 10000 + i)
        D = kernel.diffusion(x, g)
        recon = kernel.diffusion_channels(x, g).reconstruct()
        diag = max(diag, float(np.max(np.abs(np.diag(D)))))
        eigsum = max(eigsum, abs(float(np.sum(np.linalg.eigvalsh(D)))))
        rec = max(rec, float(np.max(np.abs(recon - D))) / max(float(np.max(np.abs(D))), 1.0))
    assert traceless.max_residual == diag
    assert traceless.info["eigsum"] == eigsum
    assert channels.max_residual == rec


@settings(derandomize=True, max_examples=40, deadline=None)
@given(M=st.integers(2, 4), seed=st.integers(0, 2**32 - 1),
       quadruples=st.integers(1, 70))
def test_diffusion_is_tangent_and_symmetric_on_the_boundary(M, seed, quadruples):
    rng = np.random.default_rng(seed)
    g = suites._random_quartic(M, rng, max_quadruples=quadruples,
                               scale=float(rng.uniform(0.01, 2.0)))
    x = random_boundary_point(M, seed)
    D = kernel.diffusion(x, g)
    xm = x.matrix()
    denom = max(float(np.max(np.abs(D))), 1.0)
    for column in D.T:
        dX = PhasePoint(M, column).matrix()
        assert np.max(np.abs(xm @ dX + dX @ xm)) / denom <= 1e-12
    eigs = np.linalg.eigvalsh(D)
    assert np.max(np.abs(eigs + eigs[::-1])) / denom <= 1e-12


def _recorded_point(check):
    # through the JSON report, as a user re-running a FAIL would read it
    info = json.loads(json.dumps(suites.build_report("x", [check], 0).to_dict()))["checks"][0]["info"]
    worst = info["worst"]
    return worst, PhasePoint(worst["M"], np.array(worst["x"]))


def test_worst_fpe_instance_reproduces_its_residual():
    _, spec, _ = suites.acceptance_fpe_cases(11)[4]
    check = suites.run_fpe_sweep(spec, seed=11, n_instances=5)
    worst, x = _recorded_point(check)
    assert (worst["seed"], worst["M"]) == (11, 3) and "resampled_singular_points" not in check.info
    rho, sampled = suites.fpe_instance(worst["M"], worst["seed"], worst["index"])
    np.testing.assert_array_equal(sampled.packed, x.packed)
    assert fock.verify_fpe(rho, spec, x).residual == check.max_residual > 0.0


@pytest.mark.parametrize("runner, verify", [
    (lambda: suites.run_quadratic_identities(Ms=(2, 3), seed=5, n_points=6),
     lambda x, majo: max(fock.verify_quadratic_identities(x, majo).values())),
    (lambda: suites.run_four_gamma(M=3, seed=5, n_points=4),
     lambda x, majo: max(max(pair) for pair in fock.verify_four_gamma(x, majo).values())),
], ids=["quadratic-identities", "four-gamma"])
def test_worst_identity_instance_reproduces_its_residual(runner, verify):
    check = runner()
    worst, x = _recorded_point(check)
    assert worst["seed"] == 5 and 0 <= worst["index"] < check.instances
    assert verify(x, fock.build_majoranas(worst["M"])) == check.max_residual > 0.0


def _polynomial(n, degree, seed):
    """A random polynomial of total degree ``degree`` in ``n`` variables.

    ``poly(v)`` is its value and ``poly(v, *axes)`` its exact derivative.
    """
    rng = np.random.default_rng(seed)
    exps = np.array([e for e in itertools.product(range(degree + 1), repeat=n) if sum(e) <= degree])
    coef = rng.uniform(-1, 1, size=len(exps))

    def poly(v, *axes):
        c, e = coef.copy(), exps.copy()
        for axis in axes:
            c = c * e[:, axis]
            e[:, axis] = np.maximum(e[:, axis] - 1, 0)
        return float(c @ np.prod(v ** e, axis=1))

    return poly


# the degree each stencil is exact for, and the axes that select it
STENCILS = [(4, (1,)), (3, (2, 2)), (3, (0, 2))]


@pytest.mark.parametrize("degree, axes", STENCILS, ids=["first", "second", "mixed"])
@pytest.mark.parametrize("seed", range(3))
def test_stencils_are_exact_at_their_degree(degree, axes, seed):
    poly = _polynomial(3, degree, seed)
    v = np.random.default_rng(seed + 10).uniform(-0.5, 0.5, size=3)
    assert abs(suites._central(poly, v, *axes) - poly(v, *axes)) <= 1e-12


@pytest.mark.parametrize("monomial, axes, error", [
    # the leading truncation terms: -h^4 f^(5) / 30 at h = 0.5, h^2 f'''' / 12
    # and h^2 (f_xxxy + f_xyyy) / 6 at h = 1
    (lambda v: v[1] ** 5, (1,), -0.25),
    (lambda v: v[2] ** 4, (2, 2), 2.0),
    (lambda v: v[0] ** 3 * v[2], (0, 2), 1.0),
], ids=["first", "second", "mixed"])
def test_stencils_are_wrong_one_degree_higher(monomial, axes, error):
    v = np.array([0.3, -0.2, 0.1])
    exact = {(1,): 5 * v[1] ** 4, (2, 2): 12 * v[2] ** 2, (0, 2): 3 * v[0] ** 2}[axes]
    assert suites._central(monomial, v, *axes) - exact == pytest.approx(error, abs=1e-12)
