"""Report bookkeeping of the verification sweeps."""

import itertools
import json
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from majoranaq import HamiltonianSpec, PhasePoint, QuarticCoupling, flow, fock, kernel, suites
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
        lambda d: replace(d, indices=d.indices[1:], weights=d.weights[1:]),
        # only the positive weights: sum_t w_t (|b_minus_t|^2 - |b_plus_t|^2)
        # vanishes on its own, so scaling every weight alike leaves the
        # balance untouched
        lambda d: replace(d, weights=d.weights * np.where(d.weights > 0, 1 + 1e-6, 1.0)),
    ],
    ids=["ordering-dropped", "positive-weights-scaled"],
)
def test_corrupt_decomposition_fails_the_balance(monkeypatch, corrupt):
    # the channel sum and the traces read the decomposition's own indices and
    # weights, so a corrupted channel shows in both
    channels_of = suites.kernel.diffusion_channels
    monkeypatch.setattr(suites.kernel, "diffusion_channels",
                        lambda *args: corrupt(channels_of(*args)))
    traceless, channels = suites.run_traceless_and_channels(4, seed=4, cases=4)
    assert traceless.passed
    assert channels.info["balance"] > suites.TOLERANCES["channel-balance"]
    assert channels.max_residual > suites.TOLERANCES["channel-reconstruction"]
    assert channels.passed is False


def test_balance_tolerance_gates_the_channel_check(monkeypatch):
    _, channels = suites.run_traceless_and_channels(4, seed=4, cases=4)
    assert channels.passed
    # a planted imbalance: the backward trace alone is scaled by 1 + 1e-6,
    # far above the balance tolerance, while D and the channel sum are untouched
    traces_of = kernel.ChannelDecomposition.traces

    def unbalanced(self):
        forward, backward = traces_of(self)
        return forward, backward * (1 + 1e-6)

    monkeypatch.setattr(kernel.ChannelDecomposition, "traces", unbalanced)
    _, channels = suites.run_traceless_and_channels(4, seed=4, cases=4)
    assert channels.info["balance"] > suites.TOLERANCES["channel-balance"]
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
    """Sign flip of the x_ia d_bj term of IM, for one point or a stack."""
    def mutated(M, xm):
        RE, IM = tables(M, xm)
        al, be = _pair_rows_cols(M)
        return RE, IM + 2 * xm[..., :, al][..., :, None, :] * np.eye(2 * M)[be, :].T[None, :, :]
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
    """REa = -C2(x), without its identity, for one point or a stack."""
    def mutated(M, xm):
        REa, IMa = rows(M, xm)
        return REa - np.eye(REa.shape[-1]), IMa
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


def _count_kernel_calls(monkeypatch, g):
    """The public kernel calls of a 6-case M = 3 sweep with coupling ``g``."""
    calls = {"diffusion": 0, "diffusion_channels": 0}

    def counted(name):
        fn = getattr(suites.kernel, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(suites.kernel, name, counted(name))
    suites.run_traceless_and_channels(3, seed=4, cases=6, g=g)
    return calls


def test_sweep_calls_the_public_kernel_once_per_instance(monkeypatch):
    # random couplings: each instance is a stack of one
    assert _count_kernel_calls(monkeypatch, None) == {"diffusion": 6, "diffusion_channels": 6}


def test_sweep_calls_the_public_kernel_once_per_block_of_a_given_coupling(monkeypatch):
    blocks = -(-6 // suites._SWEEP_BLOCK)
    g = QuarticCoupling.from_entries(3, [(1, 2, 3, 4, 0.3)])
    calls = _count_kernel_calls(monkeypatch, g)
    assert calls == {"diffusion": blocks, "diffusion_channels": blocks}


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


def _first_max(rows):
    """The (residual, record) row with the largest residual, the first of equal ones."""
    return max(rows, key=lambda row: row[0], default=(0.0, None))


def _per_point_sweep(M, seed, cases, g):
    """The traceless and channel checks' values, one public kernel call per point."""
    rows = {"diag": [], "rec": [], "bal": [], "tan": [], "zero": []}
    Ds, denoms = [], []
    for i in range(cases):
        gi = g if g is not None else suites._random_quartic(M, np.random.default_rng(seed + i))
        if i % 2:
            x = random_boundary_point(M, seed + 10000 + i)
        else:
            x = random_interior_point(M, seed + 10000 + i, scale=0.5)
        D = kernel.diffusion(x, gi)
        decomp = kernel.diffusion_channels(x, gi)
        size = float(np.max(np.abs(D)))
        denom = max(size, 1.0)
        rows["diag"].append((float(np.max(np.abs(np.diag(D)))), suites._instance(i, seed, x)))
        rows["rec"].append((float(np.max(np.abs(decomp.reconstruct() - D))) / denom,
                            suites._instance(i, seed, x)))
        forward, backward = decomp.traces()
        rows["bal"].append(abs(forward - backward) / max(forward, 1.0))
        if i % 2:
            xm, dX = x.matrix(), suites._unpack(M, D)
            rows["tan"].append(float(np.max(np.abs(xm @ dX + dX @ xm))) / denom)
            rows["zero"].append(size / denom)
        Ds.append(D)
        denoms.append(denom)
    eigs = np.array([np.linalg.eigvalsh(D) for D in Ds])
    edge = eigs[1::2]
    return {
        "diag": _first_max(rows["diag"]), "rec": _first_max(rows["rec"]),
        "eigsum": float(np.max(np.abs(eigs.sum(axis=-1)))),
        "balance": max(rows["bal"]), "boundary_tangency": max(rows["tan"], default=0.0),
        "boundary_symmetry": float(np.max(np.abs(edge + edge[:, ::-1])
                                          / np.array(denoms[1::2])[:, None], initial=0.0)),
        "boundary_vanishing": max(rows["zero"], default=0.0) if M <= 3 else None,
    }


_BLOCK = suites._SWEEP_BLOCK


@pytest.mark.parametrize("cases", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 100])
@pytest.mark.parametrize("given_coupling", [True, False], ids=["given", "random"])
@pytest.mark.parametrize("M", [3, 4])
def test_stacked_sweep_equals_the_per_point_route(M, given_coupling, cases):
    # the sweep stacks the instances that share a coupling, in blocks of
    # _SWEEP_BLOCK; every residual and worst record is the per-point one
    seed = 918273
    g = suites._random_quartic(M, np.random.default_rng(3), max_quadruples=70) if given_coupling else None
    traceless, channels = suites.run_traceless_and_channels(M, seed, cases=cases, g=g)
    ref = _per_point_sweep(M, seed, cases, g)
    assert (traceless.max_residual, traceless.info["worst"]) == ref["diag"]
    assert (channels.max_residual, channels.info["worst"]) == ref["rec"]
    assert traceless.info["eigsum"] == ref["eigsum"]
    for key in ("balance", "boundary_tangency", "boundary_symmetry", "boundary_vanishing"):
        assert channels.info[key] == ref[key], key
    assert traceless.instances == channels.instances == cases
    assert traceless.passed and channels.passed


def test_median_is_numpy_median_bit_for_bit():
    rng = np.random.default_rng(0)
    for n in range(1, 10):
        values = (rng.lognormal(size=n) * 1e-14).tolist()
        assert suites._median(values) == float(np.median(values))


@pytest.mark.parametrize("given", [False, True], ids=["random-model", "given-model"])
def test_worst_tangency_instance_reproduces_its_residual(tmp_path, given):
    from majoranaq.cli import main

    seed = 918273
    config = {"M": 3, "seed": 0}
    if given:
        config.update(t_entries=[[1, 2, 0.3], [2, 5, -0.2]], g_entries=[[1, 2, 3, 4, 0.05]])
    cfg, out = tmp_path / "m3.json", tmp_path / "report.json"
    cfg.write_text(json.dumps(config))
    assert main(["verify", "--config", str(cfg), "--suite", "tangency",
                 "--seed", str(seed), "--out", str(out)]) == 0
    check = {c["name"]: c for c in json.loads(out.read_text())["checks"]}["tangency"]
    worst = check["info"]["worst"]
    assert (worst["seed"], worst["M"]) == (seed, 3) and 0 <= worst["index"] < check["instances"]
    x = PhasePoint(worst["M"], worst["x"])
    if given:
        from majoranaq.config import config_to_spec, load_config

        spec, _ = config_to_spec(load_config(str(cfg)))
        t, g = spec.t, spec.g
    else:
        rng = np.random.default_rng(seed + 500 * worst["M"] + worst["index"])
        t = suites._random_coupling_matrix(worst["M"], rng)
        g = suites._random_quartic(worst["M"], rng)
    residual = float(np.max(np.abs(kernel.tangency_residual(x, t, g))))
    assert residual == check["max_residual"] > 0.0


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


@pytest.mark.parametrize("fixed", [False, True], ids=["random-coupling", "given-coupling"])
def test_worst_kernel_sweep_instance_reproduces_its_residual(fixed):
    M, seed = 4, 918273
    g = suites._random_quartic(M, np.random.default_rng(7), max_quadruples=70) if fixed else None
    traceless, channels = suites.run_traceless_and_channels(M, seed, cases=10, g=g)
    for check in (traceless, channels):
        worst, x = _recorded_point(check)
        assert (worst["seed"], worst["M"]) == (seed, M) and 0 <= worst["index"] < check.instances
        gi = g if fixed else suites._random_quartic(M, np.random.default_rng(seed + worst["index"]))
        D = kernel.diffusion(x, gi)
        if check is traceless:
            residual = float(np.max(np.abs(np.diag(D))))
        else:
            recon = kernel.diffusion_channels(x, gi).reconstruct()
            residual = float(np.max(np.abs(recon - D))) / max(float(np.max(np.abs(D))), 1.0)
        assert residual == check.max_residual > 0.0


@pytest.mark.parametrize("given", [False, True], ids=["random-model", "given-model"])
def test_worst_flow_margin_instance_reproduces_its_residual(given):
    seed, dt, steps = 918273, 1e-2, 60
    spec = None
    if given:
        rng = np.random.default_rng(3)
        spec = HamiltonianSpec(3, suites._random_coupling_matrix(3, rng),
                               suites._random_quartic(3, rng, max_quadruples=2))
    check = suites.run_flow_margin(Ms=(2, 3), seed=seed, dt=dt, steps=steps, spec=spec)
    worst, x0 = _recorded_point(check)
    assert (worst["seed"], worst["dt"], worst["steps"]) == (seed, dt, steps)
    assert 0 <= worst["index"] < check.instances
    M = worst["M"]
    if spec is None:
        rng = np.random.default_rng(seed + M)
        spec = HamiltonianSpec(
            M, suites._random_coupling_matrix(M, rng, scale=0.25),
            suites._random_quartic(M, rng, max_quadruples=4, scale=0.25))
    margins = np.abs(flow(x0, spec, worst["dt"], worst["steps"]).margins)
    assert int(np.argmax(margins)) == worst["step"] > 0
    assert margins[worst["step"]] == check.max_residual > 0.0


def test_worst_divergence_instance_reproduces_its_residual():
    seed = 918273
    checks = suites.run_appendix_c(Ms=(2, 3), seed=seed, cases=6)
    assert all(set(c.info["worst"]) == {"index", "seed", "M", "x"} for c in checks)
    check = checks[0]
    assert check.name == "divergence-closed-form"
    worst, x = _recorded_point(check)
    assert worst["seed"] == seed and 0 <= worst["index"] < check.instances
    M = worst["M"]
    rng = np.random.default_rng(seed + 1000 * M + worst["index"])
    suites._random_coupling_matrix(M, rng)  # t is drawn before g
    g = suites._random_quartic(M, rng)
    div_d = sum(suites._central(lambda u: kernel.diffusion(PhasePoint(M, u), g), x.packed, q)[:, q]
                for q in range(x.packed.size))
    residual = float(np.max(np.abs(kernel.div_diffusion(x, g) - div_d)))
    assert residual == check.max_residual > 0.0


def test_worst_moment_state_reproduces_its_residual():
    check = suites.run_moment_m1(seed=5)
    worst = check.info["worst"]
    assert worst["seed"] == 5 and 0 <= worst["index"] < check.instances
    states = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.eye(2) / 2,
              fock.random_density_matrix(1, worst["seed"] + 1),
              fock.random_density_matrix(1, worst["seed"] + 2)]
    lhs, rhs = fock.verify_moment_identity_m1(states[worst["index"]])
    assert abs(lhs - rhs) == check.max_residual > 0.0


def _nan_on_call(fn, call, plant):
    """``fn``, with ``plant`` putting a NaN into the result of its ``call``-th call."""
    calls = 0

    def planted(*args, **kwargs):
        nonlocal calls
        calls += 1
        out = fn(*args, **kwargs)
        return plant(out) if calls == call else out
    return planted


def _nan(out):
    return out * np.nan


_G3 = QuarticCoupling.from_entries(3, [(1, 2, 3, 4, 0.3)])

# (owner, name of the call, the call whose result gets the NaN, how, the
# runner, its check, where the check reports the NaN).  Each NaN lands at an
# instance or stack block after the first, where a running maximum with
# Python's max would drop it.
NAN_CASES = {
    "tangency": (kernel, "tangency_residual", 3, _nan,
                 lambda: suites.run_tangency(Ms=(2, 3), seed=5, n_points=8),
                 "tangency", "max_residual"),
    "channel-balance": (kernel.ChannelDecomposition, "traces", 2, lambda fb: (fb[0], _nan(fb[1])),
                        lambda: suites.run_traceless_and_channels(3, seed=4, cases=8, g=_G3),
                        "channels-m3", "balance"),
    "channel-reconstruction": (kernel.ChannelDecomposition, "reconstruct", 2, _nan,
                               lambda: suites.run_traceless_and_channels(3, seed=4, cases=8, g=_G3),
                               "channels-m3", "max_residual"),
    # conservative_rhs calls div_diffusion too: call 3 is the second instance's check
    "divergence-closed-form": (kernel, "div_diffusion", 3, _nan,
                               lambda: suites.run_appendix_c(Ms=(2,), seed=4, cases=3),
                               "divergence-closed-form", "max_residual"),
    "fpe": (fock, "verify_fpe", 2, lambda chk: replace(chk, residual=np.nan),
            lambda: suites.run_fpe_sweep(suites.acceptance_fpe_cases(11)[1][1], 11, n_instances=3),
            "fpe", "max_residual"),
    "quadratic-identities": (fock, "verify_quadratic_identities", 2,
                             lambda res: {**res, "mixed": np.nan},
                             lambda: suites.run_quadratic_identities(Ms=(2,), seed=5, n_points=3),
                             "quadratic-identities", "max_residual"),
    "four-gamma": (fock, "verify_four_gamma", 2,
                   lambda report: {k: (left, np.nan) for k, (left, _) in report.items()},
                   lambda: suites.run_four_gamma(M=2, seed=5, n_points=3),
                   "four-gamma", "max_residual"),
    "flow-boundary-margin": (suites, "flow", 2, lambda traj: replace(traj, margins=_nan(traj.margins)),
                             lambda: suites.run_flow_margin(Ms=(2, 3), seed=5, steps=20),
                             "flow-boundary-margin", "max_residual"),
    "flow-matrix-equivalence": (suites, "flow", 2, lambda traj: replace(traj, packed=_nan(traj.packed)),
                                lambda: suites.run_flow_equivalence(Ms=(1,), seed=5, seeds_per_m=3,
                                                                    steps=20),
                                "flow-matrix-equivalence", "max_residual"),
    "moment-m1": (fock, "verify_moment_identity_m1", 2, lambda lr: (lr[0], np.nan),
                  lambda: suites.run_moment_m1(seed=5), "moment-m1", "max_residual"),
    "basis-at-origin": (fock, "gaussian_basis", 2, _nan,
                        lambda: suites.run_gaussian_basis(seed=5, n_boundary=2),
                        "basis-at-origin", "max_residual"),
    "hubbard-fidelity": (suites, "hubbard_comparison", 2, lambda residual: np.nan,
                         suites.run_hubbard_fidelity, "hubbard-fidelity", "max_residual"),
}


@pytest.mark.parametrize("case", NAN_CASES.values(), ids=NAN_CASES)
def test_a_nan_after_the_first_instance_fails_its_check(monkeypatch, case):
    owner, name, call, plant, runner, check_name, reads = case
    monkeypatch.setattr(owner, name, _nan_on_call(getattr(owner, name), call, plant))
    checks = runner()
    check = {c.name: c for c in (checks if isinstance(checks, list) else [checks])}[check_name]
    value = check.max_residual if reads == "max_residual" else check.info[reads]
    assert np.isnan(value)
    assert not check.passed


def test_a_nan_residual_fails_verify(monkeypatch, tmp_path):
    from majoranaq.cli import main

    monkeypatch.setattr(kernel, "tangency_residual", _nan_on_call(kernel.tangency_residual, 3, _nan))
    cfg, out = tmp_path / "m3.json", tmp_path / "report.json"
    cfg.write_text(json.dumps({"M": 3, "seed": 0}))
    assert main(["verify", "--config", str(cfg), "--suite", "tangency", "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    check = {c["name"]: c for c in report["checks"]}["tangency"]
    assert np.isnan(check["max_residual"]) and check["pass"] is False
    assert report["overall_pass"] is False


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
