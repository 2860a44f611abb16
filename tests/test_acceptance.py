"""Acceptance gate.

Each test implements one acceptance criterion at its pinned tolerance and
prints a single ``criterion N: PASS/FAIL`` line (visible with ``pytest -s``
or in captured output).  Golden values are the externally specified
reference results for the shipped corpus.

Criterion 4 carries one sub-check that no correct implementation can
satisfy; it is implemented literally and fails, with the analysis in the
assertion message.  All other criteria pass.
"""

import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from phzero import (
    ReductionError,
    Subspace,
    discrete_reduce,
    is_exponentially_stable,
    is_transmission_zero,
    scan_zeros,
    simulate,
    simulate_zeroing,
    split_commensurate,
    vstar_discrete,
    output_nulling_stacks,
)
from phzero.analysis import pencil_roots
from phzero.canonicalize import common_travel_time, split_initial_profile
from phzero.errors import SingularMatrixError
from phzero.linalg import two_norm
from phzero.zerodyn import reduce as zd_reduce

from conftest import (
    GLOBAL_SEED,
    build_ring,
    build_sparse_ten,
    build_split,
    build_two_speed,
    criterion_6_ensemble,
)
from ensembles import (
    random_nulling_profile,
    random_square_system,
    random_stable_system,
)
from oracles import (
    multispeed_output,
    same_as,
    transfer_eval,
    transfer_eval_resolvent,
    vstar_from_quadruple,
)

GOLDEN_W_ROOTS = sorted([(-1 - np.sqrt(5)) / 2, (-1 + np.sqrt(5)) / 2])


def announce(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")


def mod_constraints(f, constraints):
    """Representative of a trace functional with constraint rows projected
    out."""
    f = np.asarray(f, dtype=float).ravel().copy()
    c = np.atleast_2d(np.asarray(constraints, dtype=float))
    if c.size:
        q = np.linalg.qr(c.T)[0]
        f = f - q @ (q.T @ f)
    return f


def corpus_uniform_systems():
    return {
        "two_speed(split)": split_commensurate(build_two_speed()),
        "split_three_channel": build_split(),
        "ring_three_channel": build_ring(),
        "sparse_ten_channel": build_sparse_ten(),
    }


def test_criterion_1_splitting():
    """Two-speed network splits into the golden three-channel uniform form,
    certified by exact input-output equivalence."""
    started = time.perf_counter()
    ms = build_two_speed()
    split = split_commensurate(ms)
    assert split.n == 3 and split.p == 1.0
    assert np.array_equal(split.K, [[1, 0, 1], [0, 1, 0], [0, 0, 1]])
    assert np.array_equal(split.L, [[1, 0, 0], [0, 0, -1], [0, 0, 0]])
    assert np.array_equal(split.Ky, [[0, 0, 0]])
    assert np.array_equal(split.Ly, [[1, 1, 0]])

    rng = np.random.default_rng(GLOBAL_SEED)
    g = common_travel_time(ms.speeds)
    grid, traversals = 8, 6
    worst = 0.0
    for _ in range(5):
        z0 = [rng.uniform(-1, 1, int(s.travel_time / g) * grid) for s in ms.speeds]
        u = rng.uniform(-1, 1, (traversals * grid, 1))
        y_oracle = multispeed_output(ms, z0, u, grid)
        tr = simulate(split, split_initial_profile(ms.speeds, z0, g),
                      u.reshape(traversals, grid, 1).transpose(0, 2, 1), steps=traversals)
        worst = max(worst, np.abs(y_oracle - tr.outputs.transpose(0, 2, 1).reshape(-1, 1)).max())
    elapsed = time.perf_counter() - started
    assert worst <= 1e-12
    assert elapsed < 1.0
    announce(1, True, f"golden split matrices, io deviation {worst:.2e}, {elapsed:.3f}s")


def test_criterion_2_split_reduction():
    """Three-channel reduction: order 2, golden constraint, deflation
    identity, golden determinant roots, zeroing input = third incoming
    trace."""
    started = time.perf_counter()
    split = build_split()
    res = zd_reduce(split)
    assert res.k == 2
    assert same_as(Subspace.from_span(res.constraints.T),
                   Subspace.from_span(np.array([[1.0, 1.0, 0.0]]).T), tol=1e-9)
    # the reduced boundary system solves the original one on the reduced
    # state: E W^T (-inv(Kw) Lw) = F W^T
    e, f = output_nulling_stacks(split)
    lift = res.reduced_state_map.T
    assert np.abs(e @ lift @ res.reduced_step - f @ lift).max() <= 1e-9
    assert res.deflation_residual <= 1e-9

    roots, vanishes = pencil_roots(res.Kw, res.Lw)
    assert not vanishes
    assert_allclose(sorted(z.real for z in roots), GOLDEN_W_ROOTS, atol=1e-9)
    assert max(abs(z.imag) for z in roots) <= 1e-9
    scan = scan_zeros(split)
    assert_allclose(sorted(z.real for z in scan.w_roots), GOLDEN_W_ROOTS, atol=1e-9)

    fk, fl = res.input_functional_original()
    assert np.abs(mod_constraints(fk, res.constraints)
                  - mod_constraints([0, 0, 1], res.constraints)).max() <= 1e-9
    assert np.abs(mod_constraints(fl, res.constraints)).max() <= 1e-9
    # and on trajectories the input is exactly the incoming third-channel trace
    rng = np.random.default_rng(GLOBAL_SEED + 2)
    z0 = random_nulling_profile(rng, res.nulling_subspace().basis, 16)
    tr = simulate_zeroing(split, res, z0, steps=20)
    assert np.abs(tr.inputs[:, 0, :] - tr.states[1:, 2, :]).max() <= 1e-10

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    announce(2, True, f"k=2, constraint (1,1,0), golden roots, trace rule, {elapsed:.3f}s")


def test_criterion_3_ring_reduction():
    """Ring network: exactly two eliminations, constraints e1 and e2,
    scalar reduced boundary w(0,t)=0, zeroing input = third outgoing
    trace."""
    started = time.perf_counter()
    ring = build_ring()
    res = zd_reduce(ring)
    assert res.constraints.shape[0] == 2 and res.k == 1
    assert same_as(Subspace.from_span(res.constraints.T),
                   Subspace(np.eye(3)[:, :2]), tol=1e-9)
    assert abs(res.Kw[0, 0]) > 1e-10  # invertible 1x1
    assert np.abs(res.Lw).max() <= 1e-10

    fk, fl = res.input_functional_original()
    assert np.abs(mod_constraints(fk, res.constraints)).max() <= 1e-9
    assert np.abs(mod_constraints(fl, res.constraints)
                  - mod_constraints([0, 0, 1], res.constraints)).max() <= 1e-9
    rng = np.random.default_rng(GLOBAL_SEED + 3)
    z0 = np.zeros((3, 16))
    z0[2] = rng.uniform(-1, 1, 16)
    tr = simulate_zeroing(ring, res, z0, steps=20)
    assert np.abs(tr.inputs[:, 0, :] - tr.states[:-1, 2, :]).max() <= 1e-10

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    announce(3, True, f"two iterations, constraints e1,e2, w(0)=0, trace rule, {elapsed:.3f}s")


def test_criterion_4_ten_channel_reduction():
    """Ten-channel network: one elimination, order 9, Lw = 0, golden
    constraint, and the literal golden zeroing-functional row.

    The final sub-check is implemented exactly as specified and cannot be
    satisfied: on this network the incoming boundary traces lie in
    ker(K0) (the outgoing-trace matrix of the constraint block vanishes),
    and every valid zeroing functional must agree there with the actual
    input u = z4(0,t), giving value -1 on the kernel direction, while the
    golden row evaluates to 0 on it.  The two differ by a row outside the
    one-dimensional constraint span, so no constraint-span shift can
    reconcile them.  (The golden row is the fourth row of a state
    transform, not an input functional; the actual zeroing input of this
    network is identically zero, which the trajectory check below
    certifies exactly.)
    """
    started = time.perf_counter()
    ten = build_sparse_ten()
    res = zd_reduce(ten)
    assert len(res.transform_chain) == 1 and res.k == 9
    assert np.abs(res.Lw).max() <= 1e-9
    assert np.linalg.cond(res.Kw) < 1e8

    expected_constraint = np.zeros(10)
    expected_constraint[1], expected_constraint[3] = 1.0, -2.0
    assert same_as(Subspace.from_span(res.constraints.T),
                   Subspace.from_span(expected_constraint[:, None]), tol=1e-9)

    # the zeroing input signal itself: identically zero on the zero
    # dynamics, exactly reproduced by the golden row evaluated on the
    # incoming traces (both vanish)
    golden_row = np.zeros(10)
    golden_row[4], golden_row[7], golden_row[8] = -2.5, 0.5, -3.0
    rng = np.random.default_rng(GLOBAL_SEED + 4)
    z0 = random_nulling_profile(rng, res.nulling_subspace().basis, 16)
    tr = simulate_zeroing(ten, res, z0, steps=10)
    claimed_on_traj = np.einsum("j,sjc->sc", golden_row, tr.states[1:])
    assert np.abs(tr.inputs[:, 0, :] - claimed_on_traj).max() <= 1e-8

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0

    fk, _ = res.input_functional_original()
    deviation = np.abs(mod_constraints(fk, res.constraints)
                       - mod_constraints(golden_row, res.constraints)).max()
    ok = deviation <= 1e-8
    announce(4, ok,
             f"one iteration, k=9, Lw=0, constraint (0,1,0,-2,...), {elapsed:.3f}s; "
             f"literal golden-functional deviation {deviation:.3e}"
             + ("" if ok else " (unattainable golden row, see docstring)"))
    assert ok, (
        "the golden zeroing-functional row differs from every valid "
        f"zeroing functional by {deviation:.3e} > 1e-8 modulo the "
        "constraint span; see the test docstring for the proof sketch"
    )


def test_criterion_5_feedthrough_equivalence():
    """Invertibility of the feedthrough matches invertibility of the
    stacked constraint/output matrix on 1000 seeded systems."""
    rng = np.random.default_rng(GLOBAL_SEED + 5)
    tested = excluded = 0
    for i in range(1000):
        sysr = random_square_system(rng, singular_stack=bool(i % 2))
        d = discrete_reduce(sysr)
        e = d.Dd
        anchor = max(two_norm(e), two_norm(sysr.Ky) * two_norm(d.Bd), 1e-300)
        rel_e = np.linalg.svd(e, compute_uv=False)[-1] / anchor
        sv = np.linalg.svd(np.vstack([sysr.K0, sysr.Ky]), compute_uv=False)
        rel_s = sv[-1] / max(sv[0], 1e-300)
        # grey zone: invertible but conditioned worse than 1e6
        if 1e-8 < rel_e < 1e-6 or 1e-8 < rel_s < 1e-6:
            excluded += 1
            continue
        assert (rel_e > 1e-8) == (rel_s > 1e-8), f"sample {i}: {rel_e} vs {rel_s}"
        tested += 1
    assert tested >= 950
    announce(5, True, f"{tested} systems agree, {excluded} excluded as ill-conditioned")


def test_criterion_6_route_equivalence():
    """V* (QZ deflation), the quadruple iteration and the reduction agree
    on the zero-dynamics order for 200 seeded SISO systems; scan confirms an
    identically zero transfer function whenever the reduction fails."""
    agreed = vanished = 0
    for i, sysr in enumerate(criterion_6_ensemble()):
        v1 = vstar_discrete(*output_nulling_stacks(sysr))
        v2 = vstar_from_quadruple(discrete_reduce(sysr))
        assert v1.dim == v2.dim, f"sample {i}"
        try:
            res = zd_reduce(sysr)
        except ReductionError:
            # the constructive route needs a nonvanishing transfer function;
            # the scan must confirm it is identically zero
            assert scan_zeros(sysr).identically_zero, f"sample {i}"
            vanished += 1
            continue
        assert res.k == v1.dim, f"sample {i}: k={res.k}, dim={v1.dim}"
        agreed += 1
    assert agreed + vanished == 200 and vanished >= 20
    announce(6, True, f"{agreed} systems agree, {vanished} identically-zero maps confirmed")


def test_criterion_7_zero_output_certificate():
    """Closed-loop output stays below 1e-10 * |z0| over 20 traversals for
    50 nulling profiles per corpus system and both feedback modes; open
    loop from generic profiles produces output above 1e-6 * |z0|."""
    detail = []
    for name, sysx in corpus_uniform_systems().items():
        res = zd_reduce(sysx)
        basis = res.nulling_subspace().basis
        rng = np.random.default_rng(GLOBAL_SEED + 7)
        worst_closed = 0.0
        for _ in range(50):
            z0 = random_nulling_profile(rng, basis, 64)
            scale = max(np.abs(z0).max(), 1e-300)
            for mode in ("reduction", "friend"):
                tr = simulate_zeroing(sysx, res, z0, steps=20, mode=mode)
                worst_closed = max(worst_closed, tr.max_output() / scale)
        assert worst_closed <= 1e-10, f"{name}: {worst_closed}"
        worst_open = np.inf
        for _ in range(50):
            z0 = rng.uniform(-1.0, 1.0, (sysx.n, 64))
            tr = simulate(sysx, z0, None, steps=20)
            worst_open = min(worst_open, tr.max_output() / np.abs(z0).max())
        assert worst_open > 1e-6, f"{name}: {worst_open}"
        detail.append(f"{name} closed {worst_closed:.1e} open {worst_open:.1e}")
    announce(7, True, "; ".join(detail))


def test_criterion_8_stability_suite():
    """Marginal spectral radius reported for the ring; open-loop decay
    envelope holds on 100 seeded systems with radius below 0.95."""
    stable, r = is_exponentially_stable(build_ring())
    assert not stable and abs(r - 1.0) <= 1e-12
    rng = np.random.default_rng(GLOBAL_SEED + 8)
    for i in range(100):
        radius = float(rng.uniform(0.3, 0.9))
        sysr, _ = random_stable_system(rng, radius=radius)
        n = sysr.n
        _, r_meas = is_exponentially_stable(sysr)
        assert r_meas < 0.95
        z0 = rng.uniform(-1, 1, (n, 8))
        tr = simulate(sysr, z0, None, steps=40)
        norms = np.linalg.norm(tr.states.reshape(41, -1), axis=1)
        base = r_meas + 0.05
        envelope = max(norms[s] / base**s for s in range(n + 1))
        for s in range(n, 41):
            assert norms[s] <= envelope * base**s * (1 + 1e-12), f"sample {i}, step {s}"
    announce(8, True, "ring marginal at r=1; 100 decay envelopes hold")


def test_criterion_9_transfer_consistency():
    """Boundary-solve transfer evaluation matches the resolvent formula at
    100 frequencies per corpus system; the pencil singularity test and a
    direct |G| bound agree at every scanned zero."""
    rng = np.random.default_rng(GLOBAL_SEED + 9)
    for name, sysx in corpus_uniform_systems().items():
        d = discrete_reduce(sysx)
        checked = 0
        while checked < 100:
            s = complex(rng.uniform(-1.0, 1.0), rng.uniform(-np.pi, np.pi) / sysx.p)
            try:
                a = transfer_eval(sysx, s).value
            except SingularMatrixError:
                continue
            b = transfer_eval_resolvent(d, s)
            assert np.abs(a - b).max() <= 1e-10 * max(np.abs(a).max(), 1e-300), name
            checked += 1
        scan = scan_zeros(sysx)
        reference = max(
            np.abs(transfer_eval(sysx, 1.0 + 2j * np.pi * k / (8 * sysx.p)).value).max()
            for k in range(8)
        )
        for s in scan.s_values:
            assert is_transmission_zero(sysx, s), name
            g = np.abs(transfer_eval(sysx, s).value).max()
            assert g <= 1e-8 * (1.0 + reference), f"{name}: |G|={g}"
    announce(9, True, "dual-route transfer agreement and zero certificates on the corpus")
