import dataclasses
import gc
import itertools
import math
import weakref

import numpy as np
import pytest

from spanshare import condition, quantum
from spanshare.galois import Field
from spanshare.classical import build_reconstruction_plan, verify_classical
from spanshare.msp import compile_formula, extend_msp, msp_structure, shamir_msp
from spanshare.quantum import (
    NORM_ATOL,
    AmplitudeBudgetError,
    DensityMatrix,
    QuantumState,
    VerificationReport,
    apply_plan,
    fidelity,
    partial_trace,
    qencode,
    qss_mixed,
    qss_pure,
    probe_family,
    trace_distance_within,
    verify_erasure,
)
from spanshare.structures import build_structure, format_players, mask_from_players, parse_formula

from reference_quantum import (
    dense_dm,
    normalized,
    probe,
    projector,
    ref_apply_plan,
    schmidt_rank,
    state_of,
    support_in_image,
    trace_distance,
    validate_psd,
)

GF5 = Field(5)


def mask(*players, n):
    return mask_from_players(players, n)


@pytest.fixture
def shamir13():
    return shamir_msp(3, 1, GF5)


@pytest.fixture
def orand():
    return compile_formula(parse_formula("or(and(1,3),and(2,3))"), GF5)


def test_state_construction_and_norm():
    s = state_of((5,), {(3,): 1.0})
    assert quantum._norm(s.values) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="norm"):
        state_of((2,), {(0,): 0.5})
    with pytest.raises(ValueError, match="^basis label arity does not match coordinate count$"):
        state_of((2,), {(0, 1): 1.0})
    with pytest.raises(ValueError, match="range"):
        state_of((2,), {(3,): 1.0})
    plus = state_of((2,), normalized({(0,): 1, (1,): 1}))
    assert plus.amps[(0,)] == pytest.approx(1 / math.sqrt(2))


def test_state_arrays_are_the_only_storage():
    state = state_of((3, 2), {(2, 1): 0.6, (0, 1): 0.8j})
    assert state.amps == dict(zip(map(tuple, state.labels.tolist()), state.values.tolist()))
    assert list(state.amps) == [(2, 1), (0, 1)]
    with pytest.raises(ValueError, match="read-only"):
        state.labels[0, 0] = 1
    with pytest.raises(ValueError, match="read-only"):
        state.values[0] = 0.6j
    with pytest.raises(ValueError, match="length"):
        QuantumState((3, 2), state.labels, np.array([1.0, 0.0, 0.0], dtype=complex))


def test_state_keeps_the_callers_arrays():
    # arrays of the stored dtypes are taken over, not copied, and frozen in place
    labels = np.array([[0], [1]], dtype=np.int64)
    amps = np.array([0.6, 0.8j])
    state = QuantumState((2,), labels, amps)
    assert state.labels is labels and state.values is amps
    assert not labels.flags.writeable and not amps.flags.writeable


def test_a_nan_amplitude_fails_the_norm_gate(shamir13, monkeypatch):
    nan = np.array([np.nan, 0, 0, 0, 0], dtype=complex)
    refused = "^state norm nan is not 1 within 1e-12$"
    with pytest.raises(ValueError, match=refused):
        qencode(shamir13, nan)
    with pytest.raises(ValueError, match=refused):
        QuantumState((2,), np.array([[0], [1]]), np.array([np.nan, 0.5]))
    # a sweep refuses the probe when it is encoded, before any report line
    lines = counted(monkeypatch, VerificationReport, "add")
    with pytest.raises(ValueError, match=refused):
        qss_pure(shamir13).verify_all(inputs=[*probe_family(5, n_random=0), ("nan", nan)])
    assert lines == []


def test_qencode_basis_zero(shamir13):
    enc = qencode(shamir13, probe(5, {0: 1}))
    expected = {(a % 5, 2 * a % 5, 3 * a % 5) for a in range(5)}
    assert set(enc.state.amps) == expected
    for amp in enc.state.amps.values():
        assert amp == pytest.approx(1 / math.sqrt(5))
    assert support_in_image(enc)


def test_qencode_basis_three(shamir13):
    enc = qencode(shamir13, probe(5, {3: 1}))
    expected = {((3 + a) % 5, (3 + 2 * a) % 5, (3 + 3 * a) % 5) for a in range(5)}
    assert set(enc.state.amps) == expected


def test_qencode_superposition_is_linear(shamir13):
    plus = probe(5, {0: 1, 1: 1})
    enc = qencode(shamir13, plus)
    enc0 = qencode(shamir13, probe(5, {0: 1}))
    enc1 = qencode(shamir13, probe(5, {1: 1}))
    for label, amp in enc.state.amps.items():
        expected = (enc0.state.amps.get(label, 0) + enc1.state.amps.get(label, 0)) / math.sqrt(2)
        assert amp == pytest.approx(expected)
    assert quantum._norm(enc.state.values) == pytest.approx(1.0)


def test_qencode_is_label_bijection(shamir13):
    # all basis encodings together hit p**e distinct labels
    seen = set()
    for s in range(5):
        enc = qencode(shamir13, probe(5, {s: 1}))
        assert len(enc.state.amps) == 5
        seen |= set(enc.state.amps)
    assert len(seen) == 25


def test_qencode_takes_one_amplitude_vector(shamir13):
    with pytest.raises(ValueError, match=r"single GF\(5\) coordinate"):
        qencode(shamir13, np.full(4, 0.5, dtype=complex))
    with pytest.raises(ValueError, match=r"single GF\(5\) coordinate"):
        qencode(shamir13, np.eye(5, dtype=complex))
    # the zero vector and an unnormalized one fail the encoded state's norm check
    with pytest.raises(ValueError, match="^state norm 0.0 is not 1"):
        qencode(shamir13, np.zeros(5, dtype=complex))
    with pytest.raises(ValueError, match="norm"):
        qencode(shamir13, np.full(5, 0.5, dtype=complex))
    # the secrets are the nonzero entries, ascending, in blocks of 5 labels
    enc = qencode(shamir13, probe(5, {4: 1j, 1: -2}))
    assert [label[0] for label in list(enc.state.amps)[::5]] == [1, 4]
    assert list(enc.state.amps.values())[::5] == pytest.approx([-0.4, 0.2j])
    # a real vector encodes as its complex copy
    real = qencode(shamir13, np.array([0, 1.0, 0, 0, 0]))
    assert real.state.amps == qencode(shamir13, probe(5, {1: 1})).state.amps


def test_verify_all_refuses_probes_without_a_superposition(shamir13, monkeypatch):
    # basis probes alone cannot see phase damage, and no probes pass vacuously
    scheme = qss_pure(shamir13)
    basis_only = probe_family(5, n_random=0)[:5]
    assert all(name.startswith("basis:") for name, _ in basis_only)
    monkeypatch.setattr(quantum, "qencode", lambda *args: pytest.fail("encoded"))
    for family in ([], basis_only):
        with pytest.raises(ValueError, match="^probes must include non-basis amplitude assignments$"):
            scheme.verify_all(inputs=family)
        with pytest.raises(ValueError, match="non-basis"):
            verify_erasure(shamir13, mask(1, n=3), inputs=family)
        with pytest.raises(ValueError, match="non-basis"):
            qss_mixed(shamir13).verify_all(inputs=family)


def test_apply_plan_extracts_basis_secret(shamir13):
    plan = build_reconstruction_plan(shamir13, mask(1, n=3))
    enc = qencode(shamir13, probe(5, {3: 1}))
    after = apply_plan(enc, plan)
    # the first A coordinate (row index 1) must read 3 on every label
    for label in after.amps:
        assert label[plan.a_rows[0]] == 3
    assert schmidt_rank(after, (plan.a_rows[0],)) == 1


def test_apply_plan_recovers_superposition(shamir13):
    plan = build_reconstruction_plan(shamir13, mask(1, n=3))
    plus = probe(5, {0: 1, 1: 1})
    after = apply_plan(qencode(shamir13, plus), plan)
    rho = partial_trace(after, (plan.a_rows[0],))
    assert fidelity(rho, plus) == pytest.approx(1.0, abs=1e-12)
    assert schmidt_rank(after, (plan.a_rows[0],)) == 1


def test_apply_plan_trivial_msp():
    trivial = shamir_msp(1, 0, GF5)
    plan = build_reconstruction_plan(trivial, 0)
    state = probe(5, {2: 1, 4: 1j})
    after = apply_plan(qencode(trivial, state), plan)
    assert fidelity(partial_trace(after, (0,)), state) == pytest.approx(1.0)


def test_apply_plan_rejects_foreign_plan(shamir13, orand):
    plan = build_reconstruction_plan(orand, mask(1, n=3))
    enc = qencode(shamir13, probe(5, {0: 1}))
    with pytest.raises(ValueError, match="different MSP"):
        apply_plan(enc, plan)


def test_partial_trace_examples(shamir13):
    enc = qencode(shamir13, probe(5, {2: 1}))
    rho = partial_trace(enc.state, (0,))
    assert np.allclose(rho.mat, np.eye(5) / 5)

    product = state_of((5, 5), {(2, 3): 1.0})
    rho1 = partial_trace(product, (0,))
    expected = np.zeros((5, 5))
    expected[2, 2] = 1
    assert np.allclose(rho1.mat, expected)

    keep_all = partial_trace(product, (0, 1))
    assert np.linalg.matrix_rank(keep_all.mat) == 1
    assert np.trace(keep_all.mat) == pytest.approx(1.0)


def test_partial_trace_validation(shamir13):
    enc = qencode(shamir13, probe(5, {0: 1}))
    with pytest.raises(ValueError):
        partial_trace(enc.state, (0, 0))
    with pytest.raises(ValueError):
        partial_trace(enc.state, (7,))


def test_fidelity_and_trace_distance_examples():
    psi = probe(5, {0: 1, 2: 1j})
    proj = projector(psi)
    assert fidelity(proj, psi) == pytest.approx(1.0)
    assert trace_distance(proj, proj) == pytest.approx(0.0, abs=1e-12)

    maximally_mixed = dense_dm((5,), np.eye(5) / 5)
    zero = projector(probe(5, {0: 1}))
    assert trace_distance(maximally_mixed, zero) == pytest.approx(4 / 5)

    within, value = trace_distance_within(maximally_mixed, zero)
    assert not within and value == pytest.approx(4 / 5)

    with pytest.raises(ValueError):
        trace_distance(maximally_mixed, dense_dm((2,), np.eye(2) / 2))
    with pytest.raises(ValueError, match="^trace distance of density matrices with different dimensions$"):
        trace_distance_within(maximally_mixed, dense_dm((2,), np.eye(2) / 2))
    with pytest.raises(ValueError):
        fidelity(maximally_mixed, probe(2, {0: 1}))


def test_density_matrix_validation():
    with pytest.raises(ValueError, match="Hermitian"):
        dense_dm((2,), [[0.5, 1], [0, 0.5]])
    with pytest.raises(ValueError, match="trace"):
        dense_dm((2,), np.eye(2))
    dm = dense_dm((2,), [[0.5, 0], [0, 0.5]])
    validate_psd(dm)


def test_sparse_density_matrix_validation():
    # |+><+| on one qubit: flat indices 0..3 of [[.5, .5], [.5, .5]]
    half = np.full(4, 0.5)
    dm = DensityMatrix((2,), np.arange(4), half)
    assert np.array_equal(dm.mat, np.full((2, 2), 0.5))
    assert not dm.index.flags.writeable and not dm.values.flags.writeable
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix((2,), [0, 2, 1, 3], half)
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix((2,), [0, 0, 3], [0.25, 0.25, 0.5])
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix((2,), [0, 1, 3], [0.5, 0.5, 0.5])
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix((2,), np.arange(4), [0.5, 0.5j, 0.5j, 0.5])
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix((2,), [0, 3], [0.5, 0.25])
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix((2,), [1, 2], [0.5, 0.5])
    with pytest.raises(ValueError, match="out of range"):
        DensityMatrix((2,), [0, 4], [1.0, 0.0])
    with pytest.raises(ValueError, match="shape"):
        DensityMatrix((2,), [0, 3], [0.5, 0.5, 0.0])
    # np.isclose semantics against the conjugate-transpose entry: rtol 1e-5
    DensityMatrix((2,), np.arange(4), [0.5, 0.5 + 2e-6, 0.5, 0.5])
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix((2,), np.arange(4), [0.5, 0.5 + 1e-5, 0.5, 0.5])


def test_norm_is_compensated_at_large_sizes():
    # 7**6 amplitudes of 7**-3, as in the uniform secret's encoding under an
    # e=6 MSP over GF(7); a naive float sum of the squares drifts ~1.3e-12
    dim = 7**6
    psi = QuantumState((dim,), np.arange(dim).reshape(dim, 1), np.full(dim, complex(1.0 / math.sqrt(dim))))
    norm = quantum._norm(psi.values)
    assert abs(norm - 1.0) < 1e-15


def test_trace_check_allows_the_rounding_of_long_sums():
    # every label of GF(5)**8, uniform; each diagonal entry of the view on
    # coordinate 0 sums 78,125 squares in sequence
    labels = np.indices((5,) * 8).reshape(8, -1).T
    rho = partial_trace(QuantumState((5,) * 8, labels, np.full(5**8, 1 / 625, complex)), (0,))
    # the state's 5**7 labels with coordinate 0 fixed: one entry sums them all
    fixed = labels[labels[:, 0] == 0]
    one = partial_trace(QuantumState((5,) * 8, fixed, np.full(5**7, 5**-3.5, complex)), (0,))
    for view, terms in ((rho, 5**8), (one, 5**7)):
        assert view.terms == terms
        # past the NORM_ATOL that a matrix given entry by entry is held to
        assert abs(np.trace(view.mat) - 1) > NORM_ATOL
    # the uniform state is |+> on every coordinate
    assert np.allclose(rho.mat, np.full((5, 5), 0.2), rtol=0, atol=1e-12)
    assert np.allclose(one.mat, np.diag([1.0, 0, 0, 0, 0]), rtol=0, atol=1e-11)


def test_trace_bound_grows_with_the_term_count():
    # 2 NORM_ATOL + (terms + 8) eps: 2.24e-10 for 10**6 terms
    DensityMatrix((2,), [0, 3], [0.5, 0.5 + 2e-10], terms=10**6)
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix((2,), [0, 3], [0.5, 0.5 + 2.5e-10], terms=10**6)
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix((2,), [0, 3], [0.5, 0.5 + 2e-10])
    DensityMatrix((2,), [0, 3], [0.5, 0.5 + 0.9e-12])


def test_amplitude_budget_refuses_every_sweep(orand):
    # 127**3 > 2e6 amplitudes per encoding; refused before any plan is built
    big = shamir_msp(5, 2, Field(127))
    with pytest.raises(AmplitudeBudgetError, match="amplitudes"):
        qss_pure(big)
    with pytest.raises(AmplitudeBudgetError, match="amplitudes"):
        verify_erasure(big, mask(1, 2, n=5))
    # the generic dual grows the Shamir(4,2) extension to 5**10 amplitudes
    with pytest.raises(AmplitudeBudgetError, match="amplitudes"):
        qss_mixed(shamir_msp(4, 2, GF5))


def small_family(p):
    return probe_family(p, seed=11, n_random=3)


def test_verify_erasure_examples(shamir13, orand):
    family = small_family(5)
    for b in [mask(1, n=3), mask(2, n=3), mask(3, n=3)]:
        report = verify_erasure(shamir13, b, inputs=family)
        assert report.applicable and report.passed

    na = verify_erasure(shamir13, mask(1, 2, n=3), inputs=family)
    assert not na.applicable
    assert na.status == "NOT_APPLICABLE"
    assert "adversary" in na.reason
    assert na.to_text() == (
        "erasure verification: field=5 d=3 e=2 n=3 B={1,2} seed=0\n"
        "result: NOT_APPLICABLE (set is not in the adversary structure)\n"
    )
    assert na.to_machine() == (
        "report kind=erasure seed=0\nresult=not_applicable reason='set is not in the adversary structure'\n"
    )

    ok = verify_erasure(orand, mask(1, n=3), inputs=family)
    assert ok.applicable and ok.passed

    na2 = verify_erasure(orand, mask(3, n=3), inputs=family)
    assert not na2.applicable
    assert "dual" in na2.reason


def test_verify_erasure_is_the_pure_schemes_block(shamir13, orand):
    family = small_family(5)
    for msp in (shamir13, extend_msp(orand)):
        scheme = qss_pure(msp)
        report = scheme.verify_all(inputs=family)
        for b in scheme.structure.members():
            block = [line for line in report.lines if line.subset == format_players(b)]
            assert block and verify_erasure(msp, b, inputs=family).lines == block


def test_report_formats(shamir13):
    report = verify_erasure(shamir13, mask(1, n=3), inputs=small_family(5))
    text = report.to_text()
    assert "result: PASS" in text
    machine = report.to_machine()
    assert "check=recovery" in machine and "pass=true" in machine
    assert "result=pass" in machine


def test_failing_report_text(shamir13):
    # one row per (check, set) in first-seen order, with its worst value and
    # FAIL when any of its lines failed, even one that is not the worst
    report = VerificationReport("mixed-qss", "field=5 d=3->8 e=5 n=3+tau", 4)
    for check, b, label, metric, value, passed in [
        ("recovery", 0b101, "basis:0", "fidelity", 1.0, True),
        ("recovery", 0b101, "uniform", "fidelity", 0.25, False),
        ("recovery", 0b101, "random:0", "fidelity", 0.25, False),
        ("recovery", 0b011, "basis:0", "fidelity", 0.5, True),
        ("recovery", 0b011, "uniform", "fidelity", 0.9, False),
        ("secrecy", 0b001, "basis:0|uniform", "distance", 2e-10, True),
        ("secrecy", 0b001, "basis:0|random:0", "distance", 5e-10, False),
        ("secrecy", 0b001, "uniform|random:0", "distance", 1e-10, True),
        ("secrecy", 0, "basis:0|uniform", "distance", 0.0, True),
        ("secrecy", 0b110, "basis:0|uniform", "distance", 0.5, False),
        ("recovery", 0b101, "random:1", "fidelity", 0.999999999999, True),
    ]:
        report.add(check, format_players(b), label, metric, value, passed)
    assert report.to_text() == (
        "mixed-qss verification: field=5 d=3->8 e=5 n=3+tau seed=4\n"
        "  recovery set={1,3}: min fidelity 0.250000000000: FAIL\n"
        "  recovery set={1,2}: min fidelity 0.500000000000: FAIL\n"
        "  secrecy set={1}: max distance 5.000e-10: FAIL\n"
        "  secrecy set={-}: max distance 0.000e+00: pass\n"
        "  secrecy set={2,3}: max distance 5.000e-01: FAIL\n"
        "result: FAIL\n"
    )
    # a sweep that checks secrecy on the qualified set {1,2}
    scheme = qss_pure(shamir13)
    plan = build_reconstruction_plan(shamir13, mask(3, n=3))
    leaky = dataclasses.replace(scheme, plans={mask(1, 2, n=3): plan}, blocks=[([0b011], [0b011])])
    assert leaky.verify_all(inputs=small_family(5)).to_text() == (
        "pure-qss verification: field=5 d=3 e=2 n=3 seed=0\n"
        "  recovery set={1,2}: min fidelity 1.000000000000: pass\n"
        "  secrecy set={1,2}: max distance 1.000e+00: FAIL\n"
        "result: FAIL\n"
    )


def test_qss_pure_shamir(shamir13):
    scheme = qss_pure(shamir13)
    report = scheme.verify_all(inputs=small_family(5))
    assert report.passed

    state = probe(5, {1: 1, 4: -1})
    enc = qencode(scheme.msp, state)
    recovered, coord = scheme.recover(mask(2, n=3), enc)
    assert fidelity(partial_trace(recovered, (coord,)), state) == pytest.approx(1.0)

    with pytest.raises(ValueError, match="not erasable"):
        scheme.recover(mask(1, 2, n=3), enc)


def test_qss_pure_rejects_non_selfdual(orand):
    with pytest.raises(ValueError, match="qss_mixed"):
        qss_pure(orand)


def test_qss_pure_on_extension(orand):
    scheme = qss_pure(extend_msp(orand))
    report = scheme.verify_all(inputs=small_family(5))
    assert report.passed

    # the recovered coordinate factors out exactly, even at 8 coordinates
    state = probe(5, {0: 1, 2: -1j})
    after, coord = scheme.recover(mask(1, 2, n=4), qencode(scheme.msp, state))
    assert schmidt_rank(after, (coord,)) == 1


def test_qss_mixed_example(orand):
    scheme = qss_mixed(orand)
    assert msp_structure(scheme.msp) == build_structure(4, [{1, 2}, {3}, {1, 4}, {2, 4}])
    family = small_family(5)
    report = scheme.verify_all(inputs=family)
    assert report.passed
    assert sorted(scheme.plans) == [
        mask(1, 3, n=3),
        mask(2, 3, n=3),
        mask(1, 2, 3, n=3),
    ]

    state = probe(5, {0: 1, 3: 1j})
    enc = qencode(scheme.msp, state)
    recovered, coord = scheme.recover(mask(1, 3, n=3), enc)
    assert fidelity(partial_trace(recovered, (coord,)), state) == pytest.approx(1.0)

    rho1 = scheme.coalition_density(mask(1, 2, n=3), enc)
    rho2 = scheme.coalition_density(
        mask(1, 2, n=3), qencode(scheme.msp, probe(5, {0: 1}))
    )
    assert trace_distance(rho1, rho2) < 1e-9

    with pytest.raises(ValueError, match="discarded"):
        scheme.coalition_density(mask(4, n=4), enc)
    with pytest.raises(ValueError, match="not qualified"):
        scheme.recover(mask(3, n=3), enc)


def test_qss_mixed_accepts_selfdual(shamir13):
    scheme = qss_mixed(shamir13)
    report = scheme.verify_all(inputs=small_family(5))
    assert report.passed


def test_qss_mixed_rejects_non_q2star():
    not_q2star = compile_formula(parse_formula("or(1,2)"), GF5)
    with pytest.raises(ValueError, match="no-cloning"):
        qss_mixed(not_q2star)


def test_qss_mixed_refuses_non_q2star_before_the_dualizer(monkeypatch):
    calls = []
    monkeypatch.setattr(extend_msp, "__defaults__", (calls.append,))
    with pytest.raises(ValueError, match="^structure is not Q2\\*; no-cloning forbids QSS$"):
        qss_mixed(compile_formula(parse_formula("or(1,2)"), GF5))
    assert calls == []


def test_recovery_never_touches_tau_coordinates(orand):
    scheme = qss_mixed(orand)
    tau_rows = set(scheme.msp.row_indices(1 << (scheme.msp.n - 1)))
    for plan in scheme.plans.values():
        assert tau_rows.isdisjoint(plan.a_rows)


def test_probe_family_is_deterministic():
    fam1 = probe_family(5, seed=3, n_random=4)
    probe_family.cache_clear()
    fam2 = probe_family(5, seed=3, n_random=4)
    # rebuilt after the cache is cleared, then served from it
    assert fam2 is not fam1 and probe_family(5, seed=3, n_random=4) is fam2
    assert [n for n, _ in fam1] == [n for n, _ in fam2]
    for (_, s1), (_, s2) in zip(fam1, fam2):
        assert s1.tobytes() == s2.tobytes()
        assert s1.shape == (5,) and not s1.flags.writeable
    assert len(fam1) == 5 + 1 + 4
    assert len(probe_family(5, n_random=0)) == 5 + 1
    with pytest.raises(ValueError, match="^random probe count must be nonnegative, got -1$"):
        probe_family(5, n_random=-1)


def test_probe_vectors_match_the_dict_path():
    # the probe vectors keep the dict path's values bit for bit
    for dim in (2, 3, 5, 7):
        amp = 1.0 / math.sqrt(dim)
        uniform = state_of((dim,), {(s,): amp for s in range(dim)})
        for seed in range(20):
            rng = np.random.default_rng(seed)
            raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            family = dict(probe_family(dim, seed, n_random=1))
            assert family["random:0"].tobytes() == probe(dim, dict(enumerate(raw.tolist()))).tobytes()
        for s in range(dim):
            assert family[f"basis:{s}"].tobytes() == probe(dim, {s: 1.0}).tobytes()
        assert family["uniform"].tobytes() == uniform.values.tobytes()


def sweep_keys(recovery_sets, secrecy_sets, names):
    keys = [("recovery", q, name) for q in recovery_sets for name in names]
    pairs = [f"{a}|{b}" for a, b in itertools.combinations(names, 2)]
    return keys + [("secrecy", b, pair) for b in secrecy_sets for pair in pairs]


def report_keys(report):
    return [(line.check, line.subset, line.label) for line in report.lines]


def test_sweep_line_order(shamir13, orand):
    family = probe_family(5, seed=4, n_random=2)
    names = ["basis:0", "basis:1", "basis:2", "basis:3", "basis:4", "uniform", "random:0", "random:1"]
    assert [name for name, _ in family] == names

    assert report_keys(verify_erasure(shamir13, mask(2, n=3), inputs=family)) == sweep_keys(
        ["2"], ["2"], names
    )
    assert report_keys(verify_erasure(orand, mask(1, n=3), inputs=family)) == sweep_keys(
        ["1"], ["1"], names
    )
    # pure: per erasable set, its recovery lines then its secrecy lines
    pure = qss_pure(shamir13).verify_all(inputs=family)
    expected = []
    for b in ["-", "1", "2", "3"]:
        expected += sweep_keys([b], [b], names)
    assert report_keys(pure) == expected
    # mixed: every qualified set's recovery, then every coalition's secrecy
    mixed = qss_mixed(orand).verify_all(inputs=family)
    assert report_keys(mixed) == sweep_keys(
        ["1,3", "2,3", "1,2,3"], ["-", "1", "2", "1,2", "3"], names
    )


# ---------------------------------------------------------------------------
# labels valid where they are dealt; a caller's states checked every time


@pytest.fixture
def nothing_held(monkeypatch):
    """Start with no plan program and no trace plan held."""
    monkeypatch.setattr(quantum, "_held_program", None)
    monkeypatch.setattr(quantum, "_held_trace", None)


def counted(monkeypatch, owner, name):
    """Count the calls of owner.name from now on, holding none of their arguments."""
    calls = []
    call = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(name)
        return call(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


def test_no_view_of_a_dealt_or_cached_array_can_be_made_writeable(shamir13):
    enc = qencode(shamir13, probe(5, {0: 1, 2: 1}))  # secrets {0, 2}: labels taken by fancy index
    uniform = qencode(shamir13, probe(5, dict.fromkeys(range(5), 1)))
    view = partial_trace(uniform.state, (0, 1))
    arrays = [
        shamir13._label_table,
        enc.state.labels,
        enc.state.values,
        qencode(shamir13, probe(5, {0: 1, 1: 1})).state.labels,
        partial_trace(enc.state, (0,)).index,
        *quantum._probe_pairs(7),
        condition.scheme_from_msp(shamir13).numerators,
        uniform.state.values,
        view.values,
        view.mat,
        apply_plan(uniform, build_reconstruction_plan(shamir13, mask(2, n=3))).values,
    ]
    for array in arrays:
        with pytest.raises(ValueError, match="WRITEABLE"):
            array.flags.writeable = True
    assert verify_classical(shamir13).passed


def test_a_held_label_check_never_skips_a_refusal(nothing_held, monkeypatch):
    checks = counted(monkeypatch, quantum, "_check_labels")
    labels = np.array([[0, 1], [2, 2], [1, 0]])
    values = np.full(3, 3**-0.5, dtype=complex)
    duplicated, out_of_range = labels.copy(), labels.copy()
    duplicated[2] = duplicated[0]
    out_of_range[1, 1] = 3
    for bad, message in ((duplicated, "^duplicate basis labels$"), (out_of_range, "out of range")):
        QuantumState((3, 3), labels.copy(), values)
        with pytest.raises(ValueError, match=message):
            QuantumState((3, 3), bad, values)
    # equal labels under other dims are checked again
    QuantumState((3, 3), labels.copy(), values)
    with pytest.raises(ValueError, match=r"^basis label \(2, 2\) out of range for dims \(2, 3\)$"):
        QuantumState((2, 3), labels.copy(), values)
    # a kept array whose writing is turned back on is checked again
    kept = labels.copy()
    assert QuantumState((3, 3), kept, values).labels is kept and not kept.flags.writeable
    kept.flags.writeable = True
    kept[2] = kept[0]
    with pytest.raises(ValueError, match="^duplicate basis labels$"):
        QuantumState((3, 3), kept, values)
    # a state built by a caller on a dealt state's arrays is checked too
    dealt = qencode(shamir_msp(3, 1, GF5), probe(5, {0: 1, 1: 1})).state
    assert QuantumState(dealt.dims, dealt.labels, dealt.values)._deal is None
    assert len(checks) == 9


def test_a_held_relabeling_serves_only_its_own_plan(nothing_held, orand):
    msp = shamir_msp(5, 2, Field(7))
    plans = [build_reconstruction_plan(msp, mask(*b, n=5)) for b in ((1,), (2, 4))]
    family = dict(probe_family(7, seed=1, n_random=2))
    # the uniform and random probes are encoded on one label array
    encoded = [qencode(msp, family[name]) for name in ("uniform", "random:0", "random:1")]
    assert all(np.array_equal(enc.state.labels, encoded[0].state.labels) for enc in encoded)
    for plan in plans + plans:
        for enc in encoded:
            after = apply_plan(enc, plan)
            assert after.amps == pytest.approx(ref_apply_plan(enc.state, plan))
            assert quantum._held_program[0] is plan
            # recovery deals the encoded state's own amplitude array
            assert after.values is enc.state.values
    # a returned state's labels cannot be written, so the held program's deals stay as dealt
    after = apply_plan(encoded[0], plans[0])
    with pytest.raises(ValueError, match="WRITEABLE"):
        after.labels.flags.writeable = True
    assert apply_plan(encoded[1], plans[0]).amps == pytest.approx(ref_apply_plan(encoded[1].state, plans[0]))
    # a held program does not get past the plan's MSP, even with the held plan's rows and U
    apply_plan(encoded[0], plans[0])
    foreign = dataclasses.replace(plans[0], msp=shamir_msp(5, 2, Field(11)))
    with pytest.raises(ValueError, match="different MSP"):
        apply_plan(encoded[0], foreign)
    with pytest.raises(ValueError, match="different MSP"):
        apply_plan(qencode(orand, probe(5, {0: 1, 1: 1})), plans[0])


def test_apply_plan_refuses_a_state_qencode_did_not_deal(shamir13):
    plan = build_reconstruction_plan(shamir13, mask(2, n=3))
    dealt = qencode(shamir13, probe(5, {0: 1, 1: 1}))
    # the dealt arrays, rebuilt by a caller: a state checked in full, but not dealt
    built = QuantumState(dealt.state.dims, dealt.state.labels, dealt.state.values)
    recovered = apply_plan(dealt, plan)
    other = qencode(shamir_msp(3, 1, Field(7)), probe(7, {0: 1}))
    for state in (built, recovered, other.state):
        with pytest.raises(ValueError, match="^encoded state was not dealt by qencode on its MSP$"):
            apply_plan(quantum.EncodedState(state, shamir13), plan)


@pytest.mark.parametrize("case, counts", [
    ("pure", (476, 0, 448, 16, 256, 28)),
    ("mixed", (104, 0, 78, 3, 48, 26)),
])
def test_each_run_of_equal_labels_is_checked_and_relabeled_once(nothing_held, monkeypatch, case, counts):
    if case == "pure":
        scheme = qss_pure(shamir_msp(5, 2, Field(7)))
    else:
        scheme = qss_mixed(compile_formula(parse_formula("or(and(1,3),and(2,3))"), GF5))
    states = counted(monkeypatch, QuantumState, "__post_init__")
    checks = counted(monkeypatch, quantum, "_check_labels")
    applied = counted(monkeypatch, quantum, "apply_plan")
    built = counted(monkeypatch, quantum, "_pair_chunks")
    norms = counted(monkeypatch, quantum, "_norm")
    programs = []
    build = quantum._program

    def program(plan):
        programs.append(weakref.ref(out := build(plan)))
        return out

    monkeypatch.setattr(quantum, "_program", program)
    assert scheme.verify_all(seed=2026).passed
    # dealt states run no label check, and only qencode checks a norm, once
    # per probe; one program per run of one plan
    assert (len(states), len(checks), len(applied), len(programs), len(built), len(norms)) == counts
    gc.collect()
    assert sum(ref() is not None for ref in programs) == 1
