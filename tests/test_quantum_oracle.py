"""The numpy fast paths of spanshare.quantum against their slow
dict-loop references (tests/reference_quantum.py), within 1e-12 per
entry, plus the coalition part of the simulation budget."""

import itertools
import time

import numpy as np
import pytest

from reference_quantum import (
    ref_apply_plan,
    ref_partial_trace,
    ref_qencode,
    ref_trace_distance_within,
)
from spanshare.cli import main
from spanshare.galois import Field, Matrix
from spanshare.msp import compile_formula, dump_msp, extend_msp, shamir_msp
from spanshare import quantum
from spanshare.quantum import (
    AmplitudeBudgetError,
    QuantumState,
    _row_keys,
    apply_plan,
    partial_trace,
    probe_family,
    qencode,
    qss_mixed,
    qss_pure,
    trace_distance_within,
    verify_erasure,
)
from spanshare.structures import parse_formula

ATOL = 1e-12
GF5, GF7 = Field(5), Field(7)


def orand_extension():
    return extend_msp(compile_formula(parse_formula("or(and(1,3),and(2,3))"), GF5))


def assert_same_amps(fast, ref):
    assert list(fast) == list(ref)
    assert max(abs(fast[k] - ref[k]) for k in ref) <= ATOL


def assert_same_matrix(fast, ref):
    assert fast.shape == ref.shape
    assert np.max(np.abs(fast - ref), initial=0.0) <= ATOL


def inputs(p):
    """Probe states plus sparse ones whose secrets are out of order or
    not consecutive, so the encoder cannot take a single table slice."""
    family = probe_family(p, seed=3, n_random=2)
    family.append(("descending", QuantumState.from_amplitudes(
        (p,), {(p - 1,): 0.6, (0,): 0.8j})))
    family.append(("gapped", QuantumState.from_amplitudes(
        (p,), {(1,): 1, (3,): -2, (4,): 1j}, normalize=True)))
    return family


def random_sparse_state(rng, dims, fraction):
    labels = list(itertools.product(*(range(d) for d in dims)))
    chosen = rng.choice(len(labels), size=max(1, int(fraction * len(labels))), replace=False)
    raw = rng.standard_normal(len(chosen)) + 1j * rng.standard_normal(len(chosen))
    return QuantumState.from_amplitudes(
        dims, {labels[i]: a for i, a in zip(chosen.tolist(), raw)}, normalize=True
    )


@pytest.mark.parametrize("msp", [shamir_msp(5, 2, GF7), orand_extension()], ids=["shamir", "orand-ext"])
def test_qencode_matches_reference(msp):
    for _, state in inputs(msp.field.p):
        assert_same_amps(qencode(msp, state).state.amps, ref_qencode(msp, state))


@pytest.mark.parametrize("msp", [shamir_msp(5, 2, GF7), orand_extension()], ids=["shamir", "orand-ext"])
def test_every_plan_matches_reference(msp):
    scheme = qss_pure(msp)
    encoded = [qencode(msp, state) for _, state in inputs(msp.field.p)[-4:]]
    for plan in scheme.plans.values():
        for enc in encoded:
            after = apply_plan(enc, plan)
            assert_same_amps(after.amps, ref_apply_plan(enc.state, plan))
            keep = (plan.a_rows[0],)
            assert_same_matrix(partial_trace(after, keep).mat, ref_partial_trace(after, keep))


def test_partial_trace_matches_reference_on_every_keep():
    # sparse supports give traced-out groups of many different sizes
    rng = np.random.default_rng(2)
    for dims, fraction in [((3, 4, 2, 5), 0.3), ((2, 3, 2, 2, 3), 0.7), ((5, 5, 5), 0.05)]:
        state = random_sparse_state(rng, dims, fraction)
        for r in range(len(dims) + 1):
            for keep in itertools.combinations(range(len(dims)), r):
                assert_same_matrix(partial_trace(state, keep).mat, ref_partial_trace(state, keep))


def test_large_views_match_reference():
    # views that would take 4 MiB and more as dense matrices
    state = random_sparse_state(np.random.default_rng(4), (8, 8, 8, 2), 0.15)
    for keep in [(0, 1, 2), (0, 1, 2, 3), (1, 3)]:
        assert_same_matrix(partial_trace(state, keep).mat, ref_partial_trace(state, keep))


def test_partial_trace_of_encodings_matches_reference():
    msp = orand_extension()
    for _, state in inputs(5)[-3:]:
        enc = qencode(msp, state).state
        for keep in [(), (0, 1, 3, 4), (2,), tuple(range(msp.d))[:3]]:
            assert_same_matrix(partial_trace(enc, keep).mat, ref_partial_trace(enc, keep))


# Distinct traced-out labels whose row-major keys over (257,)*8 agree
# modulo 2**64, found by lattice reduction: uncompressed int64 keys
# would wrap and merge their groups.
WRAPPING_PAIR = ((0, 0, 56, 0, 56, 0, 8, 0), (249, 28, 0, 70, 0, 28, 0, 1))


def test_partial_trace_compresses_wide_keys():
    # 257**8 traced-out labels pass the 2**40 key bound
    rng = np.random.default_rng(5)
    dims = (257,) * 9
    rests = rng.integers(0, 257, size=(40, 9))
    amps = {(0,) + WRAPPING_PAIR[0]: 1.0, (1,) + WRAPPING_PAIR[1]: 1.0}
    for i, base in enumerate(rests.tolist()):
        for v in range(i % 4 + 1):
            amps[tuple([v * 61 % 257] + base[1:])] = complex(rng.standard_normal(), rng.standard_normal())
    state = QuantumState.from_amplitudes(dims, amps, normalize=True)
    for keep in [(), (0,), (4,)]:
        assert_same_matrix(partial_trace(state, keep).mat, ref_partial_trace(state, keep))
    labels = state.labels
    keys = _row_keys(labels, range(1, 9), dims).tolist()
    rows = [tuple(row[1:]) for row in labels.tolist()]
    assert all((keys[i] == keys[j]) == (rows[i] == rows[j])
               for i in range(len(rows)) for j in range(len(rows)))


def test_partial_trace_in_small_chunks(monkeypatch):
    # a bucket of equal-size groups is expanded a few groups at a time
    state = random_sparse_state(np.random.default_rng(8), (3, 4, 2, 5), 0.5)
    keeps = [(), (0,), (1, 3), (0, 1, 2)]
    whole = [partial_trace(state, keep) for keep in keeps]
    monkeypatch.setattr(quantum, "_PAIR_CHUNK", 7)
    # keep=() makes every row its own one-pair group, so chunks hold at
    # most 7 rows and the single entry takes terms from every chunk
    assert len(state.labels) > 2 * quantum._PAIR_CHUNK
    for keep, unchunked in zip(keeps, whole):
        rho = partial_trace(state, keep)
        assert_same_matrix(rho.mat, ref_partial_trace(state, keep))
        # merged chunk sums keep the single pass's summation order
        assert np.array_equal(rho.index, unchunked.index)
        assert rho.values.tobytes() == unchunked.values.tobytes()


def assert_same_distance(rho1, rho2):
    fast = trace_distance_within(rho1, rho2, quantum.SECRECY_TOL)
    ref = ref_trace_distance_within(rho1, rho2, quantum.SECRECY_TOL)
    assert fast[0] == ref[0] and abs(fast[1] - ref[1]) <= ATOL
    return fast[0]


def shamir_views(rows):
    msp = shamir_msp(5, 2, GF7)
    return [partial_trace(qencode(msp, state).state, rows) for _, state in inputs(7)]


def test_secrecy_views_with_equal_supports_match_reference():
    for b in (0b00001, 0b00011, 0b10100):
        views = shamir_views(shamir_msp(5, 2, GF7).row_indices(b))
        assert all(np.array_equal(v.index, views[0].index) for v in views)
        assert all(assert_same_distance(r1, r2) for r1, r2 in itertools.combinations(views, 2))


def test_views_with_different_supports_match_reference():
    basis = shamir_views((0, 1, 2))[:7]
    assert not any(np.array_equal(r1.index, r2.index) for r1, r2 in itertools.combinations(basis, 2))
    assert not any(assert_same_distance(r1, r2) for r1, r2 in itertools.combinations(basis, 2))


def test_leaking_pairs_on_equal_supports_take_the_exact_path():
    views = shamir_views((0, 2, 4))[7:]
    pairs = [(r1, r2) for r1, r2 in itertools.combinations(views, 2) if np.array_equal(r1.index, r2.index)]
    assert len(pairs) >= 3
    for r1, r2 in pairs:
        assert not assert_same_distance(r1, r2)
        # the Frobenius bound did not certify, so the value is the exact distance
        exact = 0.5 * np.abs(np.linalg.eigvalsh(r1.mat - r2.mat)).sum()
        assert abs(trace_distance_within(r1, r2, quantum.SECRECY_TOL)[1] - exact) <= ATOL


def test_fast_paths_make_no_matvec_calls(monkeypatch):
    msp = shamir_msp(5, 2, GF7)
    plan = next(iter(qss_pure(msp).plans.values()))

    def forbidden(self, v):
        raise AssertionError("per-label matvec in a fast path")

    monkeypatch.setattr(Matrix, "matvec", forbidden)
    after = apply_plan(qencode(msp, QuantumState.uniform(7)), plan)
    partial_trace(after, (plan.a_rows[0],))


def test_array_built_states_keep_every_check():
    labels = np.array([[0, 1], [0, 1]], dtype=np.int64)
    with pytest.raises(ValueError, match="duplicate"):
        QuantumState((2, 2), labels, np.array([0.6, 0.8], dtype=complex))
    with pytest.raises(ValueError, match="range"):
        QuantumState((2, 2), np.array([[0, 2]]), np.array([1.0], dtype=complex))
    with pytest.raises(ValueError, match="norm"):
        QuantumState((2, 2), np.array([[0, 1]]), np.array([0.5], dtype=complex))
    with pytest.raises(ValueError, match="int"):
        QuantumState.from_amplitudes((2,), {(0.5,): 1.0})


SHAMIR_7_3_GF17 = shamir_msp(7, 3, Field(17))


def test_coalition_budget_refuses_fast():
    # three Shamir(7,3) shares over GF(17) span 17**3 = 4913 > 4096 dimensions
    start = time.perf_counter()
    with pytest.raises(AmplitudeBudgetError, match="reduced dimension 4913"):
        verify_erasure(SHAMIR_7_3_GF17, 0b111)
    assert time.perf_counter() - start < 1.0
    with pytest.raises(AmplitudeBudgetError, match="reduced dimension"):
        qss_pure(SHAMIR_7_3_GF17)
    # or-and coalition {1,2} holds 4 rows of the extension: 17**4 dimensions
    with pytest.raises(AmplitudeBudgetError, match=r"coalition \{1,2\}"):
        qss_mixed(compile_formula(parse_formula("or(and(1,3),and(2,3))"), Field(17)))


def test_cli_coalition_budget_refusal(tmp_path, capsys):
    path = tmp_path / "shamir73.msp"
    path.write_text(dump_msp(SHAMIR_7_3_GF17), encoding="utf-8")
    assert main(["qss", "verify-pure", str(path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "4913" in err[0]
    assert not any("hint" in line for line in err)
