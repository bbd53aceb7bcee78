"""The numpy fast paths of spanshare.quantum against their slow
dict-loop references (tests/reference_quantum.py), within 1e-12 per
entry, plus the coalition part of the simulation budget."""

import dataclasses
import itertools
import time
from pathlib import Path

import numpy as np
import pytest

from reference_quantum import (
    normalized,
    probe,
    ref_apply_plan,
    ref_partial_trace,
    ref_qencode,
    ref_trace_distance_within,
    state_of,
)
from conftest import msp_corpus
from spanshare import condition
from spanshare.classical import build_reconstruction_plan
from spanshare.cli import main
from spanshare.condition import lift_report, parse_scheme
from spanshare.galois import Field, Matrix
from spanshare.msp import compile_formula, dump_msp, extend_msp, msp_structure, shamir_msp
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
    """Probe vectors plus sparse ones whose secrets are not consecutive,
    so the encoder cannot take a single table slice."""
    family = list(probe_family(p, seed=3, n_random=2))
    family.append(("ends", probe(p, {p - 1: 0.6, 0: 0.8j})))
    family.append(("gapped", probe(p, {1: 1, 3: -2, 4: 1j})))
    return family


def random_sparse_state(rng, dims, fraction):
    labels = list(itertools.product(*(range(d) for d in dims)))
    chosen = rng.choice(len(labels), size=max(1, int(fraction * len(labels))), replace=False)
    raw = rng.standard_normal(len(chosen)) + 1j * rng.standard_normal(len(chosen))
    return state_of(dims, normalized({labels[i]: a for i, a in zip(chosen.tolist(), raw)}))


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


def test_every_corpus_plan_deals_through_its_program_as_the_reference_relabels():
    selfdual = [m for m in msp_corpus() if msp_structure(m).is_selfdual()]
    assert len(selfdual) >= 4
    for msp in selfdual:
        p = msp.field.p
        # a basis state, the uniform state, and secrets {0, 2}: not consecutive, so not a table slice
        probes = [probe(p, {1: 1}), probe(p, dict.fromkeys(range(p), 1)), probe(p, {0: 0.6, 2: 0.8j})]
        for plan in qss_pure(msp).plans.values():
            for alpha in probes:
                enc = qencode(msp, alpha)
                after = apply_plan(enc, plan)
                # the same labels in the same row order, with the same amplitudes
                assert list(after.amps.items()) == list(ref_apply_plan(enc.state, plan).items())


def test_a_singular_u_is_refused_when_the_plan_is_built():
    plan = build_reconstruction_plan(shamir_msp(5, 2, GF7), 0b00001)
    u = plan.u
    singular = Matrix(u.field, (u.data[1],) + u.data[1:], u.cols)
    with pytest.raises(ValueError, match="^reconstruction plan transformation is not invertible$"):
        dataclasses.replace(plan, u=singular)
    # nor a U of another size than the A rows it acts on
    with pytest.raises(ValueError, match="not invertible"):
        dataclasses.replace(plan, a_rows=plan.a_rows[1:])


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
    state = state_of(dims, normalized(amps))
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


# ---------------------------------------------------------------------------
# the label plan reused across partial traces of one deal


@pytest.fixture
def plan_builds(monkeypatch):
    """Start with no plan held; record every partial trace that builds one."""
    monkeypatch.setattr(quantum, "_held_trace", None)
    builds = []
    build = quantum._pair_chunks

    def counted(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(quantum, "_pair_chunks", counted)
    return builds


def cold_trace(state, keep):
    quantum._held_trace = None
    return partial_trace(state, keep)


def assert_same_bytes(rho, cold):
    assert rho.index.tobytes() == cold.index.tobytes()
    assert rho.values.tobytes() == cold.values.tobytes()


def test_reused_plans_match_cold_traces_bit_for_bit(plan_builds):
    # the recovery and secrecy views of three blocks of the pure Shamir sweep
    scheme = qss_pure(shamir_msp(5, 2, GF7))
    encoded = [qencode(scheme.msp, state) for _, state in probe_family(7, seed=3)]
    cases = []
    for b in (0b00001, 0b00011, 0b10100):
        for enc in encoded:
            recovered, coord = scheme.recover(b, enc)
            cases.append((recovered, (coord,)))
        cases += [(enc.state, scheme.msp.row_indices(b)) for enc in encoded]
    warm = [partial_trace(state, keep) for state, keep in cases]
    # the basis probes and the uniform one build; the random probes reuse its plan
    assert len(plan_builds) == 3 * 2 * 8
    for (state, keep), rho in zip(cases, warm):
        assert_same_bytes(rho, cold_trace(state, keep))


def test_lift_report_traces_all_probes_at_once_bit_for_bit(monkeypatch, plan_builds):
    sch = parse_scheme((Path(__file__).parent / "fixtures" / "counterexample.scheme").read_text())
    traced, reports = {}, {}
    for trace in (partial_trace, cold_trace):
        calls = traced[trace] = []

        def recorded(state, keep, trace=trace, calls=calls):
            calls.append((state, keep, trace(state, keep)))
            return calls[-1][2]

        monkeypatch.setattr(condition, "partial_trace", recorded)
        reports[trace] = lift_report(sch, 0b01, seed=5)
    assert reports[partial_trace] == reports[cold_trace]
    assert not reports[partial_trace].passed
    # one trace per report serves the 13 probes: the one state on the secret
    # register and the codes, traced to the register and U, each building its plan
    assert [len(calls) for calls in traced.values()] == [1, 1] and len(plan_builds) == 2
    (state, keep, rho), = traced[partial_trace]
    assert state.dims == tuple(sch._dims) and list(keep) == [0, 1] and rho.dims == tuple(sch._dims[:2])
    cold = traced[cold_trace][0][2]
    assert cold.index.tobytes() == rho.index.tobytes() and cold.values.tobytes() == rho.values.tobytes()


def lifted_states(sch, alpha):
    """One probe's lifted state on the table's share words, on all rows of
    the table, and on only the rows its amplitudes reach."""
    values = [np.array(v, dtype=np.int64) for v in sch.share_values]
    words = np.column_stack([v[c] for v, c in zip(values, sch.codes.T)])
    roots = np.array([(w / sch.denominator) ** 0.5 for w in sch.numerators.tolist()])
    amps = alpha[sch.secrets] * roots
    reached = alpha[sch.secrets] != 0
    return (QuantumState(sch.share_sizes, words, amps),
            QuantumState(sch.share_sizes, words[reached], amps[reached]))


@pytest.mark.parametrize("case", ["counterexample", "shamir"])
def test_full_row_traces_match_rows_reached_bit_for_bit(case):
    if case == "counterexample":
        fixture = Path(__file__).parent / "fixtures" / "counterexample.scheme"
        sch, splits = parse_scheme(fixture.read_text()), [0b01]
    else:
        sch = condition.scheme_from_msp(shamir_msp(5, 2, GF7))
        splits = [b for b in range(32) if bin(b).count("1") <= 2]
    family = probe_family(sch.secret_count, 0, n_random=10)
    zeros = 0
    for u in splits:
        keep = [i for i in range(sch.n) if u >> i & 1]
        for _, alpha in family[: sch.secret_count + 1]:  # the basis probes, then the uniform one
            full, reached = lifted_states(sch, alpha)
            zeros += len(full.labels) - len(reached.labels)
            rho = cold_trace(full, keep)
            assert rho.mat.tobytes() == cold_trace(reached, keep).mat.tobytes()
    assert zeros > 0


# ---------------------------------------------------------------------------
# the support check reused across the traces of one deal by a held plan


def test_an_equal_support_is_checked_once(plan_builds):
    # the full-support probes of one deal are traced by one plan, with one checked support
    msp = shamir_msp(5, 2, GF7)
    family = dict(probe_family(7, seed=2, n_random=2))
    rhos = [partial_trace(qencode(msp, family[name]).state, (0, 1)) for name in ("uniform", "random:0", "random:1")]
    assert len(plan_builds) == 1
    assert all(rho.index is rhos[0].index and rho._support is rhos[0]._support for rho in rhos)
    # a matrix built by a caller is checked afresh, also on the support just checked
    values = np.array([0.5, 0.1 + 0.2j, 0.1 - 0.2j, 0.5])
    first = quantum.DensityMatrix((2,), np.array([0, 1, 2, 3]), values)
    rho = quantum.DensityMatrix((2,), first.index, values[[0, 2, 1, 3]])
    assert rho._support is not first._support
    assert rho.mat.tobytes() == np.array([[0.5, 0.1 - 0.2j], [0.1 + 0.2j, 0.5]]).tobytes()


def test_bad_supports_of_the_same_length_are_refused_after_a_valid_one():
    block = np.array([0.5, 0.1 + 0.2j, 0.1 - 0.2j, 0.5])
    # the 2 x 2 block of a 3 x 3 matrix on coordinates 0 and 1
    cases = [
        ((3,), [0, 3, 1, 4], "unsorted"),  # the valid index, unsorted
        ((3,), [0, 1, 4, 5], "not symmetric"),  # (1, 2) without (2, 1)
        ((4,), [0, 1, 3, 4], "not symmetric"),  # the same index read over another dim
        ((3,), [0, 1, 3, 9], "out of range"),
    ]
    for dims, index, message in cases:
        quantum.DensityMatrix((3,), np.array([0, 1, 3, 4]), block)
        with pytest.raises(ValueError, match=message):
            quantum.DensityMatrix(dims, np.array(index), block)
    # a held support still checks every matrix's values
    quantum.DensityMatrix((3,), np.array([0, 1, 3, 4]), block)
    with pytest.raises(ValueError, match="Hermitian"):
        quantum.DensityMatrix((3,), np.array([0, 1, 3, 4]), np.array([0.5, 0.1 + 0.2j, 0.3, 0.5]))
    with pytest.raises(ValueError, match="trace"):
        quantum.DensityMatrix((3,), np.array([0, 1, 3, 4]), 2 * block)


def test_writing_to_a_writeable_base_cannot_serve_a_stale_support():
    base = np.array([0, 1, 3, 4])
    view = base[:]
    quantum.DensityMatrix((3,), view, np.array([0.5, 0.1 + 0.2j, 0.1 - 0.2j, 0.5]))
    assert base.flags.writeable and not view.flags.writeable
    # the block moves to coordinates 1 and 2: another transpose order and diagonal
    base[:] = [0, 4, 5, 7]
    values = np.array([0.5, 0.5, 0.1 + 0.2j, 0.1 - 0.2j])
    rho = quantum.DensityMatrix((3,), view, values)
    expected = np.zeros((3, 3), dtype=complex)
    expected[0, 0] = expected[1, 1] = 0.5
    expected[1, 2], expected[2, 1] = 0.1 + 0.2j, 0.1 - 0.2j
    assert rho.mat.tobytes() == expected.tobytes()
    base[:] = [0, 1, 4, 5]
    with pytest.raises(ValueError, match="not symmetric"):
        quantum.DensityMatrix((3,), view, values)


def test_equal_labels_under_other_dims_or_keep_build_their_own_plan(plan_builds):
    state = random_sparse_state(np.random.default_rng(9), (3, 3, 2, 5), 0.5)
    wider = QuantumState((4, 3, 2, 5), state.labels, state.values)
    # each case shares its labels with the one before but not its dims or keep
    cases = [(state, (0,)), (wider, (0,)), (wider, (1,)), (wider, (1, 3)), (state, (1, 3))]
    for s, keep in cases:
        rho = partial_trace(s, keep)
        assert_same_matrix(rho.mat, ref_partial_trace(s, keep))
        assert_same_bytes(rho, cold_trace(s, keep))
    assert len(plan_builds) == 2 * len(cases)


def test_writing_to_a_writeable_base_cannot_serve_a_stale_plan(plan_builds):
    state = random_sparse_state(np.random.default_rng(10), (3, 4, 2), 0.6)
    base = state.labels.copy()
    view = QuantumState(state.dims, base[:], state.values)
    assert base.flags.writeable and not view.labels.flags.writeable
    before = partial_trace(view, (0,))
    # swap two rows that differ on the kept coordinate: the view's labels
    # change in place, and it stays a valid state
    other = int(np.argmax(base[:, 0] != base[0, 0]))
    base[[0, other]] = base[[other, 0]]
    rho = partial_trace(view, (0,))
    # a state built by a caller is planned afresh and never held
    assert len(plan_builds) == 2 and quantum._held_trace is None
    assert rho.values.tobytes() != before.values.tobytes()
    assert_same_matrix(rho.mat, ref_partial_trace(view, (0,)))
    assert_same_bytes(rho, cold_trace(view, (0,)))


def test_a_plan_is_held_only_under_its_chunk_bound(monkeypatch, plan_builds):
    # a state built by a caller is not held even in one chunk
    caller = random_sparse_state(np.random.default_rng(8), (3, 4, 2, 5), 0.5)
    for _ in range(2):
        partial_trace(caller, ())
        assert quantum._held_trace is None
    # the uniform probe's 343 amplitudes, dealt by Shamir(5,2)
    state = qencode(shamir_msp(5, 2, GF7), dict(probe_family(7))["uniform"]).state
    whole = partial_trace(state, ())
    assert quantum._held_trace is not None
    partial_trace(state, ())
    assert len(plan_builds) == 3
    monkeypatch.setattr(quantum, "_PAIR_CHUNK", 7)
    for _ in range(2):
        # streamed in chunks each time, and the chunks are not held
        rho = partial_trace(state, ())
        assert quantum._held_trace is None
        assert rho.values.tobytes() == whole.values.tobytes()
    assert len(plan_builds) == 5


def assert_same_distance(rho1, rho2):
    fast = trace_distance_within(rho1, rho2)
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
        assert abs(trace_distance_within(r1, r2)[1] - exact) <= ATOL


def test_fast_paths_make_no_matvec_calls(monkeypatch):
    msp = shamir_msp(5, 2, GF7)
    plan = next(iter(qss_pure(msp).plans.values()))

    def forbidden(self, v):
        raise AssertionError("per-label matvec in a fast path")

    monkeypatch.setattr(Matrix, "matvec", forbidden)
    after = apply_plan(qencode(msp, np.full(7, 7**-0.5, dtype=complex)), plan)
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
        QuantumState((2,), np.array([[0.5]]), np.array([1.0], dtype=complex))


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


def test_partial_trace_at_and_past_the_reduction_guard(monkeypatch):
    def state(dim, flip):
        # two labels whose kept coordinates are the first and last of dim
        labels = np.array([[0, flip], [dim - 1, 1 - flip]], dtype=np.int64)
        return QuantumState((dim, 2), labels, np.array([0.6, 0.8], dtype=complex))

    # the kept coordinate spans exactly the guard's 4096 dimensions; both views are equal
    r1, r2 = (partial_trace(state(4096, flip), (0,)) for flip in (0, 1))
    assert r1.dim == 4096 and r1.index.tolist() == [0, 4096**2 - 1]
    assert np.allclose(r1.values, [0.36, 0.64], rtol=0, atol=ATOL)
    assert trace_distance_within(r1, r2) == (True, 0.0)
    monkeypatch.setattr(quantum, "_pair_chunks", lambda *args: pytest.fail("expanded"))
    with pytest.raises(ValueError, match=r"^reduced dimension 4097 exceeds the exact-simulation guard \(4096\)$"):
        partial_trace(state(4097, 0), (0,))


def test_cli_coalition_budget_refusal(tmp_path, capsys):
    path = tmp_path / "shamir73.msp"
    path.write_text(dump_msp(SHAMIR_7_3_GF17), encoding="utf-8")
    assert main(["qss", "verify-pure", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "4913" in err[0]
    assert not any("hint" in line for line in err)
