"""Channel representations, validation against the Choi oracle, dilation, JSON specs."""
import tracemalloc

import numpy as np
import pytest

from randual.channels import (
    KRAUS_TOL_SCALE,
    UNITARY_ATOL,
    KrausChannel,
    PartialTrace,
    UnitaryChannel,
    apply_channel,
    channel_from_dict,
    channel_to_dict,
    dilation_dim,
    kraus_operators,
    load_channel,
    save_channel,
    stinespring_dilate,
    validate_channel,
)
from randual.dual import dual_ensemble, duality_pairing, exact_dual
from randual.linalg import hs_norm, kron
from randual.otoc import OtocSpec
from randual.rng import haar_unitary

from helpers import (
    ChoiMatrix,
    all_test_channels,
    amplitude_damping,
    choi_matrix,
    complete_dilation,
    depolarizing,
    kraus_from_choi,
    partial_trace,
    random_density_matrix,
    random_hermitian,
    random_kraus_channel,
    random_unitary_channel,
)


def apply_bruteforce(ops, rho):
    # operator-sum definition, plain loop
    return sum(m @ rho @ m.conj().T for m in ops)


def test_identity_channel():
    ch = UnitaryChannel(np.eye(4, dtype=complex), d_b=4)
    rng = np.random.default_rng(1)
    rho = random_density_matrix(rng, 4)
    assert np.allclose(apply_channel(ch, rho), rho, atol=1e-13)
    assert validate_channel(ch).kraus_rank == 1
    # Choi of the identity is the maximally entangled projector
    sig = choi_matrix(ch).matrix
    assert np.isclose(np.trace(sig @ sig).real, 1.0, atol=1e-12)


def test_depolarizing_fixed_point():
    # at p = 3/4 every input collapses to the maximally mixed state
    ch = depolarizing(0.75)
    rng = np.random.default_rng(2)
    rho = random_density_matrix(rng, 2)
    assert np.allclose(apply_channel(ch, rho), np.eye(2) / 2, atol=1e-12)
    assert validate_channel(ch).kraus_rank == 4


def test_apply_matches_bruteforce_all_kinds():
    rng = np.random.default_rng(3)
    for ch in all_test_channels():
        rho = random_density_matrix(rng, ch.d_a)
        want = apply_bruteforce(kraus_operators(ch), rho)
        assert np.allclose(apply_channel(ch, rho), want, atol=1e-12)


def test_unitary_kraus_operators_are_isometric_blocks():
    rng = np.random.default_rng(4)
    ch = random_unitary_channel(8, 2, rng)
    ops = kraus_operators(ch)
    assert ops.shape == (ch.d_c, ch.d_b, ch.d_a)
    total = np.einsum("kmi,kmj->ij", ops.conj(), ops)
    assert np.allclose(total, np.eye(8), atol=1e-12)
    # M_c = (I (x) <c|) U row slice
    for c in range(ch.d_c):
        want = ch.unitary.reshape(ch.d_b, ch.d_c, ch.d_a)[:, c, :]
        assert np.allclose(ops[c], want, atol=1e-15)


def test_choi_invariants_all_kinds():
    for ch in all_test_channels():
        sig = choi_matrix(ch)
        m = sig.matrix
        assert np.allclose(m, m.conj().T, atol=1e-12)
        assert np.isclose(np.trace(m).real, 1.0, atol=1e-12)
        assert np.linalg.eigvalsh(m)[0] > -1e-12
        # tracing out the output leaves the maximally mixed input copy
        red = partial_trace(m, (ch.d_a, ch.d_b), [0])
        assert np.allclose(red, np.eye(ch.d_a) / ch.d_a, atol=1e-12)


def test_choi_pairing_equals_direct_evaluation():
    rng = np.random.default_rng(5)
    for ch in all_test_channels():
        rho = exact_dual(ch)
        for _ in range(3):
            a = random_hermitian(rng, ch.d_a)
            b = random_hermitian(rng, ch.d_b)
            want = np.trace(apply_channel(ch, a) @ b).real
            assert np.isclose(duality_pairing(rho, a, b), want, atol=1e-10)


def test_choi_pairing_identity_pair():
    ch = depolarizing(0.2)
    eye2 = np.eye(2, dtype=complex)
    # trace preservation: tr[X(I)] = d_a
    assert np.isclose(duality_pairing(exact_dual(ch), eye2, eye2), 2.0, atol=1e-12)


def test_kraus_from_choi_roundtrip():
    for ch in all_test_channels():
        back = kraus_from_choi(choi_matrix(ch))
        assert np.allclose(
            choi_matrix(back).matrix, choi_matrix(ch).matrix, atol=1e-10
        )
        # extracted operators reproduce the action
        rng = np.random.default_rng(6)
        rho = random_density_matrix(rng, ch.d_a)
        assert np.allclose(apply_channel(back, rho), apply_channel(ch, rho), atol=1e-10)


def test_kraus_from_choi_rejects_nonpositive():
    ch = depolarizing(0.3)
    m = choi_matrix(ch).matrix.copy()
    v = np.zeros(4)
    v[0] = 1.0
    m = m - 0.3 * np.outer(v, v)  # push one eigenvalue negative, keep Hermitian
    with pytest.raises(ValueError):
        kraus_from_choi(ChoiMatrix(m, 2, 2))


def test_kraus_rank_counts_choi_eigenvalues():
    assert validate_channel(depolarizing(0.5)).kraus_rank == 4
    assert validate_channel(amplitude_damping(0.3)).kraus_rank == 2
    assert validate_channel(amplitude_damping(0.0)).kraus_rank == 1


def test_stinespring_amplitude_damping():
    ch = amplitude_damping(0.35)
    dil = complete_dilation(ch)
    # two Kraus terms on a qubit: ancilla of dimension 2 suffices
    assert dil.d_u == 4 and dil.ancilla_dim == 2 and dil.d_c == 2
    u = dil.unitary
    assert np.allclose(u.conj().T @ u, np.eye(4), atol=1e-12)
    # constructed columns: U(|j> (x) |0>) = sum_k (M_k|j>) (x) |k>
    ops = ch.operators
    for j in range(2):
        col = u[:, 2 * j]
        # output layout (d_b, env): kron of the two vectors matches it directly
        want = sum(np.kron(ops[k] @ np.eye(2)[:, j], np.eye(2)[:, k]) for k in range(2))
        assert np.allclose(col, want, atol=1e-12)
    rng = np.random.default_rng(7)
    rho = random_density_matrix(rng, 2)
    assert np.allclose(apply_channel(dil, rho), apply_channel(ch, rho), atol=1e-12)


def test_stinespring_pads_ancilla_for_layout():
    # d_a = 3, d_b = 2, r = 3: nu = 3 leaves d_a nu odd, so padding to 4
    rng = np.random.default_rng(8)
    ch = random_kraus_channel(rng, 3, 2, 3)
    dil = complete_dilation(ch)
    assert dil.ancilla_dim == 4 and dil.d_u == 12 and dil.d_c == 6
    u = dil.unitary
    assert np.allclose(u.conj().T @ u, np.eye(12), atol=1e-11)
    rho = random_density_matrix(rng, 3)
    assert np.allclose(apply_channel(dil, rho), apply_channel(ch, rho), atol=1e-11)
    # the minimal isometry needs no padding: d_b * r = 6, the completion's 12
    assert dilation_dim(ch) == 6 and dilation_dim(dil) == 12


def test_stinespring_of_unitary_is_trivial():
    # a unitary-induced channel's isometry is its unitary, read as (d_b, d_c, d_a)
    rng = np.random.default_rng(9)
    ch = random_unitary_channel(4, 2, rng)
    v = stinespring_dilate(ch)
    assert v.shape == (2, 2, 4) and v.flags.c_contiguous
    assert v.tobytes() == ch.unitary.tobytes()
    assert dilation_dim(ch) == 4
    assert complete_dilation(ch) is ch


def test_stinespring_isometry_of_every_kind():
    # V = the stack transposed (d_e = r), the ancilla-0 columns (d_e = d_c),
    # None for a partial trace; V^dag V = I and tr_e[V rho V^dag] is the channel
    rng = np.random.default_rng(17)
    u = haar_unitary(32, rng)
    kraus, dilated = random_kraus_channel(rng, 8, 4, 3), UnitaryChannel(u, d_a=16, d_b=4)
    v = stinespring_dilate(kraus)
    assert v.shape == (4, 3, 8) and v.flags.c_contiguous
    assert np.array_equal(v, kraus.operators.transpose(1, 0, 2)) and dilation_dim(kraus) == 12
    w = stinespring_dilate(dilated)
    assert w.shape == (4, 8, 16) and w.flags.c_contiguous
    assert np.array_equal(w, u.reshape(4, 8, 16, 2)[..., 0]) and dilation_dim(dilated) == 32
    assert stinespring_dilate(PartialTrace(8, 2)) is None and dilation_dim(PartialTrace(8, 2)) == 8
    for ch, iso in ((kraus, v), (dilated, w)):
        flat = iso.reshape(-1, ch.d_a)
        assert np.abs(flat.conj().T @ flat - np.eye(ch.d_a)).max() <= 1e-12
        rho = random_density_matrix(rng, ch.d_a)
        out = np.einsum("rei,ij,sej->rs", iso, rho, iso.conj())
        assert np.abs(out - apply_channel(ch, rho)).max() <= 1e-13


def test_validate_channel_flags_broken_tp():
    ch = depolarizing(0.3)
    bad = KrausChannel(ch.operators * 1.01)
    diag = validate_channel(bad)
    assert not diag.is_valid
    # sum M^dag M = 1.0201 I, so the residual is 0.0201 sqrt(d_a)
    assert np.isclose(diag.tp_residual, 0.0201 * np.sqrt(2), atol=1e-6)
    good = validate_channel(ch)
    assert good.is_valid and good.kind == "kraus"
    assert good.unitarity_residual is None
    assert good.kraus_rank == 4
    assert np.isclose(good.choi_trace, 1.0, atol=1e-12)


def test_validate_channel_unitary_kinds():
    rng = np.random.default_rng(10)
    ch = random_unitary_channel(6, 2, rng)
    diag = validate_channel(ch)
    assert diag.is_valid and diag.kind == "unitary_induced"
    assert diag.unitarity_residual < 1e-12
    dil = complete_dilation(depolarizing(0.4))
    ddiag = validate_channel(dil)
    assert ddiag.is_valid and ddiag.kind == "dilated"
    assert ddiag.unitarity_residual < 1e-12


def _oracle_cases():
    rng = np.random.default_rng(11)
    names = ["unitary-8/2", "unitary-6/3", "depolarizing", "amplitude-damping", "kraus-3/2-r3", "dilated-depolarizing"]
    return {
        **dict(zip(names, all_test_channels())),
        "kraus-8/4-r3": random_kraus_channel(rng, 8, 4, 3),  # r < d_a * d_b = 32
        "kraus-4/2-r8": random_kraus_channel(rng, 4, 2, 8),  # r = d_a * d_b
        "kraus-2/2-r6": random_kraus_channel(rng, 2, 2, 6),  # r > d_a * d_b = 4
        "unitary-64/2": random_unitary_channel(64, 2, rng),
        "dilated-16/4": UnitaryChannel(haar_unitary(32, rng), d_a=16, d_b=4),
        "broken-tp": KrausChannel(depolarizing(0.3).operators * 1.01),
    }


@pytest.mark.parametrize("name", list(_oracle_cases()))
def test_validation_matches_choi_oracle(name):
    ch = _oracle_cases()[name]
    diag = validate_channel(ch)
    sig = choi_matrix(ch).matrix
    w = np.linalg.eigvalsh(sig)
    assert diag.choi_spectrum.shape == w.shape
    assert np.abs(diag.choi_spectrum - w).max() <= 1e-14
    assert diag.kraus_rank == int(np.sum(w > KRAUS_TOL_SCALE * ch.d_a))
    assert abs(diag.choi_trace - np.trace(sig).real) <= 1e-14
    # tracing out the output leaves (sum_k M_k^dag M_k)^t / d_a
    tp = hs_norm(ch.d_a * partial_trace(sig, (ch.d_a, ch.d_b), [0]) - np.eye(ch.d_a))
    assert abs(diag.tp_residual - tp) <= 1e-12
    unitary = getattr(ch, "unitary", None)
    unitary_ok = unitary is None or hs_norm(unitary.conj().T @ unitary - np.eye(len(unitary))) <= UNITARY_ATOL
    assert diag.is_valid == (tp <= UNITARY_ATOL and w[0] >= -UNITARY_ATOL and unitary_ok)
    assert diag.is_valid == (name != "broken-tp")


def test_validation_never_forms_the_choi_matrix():
    # 64 -> 16 with r = 16: the Choi matrix would be 1024 x 1024 complex, 16 MiB
    ch = random_kraus_channel(np.random.default_rng(12), 64, 16, 16)
    tracemalloc.start()
    try:
        diag = validate_channel(ch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert diag.is_valid and diag.kraus_rank == 16
    assert peak < 2 * 2**20


def test_channel_dict_roundtrip_all_kinds():
    for ch in all_test_channels():
        spec = channel_to_dict(ch)
        back = channel_from_dict(spec)
        assert type(back) is type(ch)
        assert back.d_a == ch.d_a and back.d_b == ch.d_b
        if isinstance(ch, KrausChannel):
            assert np.array_equal(back.operators, ch.operators)
        else:
            assert np.array_equal(back.unitary, ch.unitary)


def test_channel_file_roundtrip(tmp_path):
    ch = amplitude_damping(0.25)
    path = tmp_path / "ad.json"
    save_channel(ch, str(path))
    back = load_channel(str(path))
    assert np.array_equal(back.operators, ch.operators)


def test_channel_from_dict_rejects_malformed():
    good = channel_to_dict(depolarizing(0.1))
    for breakage in (
        {**good, "kind": "mystery"},
        {**good, "matrices": []},
        {**good, "d_a": 3},
        {**good, "matrices": [[[0.0], [1.0]]]},
        {k: v for k, v in good.items() if k != "kind"},
        # dimensions are JSON integers: int() would accept each of these
        {**good, "d_a": 2.0},
        {**good, "d_b": 2.9},
        {**good, "d_a": "2"},
        {**good, "d_b": True, "matrices": [[[[1.0, 0.0], [0.0, 0.0]]], [[[0.0, 0.0], [1.0, 0.0]]]]},
        # entries are JSON numbers: complex() would read true and false as 1 and 0
        {"kind": "unitary_induced", "d_a": 2, "d_b": 1,
         "matrices": [[[[True, False], [0.0, 0.0]], [[0.0, 0.0], [True, False]]]]},
    ):
        with pytest.raises(ValueError):
            channel_from_dict(breakage)


def test_constructor_shape_checks():
    with pytest.raises(ValueError):
        KrausChannel(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        UnitaryChannel(np.eye(6), d_b=4)
    with pytest.raises(ValueError):
        UnitaryChannel(np.eye(6), d_a=4, d_b=2)


@pytest.mark.parametrize("shape", [(1, 1, 0), (1, 0, 1), (2, 0, 0)])
def test_kraus_channel_rejects_empty_dimensions(shape):
    # as a UnitaryChannel does: an empty operator has no Choi spectrum to validate
    with pytest.raises(ValueError, match="must be at least 1"):
        KrausChannel(np.zeros(shape))
    # one 1 x 0 operator is the one empty stack a JSON spec can carry
    with pytest.raises(ValueError, match="must be at least 1"):
        channel_from_dict({"kind": "kraus", "d_a": 0, "d_b": 1, "matrices": [[[]]]})


def test_partial_trace_repr_forms_no_identity():
    # the dataclass repr would read .unitary, a 2^12-square identity of 256 MiB
    ch = PartialTrace(2**12, 2)
    tracemalloc.start()
    try:
        text = repr(ch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == "PartialTrace(d_a=4096, d_b=2)"
    assert peak < 2**16


def test_channels_ensembles_and_specs_compare_by_identity():
    # the generated == compared array fields (ValueError) and left them unhashable
    unitary = UnitaryChannel(haar_unitary(4, 1), d_b=2)

    def build():
        return [
            KrausChannel(np.eye(2)[np.newaxis]),
            UnitaryChannel(unitary.unitary, d_b=2),
            PartialTrace(4, 2),
            dual_ensemble(unitary, 3, 0),
            OtocSpec(unitary, np.eye(4), np.diag([1.0, 0.0])),
        ]

    objects, twins = build(), build()
    for obj, twin in zip(objects, twins):
        assert obj == obj and obj != twin
    keys = {obj: k for k, obj in enumerate(objects + twins)}
    assert [keys[obj] for obj in objects + twins] == list(range(10))


def test_partial_trace_comparison_forms_no_identity():
    # the generated == read .unitary on both sides: two 2^12-square identities
    a, b = PartialTrace(2**12, 2), PartialTrace(2**12, 2)
    tracemalloc.start()
    try:
        equal = a == b
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not equal
    assert peak < 2**16


@pytest.mark.parametrize("d_a, d_b, r", [(3, 2, 3), (12, 3, 5), (32, 8, 4), (2, 2, 6)])
def test_stinespring_columns_are_the_kraus_stack_and_its_complement_bitwise(d_a, d_b, r):
    # the completion oracle: its ancilla-0 columns hold operator k in
    # environment slot k and zeros in the padded slots (3 -> 2 r=3 and
    # 12 -> 3 r=5 pad the ancilla)
    ch = random_kraus_channel(np.random.default_rng(53), d_a, d_b, r)
    dil = complete_dilation(ch)
    want = np.zeros((dil.d_c, d_b, d_a), dtype=complex)
    want[:r] = ch.operators
    assert kraus_operators(dil).tobytes() == want.tobytes()
    # every other column, in index order, is the QR completion of those
    nu = dil.ancilla_dim
    q = np.linalg.qr(dil.unitary[:, 0::nu], mode="complete")[0]
    rest = [c for c in range(dil.d_u) if c % nu != 0]
    assert dil.unitary[:, rest].tobytes() == q[:, d_a:].tobytes()


@pytest.mark.parametrize("d_a, d_b, r", [(3, 2, 3), (12, 3, 5), (32, 8, 4), (2, 2, 6)])
def test_minimal_isometry_padded_is_the_completions_kept_columns_bitwise(d_a, d_b, r):
    # V, zero-padded from r to the completion's environment, is its ancilla-0
    # columns bit for bit: the completion only adds what no row reads
    ch = random_kraus_channel(np.random.default_rng(53), d_a, d_b, r)
    dil = complete_dilation(ch)
    v = stinespring_dilate(ch)
    assert v.shape == (d_b, r, d_a) and dil.d_c >= r
    padded = np.zeros((d_b, dil.d_c, d_a), dtype=complex)
    padded[:, :r] = v
    kept = dil.unitary.reshape(d_b, dil.d_c, d_a, dil.ancilla_dim)[..., 0]
    assert padded.tobytes() == np.ascontiguousarray(kept).tobytes()


def test_dilated_channel_ancilla_must_start_in_reference():
    # the dilated action uses |0><0| on the ancilla: check against explicit
    # construction with a swap that moves population out of |0>
    ch = amplitude_damping(0.5)
    dil = complete_dilation(ch)
    rng = np.random.default_rng(11)
    rho = random_density_matrix(rng, 2)
    anc = np.zeros((2, 2), dtype=complex)
    anc[0, 0] = 1.0
    big = kron(rho, anc)
    evolved = dil.unitary @ big @ dil.unitary.conj().T
    want = partial_trace(evolved, (2, 2), [0])
    assert np.allclose(apply_channel(dil, rho), want, atol=1e-12)
