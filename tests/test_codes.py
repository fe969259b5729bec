"""Construction tests: parameters, commutation, published lengths and
weight-limited exhaustive distances for every family."""

import numpy as np
import pytest

from qdist import codes, estimator, gf2, pauli
from qdist.decoder import DecoderContext
from test_gf2 import rref_reference


def test_repetition_shapes_and_rank():
    cyc = codes.repetition(3, cyclic=True)
    assert cyc.dtype == np.uint8 and cyc.shape == (3, 3)
    rows = {tuple(r) for r in cyc}
    assert rows == {(1, 1, 0), (0, 1, 1), (1, 0, 1)}
    chain = codes.repetition(3, cyclic=False)
    assert chain.shape == (2, 3)
    assert {tuple(r) for r in chain} == {(1, 1, 0), (0, 1, 1)}
    for n in (2, 4, 7):
        assert gf2.rank(codes.repetition(n, True)) == n - 1
    with pytest.raises(ValueError):
        codes.repetition(1)


def test_surface_family_parameters():
    assert (codes.planar_surface(2).n, codes.planar_surface(2).k) == (5, 1)
    assert (codes.planar_surface(3).n, codes.planar_surface(3).k) == (13, 1)
    assert (codes.toric(2).n, codes.toric(2).k) == (8, 2)
    assert (codes.toric(3).n, codes.toric(3).k) == (18, 2)
    assert (codes.xzzx_surface(3).n, codes.xzzx_surface(3).k) == (13, 1)
    for family in (codes.planar_surface, codes.toric, codes.xzzx_surface):
        with pytest.raises(ValueError):
            family(1)


@pytest.mark.parametrize("family,L,expected", [
    (codes.planar_surface, 2, 2),
    (codes.planar_surface, 3, 3),
    (codes.toric, 2, 2),
    (codes.toric, 3, 3),
    (codes.xzzx_surface, 2, 2),
    (codes.xzzx_surface, 3, 3),
])
def test_surface_family_brute_distance(family, L, expected):
    result = estimator.brute_force_distance(family(L), expected + 1)
    assert result.found_distance == expected


def test_ztgre_parameters():
    for L in range(1, 8):
        code = codes.ztgre(L)
        assert code.n == 2**L
        assert code.k == 2 ** (L - 1)
        assert not code.hx.any()  # pure Z-type generators
    with pytest.raises(ValueError):
        codes.ztgre(0)


def test_ztgre_minimum_logical_x_weight_small():
    # Exhaustive: the X-distance equals the kernel distance of the Z checks.
    for L, expected in ((2, 2), (3, 4)):
        code = codes.ztgre(L)
        result = estimator.brute_force_distance(code, 1)
        # Full distance is 1 (bare Z on some qubit is logical).
        assert result.found_distance == 1
        # Minimum X-type logical: enumerate X supports exhaustively.
        n = code.n
        best = None
        for mask in range(1, 1 << n):
            ex = np.array([(mask >> i) & 1 for i in range(n)], np.uint8)
            if ((code.hz @ ex) % 2).any():
                continue
            w = int(ex.sum())
            best = w if best is None else min(best, w)
        assert best == expected


def test_hypergraph_product_reproduces_planar_parameters():
    for L in (2, 3, 4):
        rep = codes.repetition(L, cyclic=False)
        code = codes.hypergraph_product(rep, rep)
        assert code.n == L * L + (L - 1) * (L - 1)
        assert code.k == 1


def test_hypergraph_product_random_inputs_commute():
    rng = np.random.default_rng(41)
    for _ in range(25):
        h1 = rng.integers(0, 2, size=(rng.integers(1, 4), rng.integers(2, 5)), dtype=np.uint8)
        h2 = rng.integers(0, 2, size=(rng.integers(1, 4), rng.integers(2, 5)), dtype=np.uint8)
        code = codes.hypergraph_product(h1, h2)
        assert codes.validate(code) == []


def test_hypergraph_product_degenerate_block():
    h1 = np.array([[1, 1, 0], [0, 1, 1]], np.uint8)
    empty = np.zeros((0, 4), np.uint8)
    code = codes.hypergraph_product(h1, empty)
    assert code.n == 3 * 4 + 2 * 0
    assert codes.validate(code) == []


def test_kron_matches_np_kron():
    rng = np.random.default_rng(47)
    shapes = [(0, 0), (0, 3), (3, 0), (1, 1), (2, 5), (4, 3)]
    for sa in shapes:
        for sb in shapes:
            a = rng.integers(0, 2, sa, dtype=np.uint8)
            b = rng.integers(0, 2, sb, dtype=np.uint8)
            got, expected = codes._kron(a, b), np.kron(a, b)
            assert got.shape == expected.shape and got.dtype == expected.dtype
            assert np.array_equal(got, expected)
            # The products take transposed factors, which are not C-contiguous.
            assert np.array_equal(codes._kron(a.T, b), np.kron(a.T, b))


def test_xyz_product_random_inputs_commute():
    rng = np.random.default_rng(43)
    for _ in range(15):
        hs = [rng.integers(0, 2, size=(rng.integers(1, 3), rng.integers(2, 4)), dtype=np.uint8) for _ in range(3)]
        code = codes.xyz_product(*hs)
        assert codes.validate(code) == []
        (m1, n1), (m2, n2), (m3, n3) = (h.shape for h in hs)
        assert code.n == n1 * n2 * n3 + m1 * m2 * n3 + m1 * n2 * m3 + n1 * m2 * m3


@pytest.mark.parametrize("params,N", [
    ((2, 2, 2), 32),
    ((3, 3, 3), 108),
    ((4, 4, 4), 256),
    ((5, 5, 5), 500),
    ((2, 3, 4), 96),
    ((3, 4, 5), 240),
    ((4, 5, 6), 480),
])
def test_chamon_published_lengths(params, N):
    code = codes.chamon(*params)
    assert code.n == N == 4 * params[0] * params[1] * params[2]


def test_chamon_rejects_short_blocks():
    with pytest.raises(ValueError):
        codes.chamon(1, 2, 2)


SUITE = [
    lambda: codes.planar_surface(2),
    lambda: codes.planar_surface(3),
    lambda: codes.toric(2),
    lambda: codes.toric(3),
    lambda: codes.xzzx_surface(2),
    lambda: codes.xzzx_surface(3),
    lambda: codes.ztgre(2),
    lambda: codes.ztgre(4),
    lambda: codes.chamon(2, 2, 2),
    lambda: codes.chamon(2, 3, 4),
]


def _validate_reference(code):
    """validate's earlier definition: commutation by int64 matmuls, plus k
    re-derived by a second elimination and Hd rebuilt from Hx and Hz."""
    failures = []
    comm = (code.hx.astype(np.int64) @ code.hz.T + code.hz.astype(np.int64) @ code.hx.T) & 1
    bad = np.argwhere(comm)
    if bad.size:
        i, j = map(int, bad[0])
        failures.append(f"generators {i} and {j} anticommute")
    k = code.n - gf2.rank(code.generator_matrix())
    if k != code.k:
        failures.append(f"cached k={code.k} but rank gives k={k}")
    if not np.array_equal(code.hd, codes.decoupled_parity_check(code.hx, code.hz)):
        failures.append("cached decoupled matrix is stale")
    return failures


@pytest.mark.parametrize("make", SUITE + [lambda: codes.chamon(3, 3, 3)])
def test_every_constructor_validates(make):
    code = make()
    assert codes.validate(code) == _validate_reference(code) == []


def _random_generator_pairs(seed, count):
    """(hx, hz) pairs: uniformly random rows, which mostly anticommute, and
    commuting sets made non-CSS and dependent from a small code's generators
    by random row sums, qubit permutations and per-qubit Clifford maps (swap
    X and Z, or add X into Z), with one bit flipped in some of them."""
    rng = np.random.default_rng(seed)
    bases = [codes.toric(2), codes.planar_surface(2), codes.chamon(2, 2, 2), codes.ztgre(3)]
    for t in range(count):
        if t % 2 == 0:
            m, n = rng.integers(0, 7), rng.integers(1, 9)
            yield rng.integers(0, 2, (m, n), dtype=np.uint8), rng.integers(0, 2, (m, n), dtype=np.uint8)
            continue
        base = bases[rng.integers(len(bases))]
        mix = rng.integers(0, 2, (rng.integers(1, base.num_generators + 3), base.num_generators), dtype=np.uint8)
        hx = (mix.astype(np.int64) @ base.hx % 2).astype(np.uint8)
        hz = (mix.astype(np.int64) @ base.hz % 2).astype(np.uint8)
        perm = rng.permutation(base.n)
        hx, hz = hx[:, perm], hz[:, perm]
        swap = rng.integers(0, 2, base.n).astype(bool)
        hx[:, swap], hz[:, swap] = hz[:, swap], hx[:, swap]
        hz ^= hx * rng.integers(0, 2, base.n, dtype=np.uint8)
        if t % 4 == 1:
            hx[rng.integers(hx.shape[0]), rng.integers(base.n)] ^= 1
        yield hx, hz


def test_validate_matches_the_int64_reference_on_random_generators():
    outcomes = set()
    for hx, hz in _random_generator_pairs(2026, 400):
        code = codes.StabilizerCode("random", hx, hz)
        failures = codes.validate(code)
        assert failures == _validate_reference(code)
        outcomes.add((code.num_generators == 0, bool(failures)))
    assert outcomes == {(True, False), (False, False), (False, True)}


def test_validate_catches_corruption():
    code = codes.planar_surface(3)
    hx = code.hx.copy()
    hx[0, 0] ^= 1
    broken = codes.StabilizerCode("broken", hx, code.hz)
    failures = codes.validate(broken)
    assert any("anticommute" in f for f in failures)
    assert failures == _validate_reference(broken)


def test_css_code_rejects_anticommuting_blocks():
    # X on qubits 0, 1 against Z on qubits 1, 2: one shared qubit.
    with pytest.raises(ValueError, match="do not commute: generators 0 and 1 anticommute"):
        codes.css_code("bad", np.array([[1, 1, 0]], np.uint8), np.array([[0, 1, 1]], np.uint8))
    with pytest.raises(ValueError, match="same qubit count"):
        codes.css_code("bad", np.array([[1, 1, 0]], np.uint8), np.array([[1, 1]], np.uint8))
    assert codes.css_code("ok", np.array([[1, 1, 0]], np.uint8), np.array([[1, 1, 1]], np.uint8)).k == 1


def test_built_code_is_read_only():
    code = codes.chamon(2, 2, 2)
    for array in (code.hx, code.hz, code.hd, code.generator_matrix()):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] ^= 1
    ctx = DecoderContext.for_code(code)
    assert DecoderContext.for_code(code) is ctx
    assert DecoderContext.for_code(codes.chamon(2, 2, 2)) is not ctx


def test_decoupled_parity_check_blocks():
    hx = np.eye(2, dtype=np.uint8)
    hz = np.zeros_like(hx)
    hd = codes.decoupled_parity_check(hx, hz)
    assert np.array_equal(hd, np.hstack([hz, hx, hx]))
    m = np.array([[1, 0, 1], [0, 1, 1]], np.uint8)
    hd2 = codes.decoupled_parity_check(m, m)
    assert not hd2[:, 6:].any()  # XOR block vanishes when Hx == Hz


def test_logical_basis_pairing():
    for make in (lambda: codes.planar_surface(2), lambda: codes.toric(2), lambda: codes.ztgre(2)):
        code = make()
        logicals = codes.logical_basis(code)
        assert len(logicals) == 2 * code.k
        for idx, l in enumerate(logicals):
            # Commutes with every generator, outside the stabilizer span.
            assert code.syndrome(l).is_zero()
            assert not code.stabilizer_reducer().contains_batch(np.concatenate([l.ex, l.ez])[None, :])[0]
        for i in range(code.k):
            xi, zi = logicals[2 * i], logicals[2 * i + 1]
            assert not pauli.commutes(xi, zi)
            for j in range(code.k):
                if i == j:
                    continue
                xj, zj = logicals[2 * j], logicals[2 * j + 1]
                assert pauli.commutes(xi, xj) and pauli.commutes(xi, zj)
                assert pauli.commutes(zi, zj) and pauli.commutes(zi, xj)


def _greedy_quotient_basis(g, kernel):
    """Reference: keep each kernel vector that raises the rank of the
    generators plus the vectors kept so far, one rank call per vector."""
    reps, current, cur_rank = [], g, gf2.rank(g)
    for v in kernel:
        cand = np.vstack([current, v])
        if gf2.rank(cand) > cur_rank:
            reps.append(v)
            current, cur_rank = cand, cur_rank + 1
    return np.array(reps, dtype=np.uint8)


@pytest.mark.parametrize(
    "make",
    [lambda: codes.toric(3), lambda: codes.planar_surface(5), lambda: codes.chamon(3, 3, 3), lambda: codes.ztgre(7)],
)
def test_logical_basis_spans_the_greedy_quotient_basis(make):
    # The pairing only XORs the kept kernel vectors together, so the
    # logicals span exactly the kept set: the same span as the greedy loop's.
    code = make()
    reps = _greedy_quotient_basis(code.generator_matrix(), gf2.kernel_basis(np.hstack([code.hz, code.hx])))
    logicals = np.array([np.concatenate([l.ex, l.ez]) for l in codes.logical_basis(code)])
    assert len(reps) == len(logicals) == 2 * code.k
    assert gf2.rank(np.vstack([reps, logicals])) == 2 * code.k


def _logical_basis_reference(code):
    """Symplectic Gram-Schmidt one vector at a time: pop u, take the first
    vector it anticommutes with as its partner, then update every other
    vector w by <w, partner> u + <w, u> partner, one Python step per vector."""
    n = code.n
    g = code.generator_matrix()
    kernel = gf2.kernel_basis(np.hstack([code.hz, code.hx]))
    _, pivot_cols = gf2.row_reduce(np.vstack([g, kernel]).T)
    pool = [kernel[c - g.shape[0]] for c in pivot_cols if c >= g.shape[0]]

    def form(u, v):
        return int((np.dot(u[:n], v[n:]) + np.dot(u[n:], v[:n])) & 1)

    rows = []
    while pool:
        u = pool.pop(0)
        partner = pool.pop(next(i for i, w in enumerate(pool) if form(u, w)))
        pool = [(w ^ (form(w, partner) * u) ^ (form(w, u) * partner)) & 1 for w in pool]
        rows += [u, partner]
    return np.array(rows, dtype=np.uint8)


@pytest.mark.parametrize("family, params", [("toric", (3,)), ("chamon", (3, 3, 3)), ("ztgre", (7,))])
def test_logical_basis_matches_the_one_vector_reference(family, params):
    code = codes.make(family, params)
    got = np.array([np.concatenate([l.ex, l.ez]) for l in codes.logical_basis(code)])
    assert np.array_equal(got, _logical_basis_reference(code))


def test_logical_basis_weights_planar2():
    code = codes.planar_surface(2)
    for l in codes.logical_basis(code):
        assert pauli.weight(l) >= 2


def test_logical_basis_requires_logical_qubits():
    code = codes.css_code("two-qubit-k0", np.array([[1, 1]], np.uint8), np.array([[1, 1]], np.uint8))
    assert code.k == 0
    with pytest.raises(ValueError):
        codes.logical_basis(code)


def test_serialization_round_trip(tmp_path):
    code = codes.toric(2)
    path = tmp_path / "toric2.code"
    codes.save(code, path)
    loaded = codes.load(path)
    assert loaded.n == code.n and loaded.k == code.k
    assert np.array_equal(loaded.hx, code.hx)
    assert np.array_equal(loaded.hz, code.hz)


@pytest.mark.parametrize("name", ["", " toric2", "toric2 ", "toric\n2", "toric2\n", "toric\r2", "toric\u20282"])
def test_dumps_rejects_names_that_do_not_round_trip(name):
    code = codes.toric(2)
    with pytest.raises(ValueError, match="cannot be written"):
        codes.dumps(codes.StabilizerCode(name, code.hx, code.hz))


def test_dumps_keeps_inner_spaces_in_names():
    code = codes.toric(2)
    named = codes.StabilizerCode("toric 2 (test)", code.hx, code.hz)
    assert codes.loads(codes.dumps(named)).name == "toric 2 (test)"


def _dumps_reference(code):
    """The code file written one generator and one character at a time."""
    lines = [codes._FORMAT_HEADER, f"name {code.name}", f"n {code.n}", f"k {code.k}"]
    for x_row, z_row in zip(code.hx, code.hz):
        lines.append("".join("IXZY"[int(x) + 2 * int(z)] for x, z in zip(x_row, z_row)))
    return "\n".join(lines) + "\n"


# Every family at the acceptance gate's sizes, and the three stretch codes.
GATE_AND_STRETCH_CODES = (
    [(family, (L,)) for family in ("surface", "toric", "xzzx") for L in (3, 5, 7)]
    + [("ztgre", (L,)) for L in range(2, 8)]
    + [("chamon", p) for p in ((2, 2, 2), (3, 3, 3), (4, 4, 4), (2, 3, 4), (3, 4, 5))]
    + [("chamon", (5, 5, 5)), ("chamon", (4, 5, 6)), ("ztgre", (9,))]
)


@pytest.mark.parametrize("family, params", GATE_AND_STRETCH_CODES,
                         ids=[f"{f}_{'_'.join(map(str, p))}" for f, p in GATE_AND_STRETCH_CODES])
def test_dumps_matches_the_per_generator_reference_and_reads_back(family, params):
    code = codes.make(family, params)
    text = codes.dumps(code)
    assert text == _dumps_reference(code)
    loaded = codes.loads(text)
    assert loaded.name == code.name and loaded.k == code.k
    assert np.array_equal(loaded.hx, code.hx) and np.array_equal(loaded.hz, code.hz)


@pytest.mark.parametrize("family, params", GATE_AND_STRETCH_CODES,
                         ids=[f"{f}_{'_'.join(map(str, p))}" for f, p in GATE_AND_STRETCH_CODES])
def test_code_matches_np_kron_and_the_column_loop_reference(family, params, monkeypatch):
    # Chamon's and toric's generators are dependent, so their eliminations
    # meet rows that reduce to zero.
    code = codes.make(family, params)
    with monkeypatch.context() as m:
        m.setattr(codes, "_kron", np.kron)
        expected = codes.make(family, params)
    assert np.array_equal(code.hx, expected.hx) and np.array_equal(code.hz, expected.hz)
    reduced, pivots = rref_reference(code.generator_matrix())
    reducer = code.stabilizer_reducer()
    assert code.k == code.n - len(pivots) and reducer.pivot_cols == pivots
    assert np.array_equal(gf2._bit_rows(list(reducer._rows.values()), 2 * code.n), reduced[: len(pivots)])


@pytest.mark.parametrize("generator, message", [
    ("XXXXı", "'ı' at position 4"),  # dotless i, which upper-cases to I
    ("xxxxß", "'ß' at position 4"),  # sharp s, which upper-cases to SS
    ("XXQXX", "'Q' at position 2"),
], ids=["dotless_i", "sharp_s", "q"])
def test_loads_rejects_non_pauli_characters(generator, message):
    lines = codes.dumps(codes.planar_surface(2)).splitlines()
    assert len(lines[4]) == 5
    with pytest.raises(ValueError, match=message):
        codes.loads("\n".join(lines[:5] + [generator] + lines[6:]))
    assert codes.loads("\n".join(lines[:4] + [lines[4].lower()] + lines[5:])).k == 1


def test_serialization_rejects_corruption(tmp_path):
    code = codes.planar_surface(2)
    text = codes.dumps(code)
    lines = text.splitlines()
    # Declared k disagrees with what the generators give.
    assert lines[3] == "k 1"
    with pytest.raises(ValueError):
        codes.loads("\n".join(lines[:3] + ["k 0"] + lines[4:]))
    # A generator of the wrong length.
    with pytest.raises(ValueError):
        codes.loads("\n".join(lines[:4] + [lines[4] + "X"] + lines[5:]))
    # An anticommuting generator pair: single X and single Z on one qubit.
    bad = [codes._FORMAT_HEADER, "name bad", "n 2", "k 0", "XI", "ZI"]
    with pytest.raises(ValueError):
        codes.loads("\n".join(bad))
    with pytest.raises(ValueError):
        codes.loads("not a code file")


def test_make_registry():
    assert codes.make("toric", (2,)).n == 8
    with pytest.raises(ValueError):
        codes.make("nope", (2,))
    with pytest.raises(ValueError):
        codes.make("chamon", (2,))
