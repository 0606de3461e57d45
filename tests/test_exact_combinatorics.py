"""Linear-time exact combinatorics against independent oracles.

The face-local expansion of ``na_ma_model_metric`` and ``stratum_class`` is
checked against the full multilinear expansion over every twisted divisor
(kept here as the oracle, reading a table with explicit off-face zeros),
Bareiss elimination against cofactor expansion, Parlett-Reid against the
first-row Pfaffian expansion, the sorted 1D cells of
``TargetMeasure.from_density`` and ``ma_measure`` against ``dual_cell_1d``,
and ``cycle_table``'s on-face entries against the full N^2 + N + 1 table.
"""

import hashlib
import itertools
import json
import shutil
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nama import (AtomicMeasure, ConvexPL, CycleComparison, Divisor,
                  IntersectionTable, Interval, TargetMeasure, build_model,
                  cycle_model, cycle_table, determinant, discrete_slope_jumps,
                  gradient_cells, ma_measure, model_function,
                  na_ma_model_metric, pfaffian, solve, stratum_class,
                  vilsmeier_check_1d)
from nama import potential, realma
from nama.cli import main
from nama.config import build_model_from_config, build_table_from_config
from nama.realma import _cell_ends_1d
from oracles import dual_cell_1d

F = Fraction
EXACT = settings(max_examples=60)


# ---------------------------------------------------------------------------
# oracles: the expansions before they became face-local


def multi_indices(ids, max_total):
    """All multi-indices over ``ids`` with total degree <= max_total."""
    if not ids:
        yield {}
        return
    head, rest = ids[0], ids[1:]
    for k in range(max_total + 1):
        for tail in multi_indices(rest, max_total - k):
            out = dict(tail)
            if k:
                out[head] = k
            yield out


def multinomial(n, ks):
    out = math.factorial(n) // math.factorial(n - sum(ks))
    for k in ks:
        out //= math.factorial(k)
    return out


def full_expansion_masses(model, table, coefficients):
    """Masses b_i (L'^n . E_i), expanded over every twisted divisor."""
    n = model.dimension
    c = {i: F(v) for i, v in coefficients.items() if v != 0}
    ids = tuple(sorted(c))
    masses = {}
    for d in model.divisors:
        acc = F(0)
        for k in multi_indices(ids, n):
            term = F(multinomial(n, list(k.values())))
            for j, kj in k.items():
                term *= c[j] ** kj
            acc += term * table.value(n - sum(k.values()), k, (d.id,))
        masses[d.id] = d.multiplicity * acc
    return masses


def full_expansion_pairing(model, table, gradients, J):
    """(class^{n-p} . E_J) over every divisor meeting E_J."""
    relevant = set(J) | {d.id for d in model.divisors
                         if model.has_face(J + (d.id,))}
    power = model.dimension - (len(J) - 1)
    coeffs = {i: -F(gradients[i]) for i in relevant}
    total = F(0)
    for k in multi_indices(tuple(sorted(relevant)), power):
        term = F(multinomial(power, list(k.values())))
        for j, kj in k.items():
            term *= coeffs[j] ** kj
        total += term * table.value(power - sum(k.values()), k, J)
    return total


# ---------------------------------------------------------------------------
# random snc complexes with on-face tables


@st.composite
def snc_models(draw):
    n = draw(st.sampled_from((1, 2)))
    N = draw(st.integers(2, 7))
    pairs = list(itertools.combinations(range(N), 2))
    if n == 1:
        edges = draw(st.lists(st.sampled_from(pairs), unique=True))
        tops = []
    else:
        triples = list(itertools.combinations(range(N), 3))
        tops = draw(st.lists(st.sampled_from(triples), unique=True,
                             max_size=4)) if triples else []
        edges = draw(st.lists(st.sampled_from(pairs), unique=True,
                              max_size=4))
        edges = sorted(set(edges) | {e for t in tops
                                     for e in itertools.combinations(t, 2)})
    faces = [(i,) for i in range(N)] + list(edges) + list(tops)
    mults = draw(st.lists(st.integers(1, 3), min_size=N, max_size=N))
    model = build_model([Divisor(i, b) for i, b in enumerate(mults)],
                        faces, dimension=n)
    return model


def rationals():
    return st.fractions(min_value=-4, max_value=4, max_denominator=6)


def on_face_keys(model):
    """Every (a, powers, stratum) the table of ``model`` may hold nonzero:
    strata are faces and powers stay on faces containing them."""
    n = model.dimension
    ids = [d.id for d in model.divisors]
    for f in model.faces:
        J = f.index_set
        power = n - f.dim
        for k in multi_indices(tuple(ids), power):
            if model.has_face(set(J) | set(k)):
                yield (power - sum(k.values()), k, J)


def full_keys(model):
    n = model.dimension
    ids = tuple(d.id for d in model.divisors)
    for f in model.faces:
        power = n - f.dim
        for k in multi_indices(ids, power):
            yield (power - sum(k.values()), k, f.index_set)


@given(data=st.data())
@EXACT
def test_face_local_masses_equal_the_full_expansion(data):
    model = data.draw(snc_models())
    ids = [d.id for d in model.divisors]
    sparse = IntersectionTable(model.dimension)
    full = IntersectionTable(model.dimension)
    for a, k, J in on_face_keys(model):
        value = data.draw(rationals())
        sparse.add(a, k, J, value)
        full.add(a, k, J, value)
    for a, k, J in full_keys(model):
        if not full.has(a, k, J):
            full.add(a, k, J, 0)
    coeffs = {i: data.draw(st.sampled_from((0, F(1, 2), F(-3), F(5, 3))))
              for i in ids}
    expected = full_expansion_masses(model, full, coeffs)
    total = sum(expected.values())
    sparse.add(model.dimension, {}, (), total)
    measure = na_ma_model_metric(model, sparse, coeffs)
    assert dict(zip(measure.support, measure.masses)) == expected
    assert all(isinstance(m, Fraction) for m in measure.masses)

    face = data.draw(st.sampled_from(model.faces))
    J = face.index_set
    grads = {i: data.draw(rationals()) for i in ids}
    got = stratum_class(model, sparse, grads, J).pairing
    assert got == full_expansion_pairing(model, full, grads, J)


@given(data=st.data())
@settings(max_examples=60, derandomize=True)
def test_stratum_class_is_invariant_under_the_gauge_shift(data):
    # t -> t + d, gradients -> gradients + d for one d per divisor, with
    # the base twist given on some divisors only (the rest twist by 0)
    model = data.draw(snc_models())
    ids = [d.id for d in model.divisors]
    table = IntersectionTable(model.dimension)
    for a, k, J in on_face_keys(model):
        table.add(a, k, J, data.draw(rationals()))
    J = data.draw(st.sampled_from(model.faces)).index_set
    grads = {i: data.draw(rationals()) for i in ids}
    twist = {i: data.draw(rationals()) for i in ids
             if data.draw(st.booleans())}
    d = {i: data.draw(rationals()) for i in ids}
    base = stratum_class(model, table, grads, J, base_twist=twist)
    shifted = stratum_class(model, table,
                            {i: g + d[i] for i, g in grads.items()}, J,
                            base_twist={i: twist.get(i, 0) + d[i]
                                        for i in ids})
    assert shifted.cls == base.cls
    assert shifted.pairing == base.pairing


def chain(N):
    """A chain of N rational curves: E_i^2 = -(number of neighbours)."""
    model = build_model([Divisor(i) for i in range(N)],
                        [(i,) for i in range(N)]
                        + [(i, i + 1) for i in range(N - 1)],
                        dimension=1, semistable=True)
    degrees = [1 + i % 5 for i in range(N)]
    entries = [(1, {}, (), sum(degrees))]
    for i in range(N):
        entries.append((1, {}, (i,), degrees[i]))
        near = [j for j in (i - 1, i + 1) if 0 <= j < N]
        entries.append((0, {i: 1}, (i,), -len(near)))
        entries += [(0, {j: 1}, (i,), 1) for j in near]
    coeffs = {i: F(1 + i % 7, 3) for i in range(N)}
    masses = [degrees[i] - len([j for j in (i - 1, i + 1) if 0 <= j < N])
              * coeffs[i] + sum(coeffs[j] for j in (i - 1, i + 1)
                                if 0 <= j < N)
              for i in range(N)]
    return model, entries, coeffs, masses


def test_chain_of_1100_components_on_face_entries_only(tmp_path):
    model, entries, coeffs, masses = chain(1100)
    table = IntersectionTable(1, entries)
    measure = na_ma_model_metric(model, table, coeffs)
    assert list(measure.masses) == masses
    assert measure.total() == table.top_self_intersection()

    doc = {"n": 1, "semistable": True,
           "divisors": [{"id": d.id} for d in model.divisors],
           "faces": [list(f.index_set) for f in model.faces],
           "intersection_table": [
               {"L_power": a, "divisor_powers": {str(j): k
                                                 for j, k in p.items()},
                "stratum": list(J), "value": str(v)}
               for a, p, J, v in entries],
           "coefficients": {str(i): str(c) for i, c in coeffs.items()}}
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(doc))
    assert main(["namma", str(path), "--out", str(tmp_path / "out")]) == 0
    rows = (tmp_path / "out" / "namma.csv").read_text().splitlines()[1:]
    got = {int(r.split(",")[0]): F(r.split(",")[2]) for r in rows}
    assert got == dict(enumerate(masses))


def segment():
    return build_model([Divisor(0), Divisor(1), Divisor(2)],
                       [(0,), (1,), (2,), (0, 1), (1, 2)], dimension=1)


def segment_entries():
    return [(1, {}, (), 3), (1, {}, (0,), 1), (1, {}, (1,), 1),
            (1, {}, (2,), 1), (0, {0: 1}, (0,), -1), (0, {1: 1}, (0,), 1),
            (0, {0: 1}, (1,), 1), (0, {1: 1}, (1,), -2), (0, {2: 1}, (1,), 1),
            (0, {1: 1}, (2,), 1), (0, {2: 1}, (2,), -1)]


def test_off_face_entries_are_structural_zeros_and_nonzero_ones_rejected():
    model = segment()
    coeffs = {0: F(1, 2), 1: 0, 2: F(1, 3)}
    base = na_ma_model_metric(model, IntersectionTable(
        1, segment_entries()), coeffs)
    zeros = IntersectionTable(1, segment_entries() + [
        (0, {2: 1}, (0,), 0), (0, {0: 1}, (2,), 0)])
    assert na_ma_model_metric(model, zeros, coeffs) == base
    bad = IntersectionTable(1, segment_entries() + [(0, {2: 1}, (0,), 1)])
    with pytest.raises(ValueError, match=r"\(0, 2\) is not a face"):
        na_ma_model_metric(model, bad, coeffs)
    with pytest.raises(ValueError, match="not a face"):
        bad.check_faces(model)
    bad.check_faces(model, [(1,), (2,)])     # only stratum (0,) is bad
    with pytest.raises(ValueError, match="not a face"):
        stratum_class(model, bad, {0: 0, 1: 0}, (0,))
    with pytest.raises(ValueError, match=r"divisors \[7\]"):
        na_ma_model_metric(model, zeros, {**coeffs, 7: 1})


def test_table_value_calls_grow_linearly_with_the_cycle(count_calls):
    calls = count_calls(IntersectionTable, "value")
    counts = []
    for N in (40, 80):
        degrees = [1 + i % 3 for i in range(N)]
        coeffs = {i: F(i % 5 - 2, 3) for i in range(N)}
        table = cycle_table(degrees)
        calls.clear()
        na_ma_model_metric(cycle_model(degrees), table, coeffs)
        counts.append(len(calls))
        # per vertex (L . E_i) and one (E_j . E_i) per twisted j in
        # {i - 1, i, i + 1}; the one more read is the stored (L)
        monomials = sum(1 + sum(coeffs[j % N] != 0 for j in (i - 1, i, i + 1))
                        for i in range(N))
        assert len(calls) == monomials + 1 > 1
    assert counts[1] <= 2.2 * counts[0]


def test_check_relations_reads_off_face_entries_as_zeros():
    model, entries, _, _ = chain(6)
    on_face = IntersectionTable(1, entries)
    zeros = IntersectionTable(1, entries + [
        (0, {j: 1}, (i,), 0) for i in range(6) for j in range(6)
        if abs(i - j) > 1])
    assert on_face.check_relations(model) == (6, [], 0)
    assert zeros.check_relations(model) == (6, [], 0)


@given(data=st.data())
@EXACT
def test_check_relations_agree_with_and_without_off_face_zeros(data):
    model = data.draw(snc_models())
    sparse = IntersectionTable(model.dimension)
    full = IntersectionTable(model.dimension)
    for a, k, J in on_face_keys(model):
        value = data.draw(st.sampled_from((0, 1, -1, F(1, 2))))
        sparse.add(a, k, J, value)
        full.add(a, k, J, value)
    for a, k, J in full_keys(model):
        if not full.has(a, k, J):
            full.add(a, k, J, 0)
    checked, violations, unchecked = sparse.check_relations(model)
    assert unchecked == 0
    expected = full.check_relations(model)
    assert (checked, sorted(violations)) == (expected[0],
                                             sorted(expected[1]))


def test_check_relations_visits_only_neighbours(count_calls):
    calls = count_calls(IntersectionTable, "has")
    counts = []
    for N in (40, 80):
        degrees = [1 + i % 3 for i in range(N)]
        calls.clear()
        checked, _, _ = cycle_table(degrees).check_relations(
            cycle_model(degrees))
        assert checked == N
        counts.append(len(calls))
    assert counts[1] <= 2.2 * counts[0]


def test_cycle_table_stores_only_on_face_entries():
    table = cycle_table([1, 2, 3, 4])
    assert len(table) == 4 * 4 + 1
    assert not table.has(0, {2: 1}, (0,))
    assert table.value(0, {1: 1}, (0,)) == 1
    assert table.value(0, {0: 1}, (0,)) == -2
    with pytest.raises(ValueError, match="conflicting"):
        table.add(0, {1: 1}, (0,), 0)


def test_cycle_table_grows_linearly():
    assert len(cycle_table([1] * 10_000)) == 4 * 10_000 + 1


def full_cycle_config(degrees, coeffs):
    """A cycle as a model config whose table spells out all N^2 + N + 1
    entries, the structural zeros included."""
    N = len(degrees)
    table = [{"L_power": 1, "stratum": [], "value": str(sum(degrees))}]
    for i in range(N):
        table.append({"L_power": 1, "stratum": [i],
                      "value": str(degrees[i])})
        for j in range(N):
            pairing = -2 if i == j else \
                1 if j in ((i + 1) % N, (i - 1) % N) else 0
            table.append({"L_power": 0, "divisor_powers": {str(j): 1},
                          "stratum": [i], "value": str(pairing)})
    return {"n": 1, "semistable": True,
            "divisors": [{"id": i, "degrees": str(d)}
                         for i, d in enumerate(degrees)],
            "faces": [[i] for i in range(N)]
            + [sorted((i, (i + 1) % N)) for i in range(N)],
            "intersection_table": table,
            "coefficients": {str(i): str(c) for i, c in enumerate(coeffs)}}


@pytest.mark.parametrize("seed", range(6))
def test_cycle_table_agrees_with_the_full_table(tmp_path, seed):
    rng = np.random.default_rng(seed)
    N = int(rng.integers(3, 13))
    degrees = [F(int(p), int(q)) for p, q in zip(rng.integers(1, 8, N),
                                                 rng.integers(1, 3, N))]
    coeffs = [F(int(p), int(q)) for p, q in zip(rng.integers(-5, 6, N),
                                                rng.integers(1, 5, N))]
    doc = full_cycle_config(degrees, coeffs)
    full = build_table_from_config(doc["intersection_table"], 1)
    table = cycle_table(degrees)
    assert (len(full), len(table)) == (N * N + N + 1, 4 * N + 1)
    full_model = build_model_from_config(doc)
    model = cycle_model(degrees)
    c = dict(enumerate(coeffs))
    assert na_ma_model_metric(model, table, c) \
        == na_ma_model_metric(full_model, full, c)
    assert vilsmeier_check_1d(model, table, c) \
        == vilsmeier_check_1d(full_model, full, c)
    assert table.check_relations(model) == full.check_relations(full_model) \
        == (N, [], 0)

    written = []
    for name, config in (("full", doc), ("cycle", {"cycle": {
            "degrees": [str(d) for d in degrees],
            "coefficients": [str(x) for x in coeffs]}})):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(config))
        out = tmp_path / name
        assert main(["namma", str(path), "--out", str(out)]) == 0
        written.append((out / "namma.csv").read_bytes())
    assert written[0] == written[1]


def sixty_cycle(seed):
    """Degrees and coefficients of a 60-cycle drawn as perfbench's
    exact-cycles round draws its ``nama namma`` config."""
    rng = np.random.default_rng(seed)
    degrees = [int(d) for d in rng.integers(1, 8, 60)]
    coeffs = [F(int(p), int(q)) for p, q in zip(rng.integers(-20, 21, 60),
                                                rng.integers(1, 5, 60))]
    return degrees, coeffs


def test_table_parses_canonicalize_no_key_a_second_time(count_calls):
    calls = count_calls(potential, "_table_key")
    degrees, coeffs = sixty_cycle(1)
    doc = full_cycle_config(degrees, coeffs)
    full = build_table_from_config(doc["intersection_table"], 1)
    assert len(full) == 60 * 60 + 60 + 1 and calls == []
    assert len(cycle_table(degrees)) == 4 * 60 + 1 and calls == []
    full.add(0, {1: 1}, (0,), 1)    # the counter sees add's canonicalization
    assert len(calls) == 1


def test_the_manifest_names_the_config_by_path_and_digest(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(full_cycle_config(*sixty_cycle(2))))
    out = tmp_path / "out"
    argv = ["namma", str(path), "--out", str(out)]

    def run():
        assert main(argv) == 0
        return {p.name: p.read_bytes() for p in out.iterdir()}

    first = run()
    manifest = json.loads(first["manifest.json"])
    assert len(first["manifest.json"]) < 2048
    assert manifest["options"]["config"] == str(path)
    assert manifest["options"]["config_sha256"] \
        == hashlib.sha256(path.read_bytes()).hexdigest()
    assert run() == first       # into the used directory
    shutil.rmtree(out)
    assert run() == first
    # one byte more changes the digest and nothing else
    path.write_bytes(path.read_bytes() + b"\n")
    changed = run()
    digest = json.loads(changed["manifest.json"])["options"]["config_sha256"]
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest != manifest["options"]["config_sha256"]
    assert changed["namma.csv"] == first["namma.csv"]


# ---------------------------------------------------------------------------
# Bareiss against cofactor expansion


def cofactor_det(rows):
    k = len(rows)
    if k == 0:
        return F(1)
    if k == 1:
        return rows[0][0]
    return sum((-1) ** j * rows[0][j]
               * cofactor_det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j in range(k))


@st.composite
def rational_matrices(draw):
    k = draw(st.integers(0, 7))
    entry = st.one_of(st.just(F(0)), st.integers(-3, 3).map(F),
                      st.fractions(min_value=-5, max_value=5,
                                   max_denominator=7))
    rows = [[draw(entry) for _ in range(k)] for _ in range(k)]
    shape = draw(st.sampled_from(("random", "singular", "zero-pivot")))
    if shape == "singular" and k >= 2:
        a, b = draw(st.permutations(range(k)))[:2]
        scale = draw(st.integers(-2, 2))
        rows[b] = [scale * v for v in rows[a]]
    elif shape == "zero-pivot" and k >= 2:
        rows[0][0] = F(0)
        rows[1][0] = rows[1][1] = F(0)
    return rows


@given(rational_matrices())
@settings(max_examples=80)
def test_bareiss_equals_cofactor_expansion(rows):
    got = determinant(rows)
    assert got == cofactor_det(rows)
    assert isinstance(got, (int, Fraction))


def test_bareiss_on_integer_and_float_entries():
    ints = [[0, 2, 1], [0, 5, 3], [4, 1, 7]]
    assert determinant(ints) == cofactor_det(ints) == 4
    rng = np.random.default_rng(3)
    floats = rng.normal(size=(6, 6)).tolist()
    assert determinant(floats) == pytest.approx(np.linalg.det(floats),
                                                rel=1e-9)
    floats[2] = floats[4]
    assert determinant(floats) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Parlett-Reid against first-row expansion


def recursive_pfaffian(m):
    k = m.shape[0]
    if k % 2:
        return 0.0
    if k == 0:
        return 1.0
    total = 0.0
    for j in range(1, k):
        keep = [i for i in range(k) if i not in (0, j)]
        total += (-1.0) ** (j - 1) * m[0, j] \
            * recursive_pfaffian(m[np.ix_(keep, keep)])
    return total


@pytest.mark.parametrize("k", range(0, 9))
def test_parlett_reid_equals_the_recursive_pfaffian(k):
    rng = np.random.default_rng(k)
    for trial in range(5):
        a = rng.integers(-4, 5, size=(k, k)).astype(float)
        if trial == 2:
            a = rng.normal(size=(k, k))
        m = np.triu(a, 1) - np.triu(a, 1).T
        if trial == 1 and k >= 3:
            m[0, 1] = m[1, 0] = 0.0         # zero pivot: a swap is needed
        want = recursive_pfaffian(m)
        assert pfaffian(m) == pytest.approx(want, rel=1e-9, abs=1e-9)
        if k % 2:
            assert pfaffian(m) == 0.0


def test_parlett_reid_of_a_singular_matrix_is_zero():
    m = np.zeros((4, 4))
    m[0, 1], m[1, 0] = 2.0, -2.0            # rank 2: Pf = 0
    assert pfaffian(m) == 0.0
    assert pfaffian(np.zeros((0, 0))) == 1.0


# ---------------------------------------------------------------------------
# sorted 1D Voronoi cells against dual_cell_1d


@given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=12),
                min_size=1, max_size=25, unique=True),
       st.sampled_from((F(1), F(5, 3), 0.75, 2.0)))
@EXACT
def test_1d_from_density_equals_the_dual_cell_oracle(xs, density):
    dom = Interval(F(-3), F(3))
    nodes = [(x,) for x in xs]                 # unsorted
    target = TargetMeasure.from_density(dom, nodes, density)
    half = F(1, 2) if isinstance(density, Fraction) else 0.5
    values = [half * (x * x) for x in xs]
    want = {(x,): density * dual_cell_1d(i, nodes, values,
                                         box=(dom.lo, dom.hi)).volume
            for i, x in enumerate(xs)}
    assert target.masses == want
    assert list(target.masses) == nodes
    assert [type(m) for m in target.masses.values()] \
        == [type(m) for m in want.values()]
    if isinstance(density, Fraction):
        assert target.total() == density * dom.volume()


def test_1d_from_density_with_float_nodes_and_repeated_nodes():
    dom = Interval(0.0, 1.0)
    xs = [0.7, 0.1, 0.35, 1.0, 0.0]
    nodes = [(x,) for x in xs]
    values = [0.5 * (x * x) for x in xs]
    target = TargetMeasure.from_density(dom, nodes, 2.0)
    assert target.masses == {
        nd: 2.0 * dual_cell_1d(i, nodes, values, box=(0.0, 1.0)).volume
        for i, nd in enumerate(nodes)}
    with pytest.raises(ValueError, match=r"^node \(0\.5\) is given twice$"):
        TargetMeasure.from_density(dom, [(0.5,), (0.2,), (0.5,)], 1.0)
    with pytest.raises(ValueError, match=r"^node \(1/2\) is given twice$"):
        TargetMeasure.from_density(Interval(0, 1),
                                   [(F(1, 2),), (F(1, 2),)], 1)


@st.composite
def lifted_interval_nodes(draw):
    """Nodes on [-3, 3] (unsorted, endpoints included) under a convex PL
    function of up to three pieces, some lifted above it: the nodes left
    on it lie exactly on the envelope, many on one piece."""
    inner = draw(st.lists(st.fractions(min_value=-3, max_value=3,
                                       max_denominator=12),
                          max_size=25, unique=True))
    xs = [x for x in inner if abs(x) != 3] + [F(-3), F(3)]
    xs = draw(st.permutations(xs))
    small = st.fractions(min_value=-2, max_value=2, max_denominator=4)
    pieces = draw(st.lists(st.tuples(small, small), min_size=1,
                           max_size=3))
    lifts = draw(st.lists(st.sampled_from((0, 0, F(1, 8), F(3, 2))),
                          min_size=len(xs), max_size=len(xs)))
    values = [max(a * x + b for a, b in pieces) + lift
              for x, lift in zip(xs, lifts)]
    return [(x,) for x in xs], values


def dual_cell_measure(cpl):
    """Masses and on-envelope flags of ``ma_measure``, cell by cell from
    :func:`dual_cell_1d`; domain endpoints sit on the envelope."""
    zero = F(0) if cpl.is_rational else 0.0
    masses, on_env = [], []
    for i, inside in enumerate(cpl.interior_mask()):
        cell = dual_cell_1d(i, cpl.nodes, cpl.values)
        masses.append(cell.volume if inside and not cell.empty else zero)
        on_env.append(not inside or not cell.empty)
    return masses, on_env


@given(lifted_interval_nodes())
@EXACT
def test_1d_ma_measure_equals_the_dual_cell_oracle(data):
    nodes, values = data
    cpl = ConvexPL(Interval(-3, 3), nodes, values)
    measure = ma_measure(cpl)
    masses, on_env = dual_cell_measure(cpl)
    assert measure.masses == tuple(masses)
    assert list(map(type, measure.masses)) == list(map(type, masses))
    assert measure.on_envelope == tuple(on_env)

    flat = ConvexPL(Interval(-3.0, 3.0), [(float(x),) for x, in nodes],
                    [float(v) for v in values])
    masses, _ = dual_cell_measure(flat)
    for got, want in zip(ma_measure(flat).masses, masses):
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def extreme_points(cpl, i):
    """The nodes left and right of node i whose slopes to it are the ends
    of its cell: the largest on the left, the smallest on the right."""
    (x,), v = cpl.nodes[i], cpl.values[i]
    sides = ([], [])
    for j, ((y,), w) in enumerate(zip(cpl.nodes, cpl.values)):
        if j != i:
            sides[x < y].append(((v - w) / (x - y), j))
    return ([j for s, j in sides[0] if s == max(sides[0])[0]],
            [j for s, j in sides[1] if s == min(sides[1])[0]])


def clip_intervals():
    """Boxes (lo, hi) of ints and Fractions that cut, miss and hold cells."""
    end = st.one_of(st.integers(-4, 4),
                    st.fractions(min_value=-4, max_value=4, max_denominator=4))
    return st.lists(end, min_size=2, max_size=2, unique=True).map(
        lambda ends: tuple(sorted(ends)))


@given(lifted_interval_nodes(), clip_intervals())
@EXACT
def test_1d_gradient_cells_equal_the_dual_cell_oracle(data, box):
    nodes, values = data
    cpl = ConvexPL(Interval(-3, 3), nodes, values)
    cells = gradient_cells(cpl, box)
    for i, got in enumerate(cells):
        want = dual_cell_1d(i, cpl.nodes, cpl.values, box=box)
        fields = [(c.dim, c.vertices, c.volume, c.touches_box, c.empty)
                  for c in (got, want)]
        assert fields[0] == fields[1]
        assert type(got.volume) is type(want.volume)
        assert [type(x) for x, in got.vertices] \
            == [type(x) for x, in want.vertices]
        # several nodes may attain an end: the oracle names the first, the
        # chain the farthest
        left, right = extreme_points(cpl, i)
        assert len(got.edges) == len(want.edges)
        assert all(w == 1.0 for w in got.edges.values())
        assert set(got.edges) <= set(left) | set(right)
        if len(left) <= 1 and len(right) <= 1:
            assert got.edges == want.edges
    assert sum(c.volume for c in cells) == box[1] - box[0]

    flat = ConvexPL(Interval(-3.0, 3.0), [(float(x),) for x, in nodes],
                    [float(v) for v in values])
    fbox = tuple(map(float, box))
    for i, got in enumerate(gradient_cells(flat, fbox)):
        want = dual_cell_1d(i, flat.nodes, flat.values, box=fbox)
        assert abs(got.volume - want.volume) \
            <= 1e-12 * max(1.0, abs(want.volume))
        if got.vertices and want.vertices:
            for (a,), (b,) in zip(got.vertices, want.vertices):
                assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


def test_1d_cells_evaluate_a_linear_number_of_slopes(monkeypatch):
    # x^2 on 20,001 nodes with every odd node lifted above the envelope:
    # each sweep pops at every odd node
    evaluations = []

    class Counting(realma._Slopes1D):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            evaluations.append(len(self.steps))
            slope = self.slope
            self.slope = lambda i, j: evaluations.append(1) or slope(i, j)

    monkeypatch.setattr(realma, "_Slopes1D", Counting)
    n = 20_000
    nodes = [(F(k, n),) for k in range(n + 1)]
    values = [x * x + F(k % 2, n) for k, (x,) in enumerate(nodes)]
    cells = gradient_cells(ConvexPL(Interval(0, 1), nodes, values), (-3, 3))
    assert sum(c.volume for c in cells) == 6
    assert [c.empty for c in cells[1:-1]] == [k % 2 == 1
                                              for k in range(1, n)]
    assert n <= sum(evaluations) <= 4 * n


def test_dual_cell_1d_is_the_slope_interval():
    # kink of size 1/2 at x = 1/2 for the function with values 0, -1/8, 0
    points = [(F(0),), (F(1, 2),), (F(1),)]
    values = [F(0), F(-1, 8), F(0)]
    cell = dual_cell_1d(1, points, values)
    assert cell.volume == F(1, 2)
    assert cell.vertices == [(F(-1, 4),), (F(1, 4),)]
    assert not cell.touches_box
    assert cell.edges == {0: 1.0, 2: 1.0}


def test_dual_cell_1d_of_a_lifted_node_is_empty():
    points = [(F(0),), (F(1, 2),), (F(1),)]
    values = [F(0), F(1), F(0)]       # middle node strictly above the chord
    cell = dual_cell_1d(1, points, values)
    assert cell.empty and cell.volume == 0


# ---------------------------------------------------------------------------
# the exact paths on ints against the Fraction loops they replaced

BIG = 10 ** 100


def big_rationals():
    """Small, mixed and 100-digit denominators."""
    return st.one_of(
        rationals(),
        st.builds(F, st.integers(-4 * BIG, 4 * BIG), st.integers(BIG, 2 * BIG)))


def fraction_model_metric(model, table, coefficients):
    """The Fraction loop of ``na_ma_model_metric``: face-local monomials
    as dicts, one Fraction operation per step."""
    n = model.dimension
    table.check_faces(model)
    c = {i: F(v) for i, v in coefficients.items() if F(v) != 0}
    support, masses = [], []
    for d in model.divisors:
        ids = sorted(j for j in model.neighbours[d.id] + (d.id,) if j in c)
        acc = F(0)
        for r in range(n + 1):
            for combo in itertools.combinations_with_replacement(ids, r):
                on = {d.id}.union(combo)
                if on != {d.id} and not model.has_face(on):
                    continue
                k = {}
                for j in combo:
                    k[j] = k.get(j, 0) + 1
                term = F(multinomial(n, list(k.values())))
                for j, kj in k.items():
                    term *= c[j] ** kj
                acc += term * table.value(n - r, k, (d.id,))
        support.append(d.id)
        masses.append(d.multiplicity * acc)
    return AtomicMeasure(tuple(support), tuple(masses),
                         expected_total=table.top_self_intersection())


def fraction_slope_jumps(xs, values):
    """The Fraction loop of ``discrete_slope_jumps``."""
    xs, values = list(map(F, xs)), list(map(F, values))
    return [(values[i + 1] - values[i]) / (xs[i + 1] - xs[i])
            - (values[i] - values[i - 1]) / (xs[i] - xs[i - 1])
            for i in range(1, len(xs) - 1)]


def fraction_cell_ends(nodes, values):
    """The Fraction sweep of ``_cell_ends_1d``."""
    order = sorted(range(len(nodes)), key=lambda i: nodes[i][0])

    def slope(i, j):
        return (values[i] - values[j]) / (nodes[i][0] - nodes[j][0])

    steps = [None] + [slope(b, a) for a, b in zip(order, order[1:])]

    def sweep(seq, steps, worse):
        ends, chain = [None] * len(nodes), []
        for i, s in zip(seq, steps):
            while len(chain) > 1 and worse(chain[-1][1], s):
                chain.pop()
                s = slope(i, chain[-1][0])
            if chain:
                ends[i] = s
            chain.append((i, s))
        return ends

    return (sweep(order, steps, lambda a, b: a >= b),
            sweep(order[::-1], [None] + steps[:0:-1], lambda a, b: a <= b))


def fraction_direct_values(xs, mus, v_lo, v_hi):
    """The Fraction prefix sums of the 1D direct solve."""
    steps = [b - a for a, b in zip(xs, xs[1:])]
    rise = list(itertools.accumulate(mus, initial=F(0)))
    width = xs[-1] - xs[0]
    s0 = (v_hi - v_lo - sum(h * r for h, r in zip(steps, rise))) / width
    values = list(itertools.accumulate(
        (h * (s0 + r) for h, r in zip(steps, rise)), initial=v_lo))
    assert values[-1] == v_hi
    return values


@given(data=st.data())
@EXACT
def test_model_metric_on_ints_equals_the_fraction_loop(data):
    model = data.draw(snc_models())
    table = IntersectionTable(model.dimension)
    for a, k, J in on_face_keys(model):
        table.add(a, k, J, data.draw(big_rationals()))
    coeffs = {d.id: data.draw(st.one_of(st.just(0), big_rationals()))
              for d in model.divisors}
    masses = fraction_model_metric(
        model, IntersectionTable(model.dimension, [
            (a, k, J, v) for (a, k, J), v in table.entries().items()]
            + [(model.dimension, {}, (), 0)]), coeffs).masses
    table.add(model.dimension, {}, (), sum(masses))
    got = na_ma_model_metric(model, table, coeffs)
    assert got == fraction_model_metric(model, table, coeffs)
    assert [type(m) for m in got.masses] == [F] * len(got.masses)
    assert got.total() == sum(got.masses) == table.top_self_intersection()


def fraction_vilsmeier(model, table, coefficients):
    """``vilsmeier_check_1d`` with the Fraction loops of both sides."""
    divisors = sorted(model.divisors, key=lambda d: d.id)
    degrees = [d.degree for d in divisors]
    na = fraction_model_metric(model, table, coefficients)
    na_masses = [na.mass_of(d.id) for d in divisors]
    pot = model_function(model, coefficients)
    vals = [pot.value(model.face((d.id,)),
                      model.face((d.id,)).vertex_point(d.id))
            for d in divisors]
    xs = range(-1, len(vals) + 1)
    jumps = fraction_slope_jumps(xs, [vals[-1]] + vals + [vals[0]])
    real = [d + j for d, j in zip(degrees, jumps)]
    return CycleComparison(
        tuple(d.id for d in divisors), tuple(na_masses), tuple(real),
        tuple(degrees), max(abs(a - b) for a, b in zip(na_masses, real)),
        sum(na_masses), sum(real))


@given(st.lists(big_rationals(), min_size=3, max_size=12), st.data())
@EXACT
def test_vilsmeier_on_ints_equals_the_fraction_loops(degrees, data):
    N = len(degrees)
    coeffs = {i: data.draw(big_rationals()) for i in range(N)}
    model, table = cycle_model(degrees), cycle_table(degrees)
    entries = [(1, {}, (), sum(degrees))]
    for i in range(N):
        entries += [(1, {}, (i,), degrees[i]), (0, {i: 1}, (i,), -2),
                    (0, {(i + 1) % N: 1}, (i,), 1),
                    (0, {(i - 1) % N: 1}, (i,), 1)]
    assert table.entries() == IntersectionTable(1, entries).entries()
    got = vilsmeier_check_1d(model, table, coeffs)
    assert got == fraction_vilsmeier(model, table, coeffs)
    assert got.holds


@given(st.lists(big_rationals(), min_size=0, max_size=12, unique=True),
       st.data())
@EXACT
def test_slope_jumps_on_ints_equal_the_fraction_loop(xs, data):
    xs = sorted(xs)
    values = [data.draw(st.one_of(big_rationals(), st.integers(-9, 9)))
              for _ in xs]
    got = discrete_slope_jumps(xs, values)
    assert got == fraction_slope_jumps(xs, values)
    assert all(type(j) is F for j in got)
    if len(xs) >= 2:
        with pytest.raises(ValueError, match="strictly increasing"):
            discrete_slope_jumps(xs[:1] + xs, values[:1] + values)


@given(lifted_interval_nodes())
@EXACT
def test_cell_ends_on_ints_equal_the_fraction_sweep(data):
    nodes, values = data
    nodes = [(F(x),) for x, in nodes]
    values = list(map(F, values))
    assert _cell_ends_1d(nodes, values) == fraction_cell_ends(nodes, values)


@st.composite
def big_interval_nodes(draw):
    """Unsorted nodes of an interval, inner ones with small, mixed and
    100-digit denominators, and a rational density and boundary data."""
    lo = draw(st.fractions(min_value=-3, max_value=0, max_denominator=7))
    width = draw(st.fractions(min_value=1, max_value=3, max_denominator=7))
    inner = set()
    for den in draw(st.lists(st.one_of(st.integers(2, 12),
                                       st.integers(BIG, 2 * BIG)),
                             max_size=12)):
        inner.add(lo + width * F(draw(st.integers(1, den - 1)), den))
    xs = draw(st.permutations([lo, lo + width, *inner]))
    # TargetMeasure keys its masses by float nodes
    assume(len({float(x) for x in xs}) == len(xs))
    density = draw(st.fractions(min_value=F(1, 3), max_value=5,
                                max_denominator=9))
    v_lo, v_hi = draw(big_rationals()), draw(big_rationals())
    return lo, lo + width, [(x,) for x in xs], density, v_lo, v_hi


@given(big_interval_nodes())
@EXACT
def test_1d_target_and_solve_on_ints_equal_the_fraction_loops(data):
    lo, hi, nodes, density, v_lo, v_hi = data
    dom = Interval(lo, hi)
    target = TargetMeasure.from_density(dom, nodes, density)
    values = [x * x / 2 for x, in nodes]
    want = {}
    for nd, left, right in zip(nodes, *fraction_cell_ends(nodes, values)):
        left = lo if left is None else max(left, lo)
        right = hi if right is None else min(right, hi)
        want[nd] = density * (right - left if right > left else 0)
    assert target.masses == want
    assert target.total() == density * (hi - lo)

    result = solve(dom, target, {(lo,): v_lo, (hi,): v_hi}, nodes=nodes)
    xs = sorted(x for x, in nodes)
    mus = [target.masses[(x,)] for x in xs[1:-1]]
    values = fraction_direct_values(xs, mus, v_lo, v_hi)
    assert result.solution.values == values
    assert all(type(v) is F for v in result.solution.values)
    assert result.masses == (0, *fraction_slope_jumps(xs, values), 0)
    assert result.masses[1:-1] == tuple(mus) and result.residual == 0.0
