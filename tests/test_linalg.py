import functools
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from branchcover import linalg
from branchcover.covering import fox_complete, refine_stratification
from branchcover.intersection import perversity_by_name
from branchcover.local_systems import (
    invariant_dimension,
    kernel_system,
    permutation_action,
    sum_zero_action,
    twisted_betti,
)
from branchcover.simplicial import betti_numbers
from branchcover.specfile import load_spec, parse_spec_text

from complexes import ih
from oracles import (
    dense,
    dense_rank,
    identity,
    mat_equal,
    matmul,
    matrix_inverse,
    permutation_matrix,
    rational_pivot_rows,
    reduce_columns,
    transport_from_rows,
)

GOLDEN = Path(__file__).resolve().parent / "golden"


def random_matrix(rng, nrows, ncols, density=0.5, span=5):
    return [[rng.randint(-span, span) if rng.random() < density else 0
             for _ in range(ncols)] for _ in range(nrows)]


def to_columns(rows):
    ncols = len(rows[0]) if rows else 0
    return [{i: Fraction(row[j]) for i, row in enumerate(rows) if row[j]}
            for j in range(ncols)]


def test_sparse_rank_matches_oracle():
    rng = random.Random(11)
    for _ in range(80):
        m = random_matrix(rng, rng.randint(1, 12), rng.randint(1, 12),
                          density=rng.choice([0.15, 0.4, 0.9]))
        assert linalg.rank_from_columns(to_columns(m)) == dense_rank(m)


def test_sparse_rank_with_fractions():
    rng = random.Random(3)
    for _ in range(30):
        m = [[Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(6)]
             for _ in range(5)]
        assert linalg.rank_from_columns(to_columns(m)) == dense_rank(m)


def test_rank_from_columns():
    cols = [{0: Fraction(1), 1: Fraction(1)}, {0: Fraction(2), 1: Fraction(2)},
            {2: Fraction(1)}]
    assert linalg.rank_from_columns(cols) == 2


def test_rank_from_columns_consumes_its_columns():
    cols = [{0: 1, 1: -1}, {0: 2, 1: -2, 3: 0}, {1: 0}, {2: 3}]
    kept = list(cols)
    assert linalg.rank_from_columns(cols) == 2
    assert cols == [{}, {}, {}, {}]
    assert all(a is b for a, b in zip(cols, kept))  # eliminated where they stand


def test_pivot_rows_work_in_place():
    rows = [{0: 2, 1: 4, 2: 0}, {0: 1, 1: 0}, {0: -1, 1: 6, 2: 2, 3: 3}]
    seen = [(pc, row, dict(row)) for pc, row in linalg._pivot_rows(rows)]
    # zeros dropped in place; the sparsest row pivots first, then by index:
    # row 1 clears column 0, leaving rows 0 and 2 as {1: 4} and {1: 6, 2: 2, 3: 3};
    # the pivot 4 scales row 2 to {2: 8, 3: 12}, which its content 4 divides back
    assert [(pc, copy) for pc, _row, copy in seen] == [
        (0, {0: 1}), (1, {1: 4}), (2, {2: 2, 3: 3})]
    assert [row for _pc, row, _copy in seen] == [rows[1], rows[0], rows[2]]
    assert all(row is rows[r] for (_pc, row, _copy), r in zip(seen, (1, 0, 2)))
    # no pivot row is divided: every entry stays an int
    assert all(type(v) is int for row in rows for v in row.values())


def test_matrix_inverse_roundtrip():
    rng = random.Random(23)
    made = 0
    while made < 20:
        n = rng.randint(1, 5)
        m = random_matrix(rng, n, n, density=0.8)
        if dense_rank(m) < n:
            continue
        made += 1
        inv = matrix_inverse(m)
        assert mat_equal(matmul(m, inv), identity(n))


def test_matrix_inverse_singular_raises():
    with pytest.raises(ValueError):
        matrix_inverse([[1, 2], [2, 4]])


def test_invariant_space_of_swap():
    assert invariant_dimension([transport_from_rows(permutation_matrix((1, 0)))], 2) == 1
    assert invariant_dimension([permutation_action((1, 0))], 2) == 1


def test_invariant_dimension_edge_cases():
    # rank 0: the sum-zero system of a degree-1 cover
    assert invariant_dimension([sum_zero_action((0,))], 0) == 0
    assert invariant_dimension([], 0) == 0
    # identities only: everything is fixed
    ident = permutation_action(range(3))
    assert invariant_dimension([ident, ident], 3) == 3
    assert invariant_dimension([sum_zero_action((0, 1, 2, 3))], 3) == 3
    # identity mixed with sum-zero actions: 1 + invariants = orbit count
    swap, cycle = sum_zero_action((1, 0, 2, 3)), sum_zero_action((1, 2, 0, 3))
    assert invariant_dimension([ident, swap], 3) == 2
    assert invariant_dimension([swap, ident, cycle], 3) == 1


def oracle_kernel(m, nc):
    """Kernel basis of dense rows by the oracle's column reduction, with its free columns.

    The combination of a column reduced to zero is 1 at that column, its
    largest index, so those columns are the free positions.  Each vector
    is cleared at the earlier free columns by the earlier basis vectors,
    which are 0 at every later free column.
    """
    columns = [{i: row[j] for i, row in enumerate(m) if row[j]} for j in range(nc)]
    _count, kernel = reduce_columns(columns)
    free = [max(vec) for vec in kernel]
    basis = []
    for vec in kernel:
        for f, earlier in zip(free, basis):
            c = vec.get(f, 0)
            if c:
                vec = {k: vec.get(k, 0) - c * earlier.get(k, 0)
                       for k in vec.keys() | earlier.keys()}
        basis.append(vec)
    return basis, free


def assert_kernel_contract(m, nc, basis, free):
    assert len(basis) == nc - dense_rank(m)
    for vec in basis:
        for row in m:
            assert sum(Fraction(row[j]) * v for j, v in vec.items()) == 0
    # coordinates are readable at the free positions
    for bi, vec in enumerate(basis):
        for fi, f in enumerate(free):
            assert vec.get(f, Fraction(0)) == (1 if fi == bi else 0)


def test_sparse_nullspace_matches_contract():
    rng = random.Random(31)
    for _ in range(50):
        nr, nc = rng.randint(1, 7), rng.randint(1, 9)
        m = random_matrix(rng, nr, nc, density=rng.choice([0.2, 0.5, 0.9]))
        assert_kernel_contract(m, nc, *oracle_kernel(m, nc))


def test_nullspace_vectors_lie_in_kernel():
    rng = random.Random(19)
    for _ in range(40):
        nr, nc = rng.randint(1, 6), rng.randint(1, 8)
        m = random_matrix(rng, nr, nc)
        assert_kernel_contract(m, nc, *oracle_kernel(m, nc))


def test_invariant_space_matches_oracle():
    rng = random.Random(43)
    for _ in range(40):
        n = rng.randint(2, 7)
        perms = []
        for _ in range(rng.randint(1, 3)):
            perm = list(range(n))
            rng.shuffle(perm)
            perms.append(perm)
        families = [[transport_from_rows(permutation_matrix(g)) for g in perms],
                    [permutation_action(g) for g in perms],
                    [sum_zero_action(g) for g in perms]]
        for mats in families:
            size = len(mats[0])
            stacked = [[Fraction(x) - (1 if i == j else 0) for j, x in enumerate(row)]
                       for m in mats for i, row in enumerate(dense(m))]
            assert invariant_dimension(mats, size) == size - dense_rank(stacked)


# ---------------------------------------------------------------------------
# exactness: non-unit pivots, mixed entry types, no float anywhere


@st.composite
def exact_matrices(draw):
    """Dense rows of int and Fraction entries whose elimination needs non-unit pivots.

    Three kinds: {0, +-1} rows scaled by 2 or 3 plus integer combinations
    of them; entries mixing int with Fraction; and stacked K(g) - I blocks
    of sum-zero actions, rows scaled by 2 or 3.
    """
    kind = draw(st.sampled_from(("scaled", "mixed", "sum_zero")))
    if kind == "sum_zero":
        d = draw(st.integers(2, 7))
        perms = draw(st.lists(st.permutations(range(d)), min_size=1, max_size=3))
        rows = []
        for g in perms:
            for i, row in enumerate(dense(sum_zero_action(tuple(g)))):
                scale = draw(st.sampled_from((1, 2, 3, -2)))
                rows.append([scale * (x - (1 if i == j else 0)) for j, x in enumerate(row)])
        return rows
    nr, nc = draw(st.integers(1, 7)), draw(st.integers(1, 8))
    if kind == "mixed":
        entry = st.one_of(st.integers(-3, 3),
                          st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4)))
        return draw(st.lists(st.lists(entry, min_size=nc, max_size=nc),
                             min_size=nr, max_size=nr))
    unit = st.lists(st.sampled_from((0, 0, 1, -1)), min_size=nc, max_size=nc)
    rows = [[draw(st.sampled_from((2, 3, -3))) * v for v in draw(unit)]
            for _ in range(nr)]
    for _ in range(draw(st.integers(0, 2))):  # dependent rows
        a, b = draw(st.integers(0, nr - 1)), draw(st.integers(0, nr - 1))
        rows.append([2 * x + 3 * y for x, y in zip(rows[a], rows[b])])
    return rows


def _exact(value) -> bool:
    return type(value) in (int, Fraction)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(exact_matrices())
def test_elimination_is_exact_with_non_unit_pivots(m):
    nc = len(m[0])
    columns = [{i: row[j] for i, row in enumerate(m) if row[j]} for j in range(nc)]
    sparse = [{j: v for j, v in enumerate(row) if v} for row in m]
    rank = dense_rank(m)
    assert linalg.rank_from_columns(columns) == rank
    for _pc, row in linalg._pivot_rows(sparse):
        assert all(_exact(v) for v in row.values())
    basis, free = oracle_kernel(m, nc)
    assert all(_exact(v) for vec in basis for v in vec.values())
    assert_kernel_contract(m, nc, basis, free)
    assert dense_rank([[vec.get(j, 0) for j in range(nc)] for vec in basis]) == len(basis)


# ---------------------------------------------------------------------------
# the integer elimination against the rational one it replaced


def assert_same_elimination(rows) -> None:
    """Eliminate ``rows`` over the integers and, on a copy, over the rationals.

    Both must pivot in the same columns in the same order, so they have
    the same rank, and each integer pivot row must be its pivot times
    the rational one, whose pivot is 1.  Integer input stays integral.
    """
    reference = [(pc, dict(row)) for pc, row in rational_pivot_rows([dict(r) for r in rows])]
    integral = all(type(v) is int for row in rows for v in row.values())
    got = [(pc, dict(row)) for pc, row in linalg._pivot_rows(rows)]
    assert [pc for pc, _row in got] == [pc for pc, _row in reference]
    for (pc, row), (_pc, want) in zip(got, reference):
        assert row == {c: row[pc] * v for c, v in want.items()}
        assert not integral or all(type(v) is int for v in row.values())


@settings(max_examples=150, deadline=None, derandomize=True)
@given(exact_matrices())
def test_integer_elimination_pivots_as_the_rational_one(m):
    nc = len(m[0])
    assert_same_elimination([{j: v for j, v in enumerate(row) if v} for row in m])
    assert_same_elimination([{i: row[j] for i, row in enumerate(m) if row[j]}
                             for j in range(nc)])


# bench workload at seed 1 -> the perversity its golden verify case uses
BENCH_SPECS = {"susp-cover-seed1": "upper", "sphere2pt-d31-seed1": "lower",
               "circle-d64-seed1": "lower"}


@functools.cache
def _bench_spec(name):
    loaded = load_spec(parse_spec_text((GOLDEN / f"{name}.json").read_text(encoding="utf-8")))
    return loaded.cover_spec()


def _ordinary(spec, perversity):
    betti_numbers(fox_complete(spec).total)


def _kernel(spec):
    return kernel_system(spec.degree, spec.table)


def _twisted(spec, perversity):
    twisted_betti(spec.complement, _kernel(spec))


def _ic(spec, perversity):
    m = spec.base.dim
    refined = refine_stratification(spec.base, spec.branch)
    p = perversity_by_name(perversity, m) if m >= 2 else None
    ih(refined, p, None)
    ih(refined, p, _kernel(spec))


@pytest.mark.parametrize("kind", [_ordinary, _twisted, _ic], ids=["ordinary", "twisted", "ic"])
@pytest.mark.parametrize("name", sorted(BENCH_SPECS))
def test_bench_boundaries_pivot_as_over_the_rationals(name, kind, monkeypatch):
    """Every matrix whose rank the homology takes on a bench spec: its
    boundary columns and its containment checks.  The twisted and IC
    matrices of susp-cover and sphere2pt-d31 meet pivots other than +-1."""
    real = linalg.rank_from_columns
    seen = []

    def checked(columns):
        assert_same_elimination([dict(col) for col in columns])
        seen.append(len(columns))
        return real(columns)

    monkeypatch.setattr(linalg, "rank_from_columns", checked)
    kind(_bench_spec(name), BENCH_SPECS[name])
    assert seen
