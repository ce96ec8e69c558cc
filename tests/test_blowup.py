import pytest

from folindex.blowup import (BlowUpProgram, build_cholesky, build_intersection,
                             dual_graph_dot, intersection_by_steps,
                             proximity_check, valence)
from folindex.errors import IndexOutOfRange, InvalidCenter


def program(*centers):
    return BlowUpProgram.from_lists(list(centers))


def test_single_blowup():
    p = program([])
    f = build_cholesky(p)
    a = build_intersection(f)
    assert f.rows == ((1,),)
    assert a.rows == ((-1,),)
    assert a.neg_inverse() == ((1,),)


def test_three_step_tower():
    # blow up the origin, a point of E1, then the corner E1&E2
    p = program([], [1], [1, 2])
    f = build_cholesky(p)
    a = build_intersection(f)
    assert f.rows == ((1, 0, 0), (-1, 1, 0), (-1, -1, 1))
    assert a.rows == ((-3, 0, 1), (0, -2, 1), (1, 1, -1))
    assert a.neg_inverse() == ((1, 1, 2), (1, 2, 3), (2, 3, 6))
    assert f.inverse() == ((1, 0, 0), (1, 1, 0), (2, 1, 1))


def test_factorization_matches_geometric_replay():
    progs = [
        program([]),
        program([], [1]),
        program([], [1], [2]),
        program([], [1], [1, 2], [1, 3], [2]),
        program([], [1], [1, 2], [2, 3], [4]),
    ]
    for p in progs:
        a = build_intersection(build_cholesky(p))
        assert intersection_by_steps(p) == a.rows


def test_proximity_identity():
    p = program([], [1], [1, 2], [3], [2])
    f = build_cholesky(p)
    a = build_intersection(f)
    assert proximity_check(f, a)


def test_off_diagonal_total_counts_blowups():
    p = program([], [1], [1, 2], [3], [2])
    a = build_intersection(build_cholesky(p))
    n = a.n
    total = sum(a.rows[i][j] for i in range(n) for j in range(i + 1, n))
    assert total == n - 1


def test_valence():
    p = program([], [1], [1, 2])
    a = build_intersection(build_cholesky(p))
    assert [valence(a, i) for i in (1, 2, 3)] == [1, 1, 2]


def test_prefix_consistency():
    p = program([], [1], [1, 2], [3], [2])
    f = build_cholesky(p)
    a = build_intersection(f)
    for k in range(1, p.n + 1):
        fk = build_cholesky(p.prefix(k))
        assert tuple(row[:k] for row in f.rows[:k]) == fk.rows
        assert a.prefix(k).rows == intersection_by_steps(p.prefix(k))


def test_center_validation():
    with pytest.raises(InvalidCenter):
        program([1])          # first center must be the origin
    with pytest.raises(IndexOutOfRange):
        program([], [2])      # references a component not yet created
    with pytest.raises(IndexOutOfRange):
        program([], [0])
    with pytest.raises(InvalidCenter):
        program([], [1], [1, 2], [1, 2])  # corner was destroyed by step 3
    with pytest.raises(InvalidCenter):
        program([], [1], [2], [1, 3])     # E1 and E3 never meet
    with pytest.raises(InvalidCenter):
        program([], [1, 1])
    with pytest.raises(InvalidCenter):
        program([], [1], [1, 2], [1, 2, 3])


def test_corner_blowup_separates_components():
    # after blowing the E1&E2 corner, E1 and E2 no longer meet
    p = program([], [1], [1, 2])
    a = build_intersection(build_cholesky(p))
    assert a.rows[0][1] == 0
    assert a.rows[0][2] == 1 and a.rows[1][2] == 1


def test_dot_output_mentions_all_components():
    p = program([], [1], [1, 2])
    dot = dual_graph_dot(build_intersection(build_cholesky(p)),
                         marking=(0, 0, 1))
    for name in ("E1", "E2", "E3"):
        assert name in dot
    assert "e1 -- e3" in dot and "e2 -- e3" in dot and "e1 -- e2" not in dot
    assert dot.count("shape=box") == 2
