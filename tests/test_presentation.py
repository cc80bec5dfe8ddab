import pytest

from branchcover.errors import InputError
from branchcover.presentation import edge_path_presentation
from branchcover.simplicial import validate_complex
from branchcover.fixtures import hexagon, octahedron

from complexes import full_simplex


def test_hexagon_presentation():
    pres = edge_path_presentation(hexagon(), 0)
    assert len(pres.tree_edges) == 5
    assert len(pres.generators) == 1
    assert pres.relators == ()
    # deterministic BFS with ascending tie-break leaves (3,4) as the generator
    assert pres.generators == ((3, 4),)


def test_full_triangle_presentation():
    pres = edge_path_presentation(full_simplex(2), 0)
    assert len(pres.generators) == 1
    assert len(pres.relators) == 1
    # the single relator kills the single generator
    assert pres.relators[0] in (((0, 1),), ((0, -1),))


def test_octahedron_counts():
    # |E| - |V| + 1 generators and one relator per triangle, by enumeration
    oct_ = octahedron()
    pres = edge_path_presentation(oct_, 0)
    assert len(pres.generators) == oct_.n_simplices(1) - oct_.n_simplices(0) + 1 == 7
    assert len(pres.relators) == oct_.n_simplices(2) == 8


def test_generators_are_sorted_and_non_tree():
    pres = edge_path_presentation(octahedron(), 0)
    assert list(pres.generators) == sorted(pres.generators)
    assert not set(pres.generators) & pres.tree_edges
    assert len(pres.generators) + len(pres.tree_edges) == octahedron().n_simplices(1)


def test_tree_path():
    pres = edge_path_presentation(hexagon(), 0)
    path = pres.tree_path(3)
    assert path[0] == 0 and path[-1] == 3
    for u, v in zip(path, path[1:]):
        assert tuple(sorted((u, v))) in pres.tree_edges


def test_disconnected():
    c = validate_complex([[0], [1], [2], [3], [0, 1], [2, 3]])
    with pytest.raises(InputError, match="complex is not connected: vertex 2 unreachable from 0"):
        edge_path_presentation(c, 0)


def test_bad_basepoint():
    with pytest.raises(InputError, match="basepoint 77 is not a vertex"):
        edge_path_presentation(hexagon(), 77)


def test_relator_letters_reference_generators():
    pres = edge_path_presentation(octahedron(), 0)
    for word in pres.relators:
        for (gi, sign) in word:
            assert 0 <= gi < len(pres.generators)
            assert sign in (1, -1)
