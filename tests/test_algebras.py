import pytest

from nakayama.algebras import (
    CoverVertex,
    arrow_target,
    build_nakayama,
    build_torus,
    project,
    residue,
)


def test_residue_range():
    assert [residue(a, 3) for a in (-2, 0, 1, 3, 4, 7)] == [1, 3, 1, 3, 1, 1]


def test_project_examples():
    assert project(CoverVertex(1, 1), 3) == (1, 1)
    assert project(CoverVertex(4, 1), 3) == (1, 1)
    assert project(CoverVertex(3, 0), 2) == (1, 2)


def test_build_nakayama_rejects_zero():
    with pytest.raises(ValueError):
        build_nakayama(0)
    with pytest.raises(ValueError):
        build_torus(0)


def test_dual_numbers():
    alg = build_nakayama(1)
    assert alg.dimension == 2
    e, a = ("e", 1), ("a", 1)
    assert alg.mult[(e, e)] == e
    assert alg.mult[(a, a)] is None
    assert alg.mult[(e, a)] == a
    assert alg.mult[(a, e)] == a


def test_n2_radical_square_zero():
    alg = build_nakayama(2)
    assert alg.dimension == 4
    assert alg.mult[(("a", 1), ("a", 2))] is None
    assert alg.mult[(("a", 2), ("a", 1))] is None


def test_unit_decomposition():
    alg = build_nakayama(3)
    units = (("e", 1), ("e", 2), ("e", 3))
    assert [b for b in alg.basis if b[0] == "e"] == list(units)
    # e_1 + e_2 + e_3 really is a two-sided unit on the basis
    for b in alg.basis:
        left = [alg.mult[(u, b)] for u in units]
        right = [alg.mult[(b, u)] for u in units]
        assert [x for x in left if x is not None] == [b]
        assert [x for x in right if x is not None] == [b]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_associativity(n):
    assert build_nakayama(n).is_associative()


def test_arrow_head_tail_compatibility():
    alg = build_nakayama(3)
    # e_{i+1} a_i = a_i = a_i e_i
    for i in range(1, 4):
        a = ("a", i)
        head = ("e", residue(i + 1, 3))
        tail = ("e", i)
        assert alg.mult[(head, a)] == a
        assert alg.mult[(a, tail)] == a


@pytest.mark.parametrize("n,verts,arrows", [(1, 1, 2), (2, 4, 8), (3, 9, 18)])
def test_torus_counts(n, verts, arrows):
    t = build_torus(n)
    assert len(t.vertices) == verts
    assert len(t.to_json()["arrows"]) == arrows
    assert t.dimension == 4 * n * n


def test_torus_relation_counts():
    t = build_torus(3)
    kinds = [r[0] for r in t.relations]
    assert kinds.count("vv") == 9
    assert kinds.count("hh") == 9
    assert kinds.count("square") == 9


def _arrow_ends(t):
    """Each arrow of the torus JSON as its name -> (source, target)."""
    return {a["name"]: (a["source"], a["target"])
            for a in t.to_json()["arrows"]}


def test_torus_n1_loops():
    assert _arrow_ends(build_torus(1)) == {"v_1|1": ("1|1", "1|1"),
                                           "h_1|1": ("1|1", "1|1")}


def test_torus_arrow_directions():
    ends = _arrow_ends(build_torus(2))
    assert ends["v_2|1"] == ("2|1", "1|1")  # wraps upward
    assert ends["h_1|1"] == ("1|1", "1|2")  # wraps leftward
    # the JSON arrows against the shared helper, read as cover steps
    # pushed down, in vertical-then-horizontal order
    for n in (1, 2, 3):
        t = build_torus(n)
        want = []
        for kind, (di, dj) in (("v", (1, 0)), ("h", (0, -1))):
            for (i, j) in t.vertices:
                target = arrow_target(kind, i, j, n)
                assert target == project(CoverVertex(i + di, j + dj), n)
                want.append({"name": f"{kind}_{i}|{j}", "kind": kind,
                             "source": f"{i}|{j}",
                             "target": f"{target[0]}|{target[1]}"})
        assert t.to_json()["arrows"] == want


def test_torus_json_roundtrip_fields():
    doc = build_torus(2).to_json()
    assert doc["n"] == 2
    assert len(doc["vertices"]) == 4
    assert len(doc["arrows"]) == 8
    assert len(doc["relations"]) == 12
    assert {a["kind"] for a in doc["arrows"]} == {"v", "h"}


def test_nakayama_json_products_complete():
    doc = build_nakayama(2).to_json()
    assert doc["dimension"] == 4
    assert len(doc["products"]) == 16
    names = set(doc["basis"])
    assert names == {"eps_1", "eps_2", "alpha_1", "alpha_2"}
