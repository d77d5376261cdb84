import json

import pytest

from wallman import cli, gen, io
from wallman.errors import SizeCap
from wallman.lattice import is_boolean, is_distributive


# -- generators -------------------------------------------------------------


def test_random_poset_is_transitive():
    rows = gen.random_poset(8, seed=5)
    for i in range(8):
        for j in range(8):
            if rows[i] >> j & 1:
                assert rows[j] & ~rows[i] == 0


def test_gen_caps():
    with pytest.raises(SizeCap):
        gen.random_poset(gen.MAX_POSET_POINTS + 1, 0)
    with pytest.raises(SizeCap):
        gen.boolean_algebra(gen.MAX_BOOLEAN_ATOMS + 1)
    with pytest.raises(SizeCap):
        gen.random_staged_family(gen.MAX_FAMILY_MEMBERS + 1, 0)


def test_downset_lattice_size_zero():
    L = gen.random_downset_lattice(0, seed=1)
    assert L.n == 2  # one-point poset


def test_downset_lattices_distributive():
    for seed in range(5):
        L = gen.random_downset_lattice(5, seed)
        assert is_distributive(L, force_scan=True)[0]


def test_downset_lattice_keys_are_downsets():
    for seed in range(20):
        rows = gen.random_poset(6, seed, edge_prob=0.4)
        below = [sum(1 << y for y in range(6) if rows[y] >> x & 1) for x in range(6)]
        downsets = [
            s
            for s in range(1 << 6)
            if all(below[x] & ~s == 0 for x in range(6) if s >> x & 1)
        ]
        assert sorted(gen.downset_lattice(rows).keys) == downsets


def test_boolean_algebra():
    B = gen.boolean_algebra(3)
    assert B.n == 8 and is_boolean(B)
    assert gen.boolean_algebra(0).n == 1


def test_generators_reproducible():
    a = gen.random_downset_lattice(6, seed=42)
    b = gen.random_downset_lattice(6, seed=42)
    assert a.keys == b.keys
    fa = gen.random_staged_family(5, seed=42)
    fb = gen.random_staged_family(5, seed=42)
    assert fa == fb


def test_staged_family_members_valid():
    F = gen.random_staged_family(6, seed=9)
    for m in F.members:
        assert m.stages is not None and m.stages[-1] == m.points


# -- io ---------------------------------------------------------------------


def test_lattice_round_trip(tmp_path, fivepoint):
    path = tmp_path / "five.json"
    path.write_text(json.dumps(io.dump_lattice(fivepoint)))
    back = io.load_lattice_file(str(path))
    assert back == fivepoint


def test_resolve_lattice_builtin_and_path(tmp_path, chain3):
    assert io.resolve_lattice("chain3") == chain3
    path = tmp_path / "c.json"
    path.write_text(json.dumps(io.dump_lattice(chain3)))
    assert io.resolve_lattice(str(path)) == chain3
    with pytest.raises(KeyError):
        io.builtin_lattice("nope")


def test_builtin_corpus_complete():
    corpus = io.builtin_corpus()
    assert len(corpus) == len(io.FIXTURE_NAMES)


def test_hom_file(tmp_path):
    path = tmp_path / "h.json"
    path.write_text(
        json.dumps(
            {
                "source": "chain3",
                "target": "chain2",
                "map": [["0", "0"], ["m", "0"], ["1", "1"]],
            }
        )
    )
    h = io.load_hom_file(str(path))
    assert h.source.name == "chain3" and h.target.name == "chain2"
    with pytest.raises(ValueError):
        path.write_text(
            json.dumps({"source": "chain3", "target": "chain2", "map": []})
        )
        io.load_hom_file(str(path))


def test_family_round_trip(tmp_path):
    F = gen.random_staged_family(5, seed=2)
    path = tmp_path / "f.json"
    path.write_text(json.dumps(io.dump_family(F)))
    back = io.load_family_file(str(path))
    assert back.ground == F.ground
    assert back.members == F.members


def test_phi_file(tmp_path):
    path = tmp_path / "phi.json"
    path.write_text(json.dumps({"u": [0, 2], "v": [1]}))
    phi = io.load_phi_file(str(path))
    assert phi["u"] == frozenset({0, 2})


def test_dot_hasse(chain3):
    dot = io.dot_hasse(chain3)
    assert dot.startswith("digraph")
    assert dot.count("->") == 2  # two cover edges in a 3-chain


# -- cli --------------------------------------------------------------------


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.lstrip().startswith("{") else out)


def test_cli_check_examples(capsys):
    code, rep = run(capsys, "check", "fivepoint")
    assert code == 0
    assert rep["verdicts"] == {
        "lattice": True,
        "distributive": True,
        "normal": False,
        "separative": False,
        "boolean": False,
    }
    code, rep = run(capsys, "check", "n5")
    assert code == 0 and not rep["verdicts"]["distributive"]
    code, _ = run(capsys, "check", "powerset3", "--require", "normal,boolean")
    assert code == 0
    code, _ = run(capsys, "check", "fivepoint", "--require", "normal")
    assert code == 1


def test_cli_filters_examples(capsys):
    code, rep = run(capsys, "filters", "one_plus_b2", "--class", "ultra")
    assert code == 0 and rep["count"] == 1
    _, rep = run(capsys, "filters", "fivepoint", "--class", "prime")
    assert rep["count"] == 3
    _, rep = run(capsys, "filters", "chain3", "--class", "ultra")
    assert rep["count"] == 1
    code, rep = run(
        capsys, "filters", "powerset3", "--class", "ultra", "--oracle"
    )
    assert code == 0 and rep["oracle"]["agree"]


def test_cli_space_suite_stone(capsys):
    code, rep = run(capsys, "space", "chain3", "--kind", "prime", "--axioms")
    assert code == 0
    assert rep["separation"]["t0"] and not rep["separation"]["t1"]
    code, rep = run(capsys, "suite", "fivepoint")
    assert code == 0 and rep["all_asserted_hold"]
    code, rep = run(capsys, "stone", "divisor12")
    assert code == 0 and rep["algebra_boolean"]


def test_cli_hom(capsys, tmp_path):
    hpath = tmp_path / "h.json"
    hpath.write_text(
        json.dumps(
            {
                "source": "chain3",
                "target": "chain2",
                "map": [["0", "0"], ["m", "0"], ["1", "1"]],
            }
        )
    )
    code, rep = run(
        capsys, "hom", str(hpath), "--separative", "--equivalence", "--unchecked"
    )
    assert code == 0 and rep["valid_hom"]
    assert not rep["separative"]
    assert not rep["equivalence"]["separative"]


def test_cli_cert_and_gen(capsys, tmp_path):
    fpath = tmp_path / "fam.json"
    code, _ = run(
        capsys,
        "gen", "--kind", "staged-family", "--size", "5", "--seed", "1",
        "-o", str(fpath),
    )
    assert code == 0
    code, rep = run(capsys, "cert", str(fpath), "t0")
    assert code == 0 and rep["t0_separating"]
    code, rep = run(capsys, "cert", str(fpath), "phi")
    assert code == 0 and rep["phi"]
    member = next(iter(rep["phi"]))
    code, rep = run(capsys, "cert", str(fpath), "rank", "--member", member)
    assert code == 0 and rep["rank"] <= rep["bound"]
    code, rep = run(capsys, "cert", str(fpath), "refine", "--mode", "wiec")
    assert code == 0 and rep["t0_preserved"]


def test_cli_gen_downset_size_zero(capsys):
    code, rep = run(capsys, "gen", "--kind", "downset", "--size", "0")
    assert code == 0
    assert len(rep["payload"]["elements"]) == 2


def test_cli_gen_deterministic(capsys):
    _, a = run(capsys, "gen", "--kind", "downset", "--size", "5", "--seed", "7")
    _, b = run(capsys, "gen", "--kind", "downset", "--size", "5", "--seed", "7")
    a.pop("timings_ms")
    b.pop("timings_ms")
    assert a == b


def test_cli_input_error(capsys):
    code, _ = run(capsys, "check", "no_such_file.json")
    assert code == 2


@pytest.fixture()
def family_path(tmp_path):
    path = tmp_path / "fam.json"
    path.write_text(json.dumps({
        "ground": ["x", "y"],
        "members": [
            {"id": "u", "set": ["x", "y"], "group": 0},
            {"id": "v", "set": ["x"], "group": 1},
        ],
    }))
    return str(path)


def run_err(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().err


def test_cli_cert_ord_point_errors(capsys, family_path):
    code, err = run_err(capsys, "cert", family_path, "ord")
    assert code == 2 and err == "error: cert ord needs --point\n"
    code, err = run_err(capsys, "cert", family_path, "ord", "--point", "zz")
    assert code == 2 and err == "error: --point 'zz' is not a ground point\n"
    code, rep = run(capsys, "cert", family_path, "ord", "--point", "x")
    assert code == 0 and rep["ord"] == 2


def test_cli_cert_rank_unknown_member(capsys, family_path):
    code, err = run_err(capsys, "cert", family_path, "rank", "--member", "zz")
    assert code == 2 and "no phi value for 'zz'" in err


def test_cli_cert_rank_empty_phi_value(capsys, tmp_path, family_path):
    phi_path = tmp_path / "phi.json"
    phi_path.write_text(json.dumps({"u": [], "v": [1]}))
    code, err = run_err(
        capsys, "cert", family_path, "rank", "--member", "u",
        "--phi", str(phi_path),
    )
    assert code == 2 and err == "error: phi value for 'u' is empty\n"


def test_cli_cert_rank_missing_phi_value(capsys, tmp_path):
    fam_path = tmp_path / "fam.json"
    fam_path.write_text(json.dumps({
        "ground": ["x"],
        "members": [
            {"id": "u0", "set": ["x"], "group": 0},
            {"id": "u1", "set": ["x"], "group": 1},
        ],
    }))
    phi_path = tmp_path / "phi.json"
    phi_path.write_text(json.dumps({"u0": [2]}))
    code, err = run_err(
        capsys, "cert", str(fam_path), "rank", "--member", "u0",
        "--phi", str(phi_path),
    )
    assert code == 2 and err == "error: no phi value for member 'u1'\n"


@pytest.mark.parametrize("raw, message", [
    ([1], "a phi file maps member ids to lists of naturals"),
    ({"u": 3}, "phi value for 'u' is not a list"),
    ({"u": ["a"]}, "phi value for 'u' holds 'a', not a natural"),
    ({"u": [-1]}, "phi value for 'u' holds -1, not a natural"),
    ({"u": [0], "v": [True]}, "phi value for 'v' holds True, not a natural"),
])
def test_cli_cert_rank_bad_phi_file(capsys, tmp_path, family_path, raw, message):
    phi_path = tmp_path / "phi.json"
    phi_path.write_text(json.dumps(raw))
    code, err = run_err(
        capsys, "cert", family_path, "rank", "--member", "u",
        "--phi", str(phi_path),
    )
    assert code == 2 and err == f"error: {message}\n"


@pytest.mark.parametrize("raw, message", [
    ([1], 'a family file holds {"ground": [...], "members": [...]}'),
    (
        {"ground": ["x"], "members": [{"id": "u", "set": ["zz"]}]},
        "member 'u': set names 'zz', not a ground point",
    ),
    (
        {"ground": ["x"], "members": [
            {"id": "u", "set": ["x"], "stages": [["x"], ["x", "zz"]]},
        ]},
        "member 'u': stages[1] names 'zz', not a ground point",
    ),
    (
        {"ground": ["x"], "members": [{"id": "u", "set": ["x"], "group": "1"}]},
        "member 'u': group '1' is not an integer",
    ),
    (
        {"ground": ["x", "x"], "members": []},
        "ground point names must be unique",
    ),
])
def test_cli_cert_bad_family_file(capsys, tmp_path, raw, message):
    fam_path = tmp_path / "fam.json"
    fam_path.write_text(json.dumps(raw))
    code, err = run_err(capsys, "cert", str(fam_path), "t0")
    assert code == 2 and err == f"error: {message}\n"


@pytest.mark.parametrize("raw, message", [
    ({"elements": "ab", "covers": []}, 'lattice field "elements" is not a list'),
    (
        {"elements": ["a", "b"], "leq": [["a"]]},
        """lattice field "leq" holds ['a'], not a [lo, hi] pair""",
    ),
])
def test_cli_check_bad_lattice_file(capsys, tmp_path, raw, message):
    path = tmp_path / "lat.json"
    path.write_text(json.dumps(raw))
    code, err = run_err(capsys, "check", str(path))
    assert code == 2 and err == f"error: {message}\n"


def test_cli_bad_max_brute(capsys, monkeypatch):
    monkeypatch.setenv("WALLMAN_MAX_BRUTE", "abc")
    code, err = run_err(capsys, "filters", "chain3", "--strategy", "exhaustive")
    assert code == 2
    assert err == "error: WALLMAN_MAX_BRUTE must be a natural number, not 'abc'\n"
