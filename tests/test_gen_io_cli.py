import contextlib
import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile
from io import StringIO

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wallman import cli, covers, gen, homs, io, lattice
from wallman.bits import iter_bits
from wallman.caps import SIZE_CAP
from wallman.errors import DegenerateLattice, NonUniqueExtension, SizeCap
from wallman.lattice import FiniteLattice, _distributivity_scan, is_boolean


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


@pytest.mark.parametrize("make, message", [
    (lambda: gen.random_poset(-1, 0), "poset points must be in 0..16, got -1"),
    (lambda: gen.random_poset(17, 0), "poset points must be in 0..16, got 17"),
    (
        lambda: gen.random_downset_lattice(-3, 0),
        "poset points must be in 0..16, got -3",
    ),
    (lambda: gen.boolean_algebra(-1), "atom count must be in 0..10, got -1"),
    (lambda: gen.boolean_algebra(11), "atom count must be in 0..10, got 11"),
    (
        lambda: gen.random_staged_family(0, 0),
        "member count must be in 1..14, got 0",
    ),
    (
        lambda: gen.random_staged_family(15, 0),
        "member count must be in 1..14, got 15",
    ),
])
def test_gen_cap_messages_name_range_and_value(make, message):
    with pytest.raises(SizeCap) as exc:
        make()
    assert str(exc.value) == message


def test_cli_gen_size_out_of_range(capsys):
    code = cli.main(["gen", "--kind", "staged-family", "--size", "0"])
    err = capsys.readouterr().err
    assert code == 2 and err == "error: member count must be in 1..14, got 0\n"


def test_cli_gen_downset_negative_size(capsys):
    code = cli.main(["gen", "--kind", "downset", "--size", "-3"])
    err = capsys.readouterr().err
    assert code == 2 and err == "error: poset points must be in 0..16, got -3\n"


def test_downset_lattice_size_zero():
    L = gen.random_downset_lattice(0, seed=1)
    assert L.n == 2  # one-point poset


def test_downset_lattices_distributive():
    for seed in range(5):
        L = gen.random_downset_lattice(5, seed)
        assert _distributivity_scan(L)[0]


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


def test_random_boolean_hom_out_of_b0():
    """B0 has 0 = 1, so its one map goes to B0; every other target has
    an atom and no hom reaches it, which raises DegenerateLattice naming
    both algebras."""
    B0 = gen.boolean_algebra(0)
    h = gen.random_boolean_hom(B0, B0, 0)
    assert h.map == (0,) and h.law == (True, None)
    for k in range(1, 4):
        for seed in range(3):
            with pytest.raises(DegenerateLattice, match=f"from B0 to B{k}:"):
                gen.random_boolean_hom(B0, gen.boolean_algebra(k), seed)


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
    # a null or absent name falls back to the file's stem
    spec = dict(io.dump_lattice(fivepoint), name=None)
    for spec in (spec, {k: v for k, v in spec.items() if k != "name"}):
        path.write_text(json.dumps(spec))
        assert io.load_lattice_file(str(path)).name == "five"


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


def ref_dot_hasse(L):
    """dot_hasse as it stood when it found the covers itself, with a
    between-test per order pair over both row sets."""
    L.materialize_rows()
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for i in range(L.n):
        lines.append(f'  n{i} [label="{L.names[i]}"];')
    for i in range(L.n):
        strict = L.up_mask(i) & ~(1 << i)
        for j in iter_bits(strict):
            between = strict & L.down_mask(j) & ~(1 << j)
            if between == 0:
                lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines)


def covers_corpus():
    """The fixtures, seeded down-set lattices, Boolean algebras B0..B10
    and chains, then the opposite and 1+L of a few, as table lattices."""
    out = io.builtin_corpus()
    out += [gen.random_downset_lattice(1 + s % 8, s) for s in range(20)]
    out += [gen.boolean_algebra(k) for k in range(11)]
    out += [lattice.chain_lattice(k) for k in (1, 2, 9, 40)]
    for L in out[:11] + out[11:15]:
        out += [lattice.opposite(L), lattice.attach_bottom(L)]
    return out


def test_lattice_file_holds_the_covers():
    """dump_lattice writes the covers alone, reads them off the up-rows
    without keeping rows on a keyed lattice, and load_lattice gives back
    the same names and up-rows."""
    for L in covers_corpus():
        spec = io.dump_lattice(L)
        assert set(spec) == {"name", "elements", "covers"}, L.name
        back = lattice.load_lattice(json.loads(json.dumps(spec)))
        assert (back.name, back.names) == (L.name, L.names)
        assert [back.up_mask(i) for i in range(back.n)] == [
            L.up_mask(i) for i in range(L.n)
        ], L.name
    B = gen.boolean_algebra(10)
    assert len(io.dump_lattice(B)["covers"]) == 5120
    io.dot_hasse(B)
    assert B._up is None and B._down is None


def test_dot_hasse_matches_the_pair_scan():
    for L in covers_corpus():
        assert io.dot_hasse(L) == ref_dot_hasse(L), L.name


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


def test_cli_check_require_unknown_predicate(capsys):
    """A misspelt predicate is an input error, named before any lattice is
    loaded; empty items stay accepted."""
    for path in ("powerset3", "no_such_file.json"):
        code = cli.main(["check", path, "--require", "distributive,distrbutive"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (
            "error: --require: unknown predicate 'distrbutive' (choose from"
            " lattice, distributive, normal, separative, boolean)\n"
        )
    code, _ = run(capsys, "check", "powerset3", "--require", "distributive,,boolean")
    assert code == 0
    code, _ = run(capsys, "check", "fivepoint", "--require", " normal ,")
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


def test_cli_check_dot_writes_the_hasse_diagram(capsys, tmp_path):
    dot = tmp_path / "h.dot"
    code, rep = run(capsys, "check", "fivepoint", "--dot", str(dot))
    assert code == 0 and rep["command"] == "check"
    L = io.builtin_lattice("fivepoint")
    assert dot.read_text() == io.dot_hasse(L) + "\n"


@pytest.mark.parametrize("mode", ["wiec", "rosenthal"])
def test_cli_cert_refine_out_reads_back(capsys, tmp_path, mode):
    fpath = tmp_path / "fam.json"
    fpath.write_text(json.dumps(io.dump_family(gen.random_staged_family(6, 2))))
    out = tmp_path / "refined.json"
    code, rep = run(
        capsys, "cert", str(fpath), "refine", "--mode", mode, "-o", str(out)
    )
    fn = covers.wiec_refinement if mode == "wiec" else covers.rosenthal_refinement
    refined = fn(io.load_family_file(str(fpath))).family
    assert code == 0 and rep["size"] == len(refined.members)
    assert io.load_family_file(str(out)) == refined


def test_cli_gen_boolean(capsys, tmp_path):
    code, rep = run(capsys, "gen", "--kind", "boolean", "--size", "3")
    assert code == 0 and rep["summary"] == {"elements": 8}
    B = lattice.load_lattice(rep["payload"])
    assert B.n == 8 and is_boolean(B)
    out = tmp_path / "b3.json"
    code, rep = run(capsys, "gen", "--kind", "boolean", "--size", "3", "-o", str(out))
    assert code == 0 and "payload" not in rep
    assert json.loads(out.read_text()) == io.dump_lattice(gen.boolean_algebra(3))


def test_cli_cert_t0_failure_names_both_points(capsys, tmp_path):
    fpath = tmp_path / "fam.json"
    fpath.write_text(json.dumps({
        "ground": ["x", "y", "z"],
        "members": [
            {"id": "u", "set": ["x", "z"], "group": 0},
            {"id": "v", "set": ["y"], "group": 0},
            {"id": "w", "set": ["x", "y", "z"], "group": 1},
        ],
    }))
    code, rep = run(capsys, "cert", str(fpath), "t0")
    assert code == 1 and rep["t0_separating"] is False
    assert rep["witness"] == ["x", "z"]


def test_cli_hom_not_a_homomorphism(capsys, tmp_path):
    """M3 onto the 2-chain sending one atom up: b∨c = 1 maps to 1, but
    f(b)∨f(c) = 0."""
    hpath = tmp_path / "h.json"
    hpath.write_text(json.dumps({
        "source": "m3",
        "target": "chain2",
        "map": [["0", "0"], ["a", "1"], ["b", "0"], ["c", "0"], ["1", "1"]],
    }))
    code, rep = run(capsys, "hom", str(hpath), "--induced", "--separative")
    assert code == 1 and rep["valid_hom"] is False
    assert rep["witness"]
    assert "induced" not in rep and "separative" not in rep


def test_cli_hom_not_normal(capsys, tmp_path):
    """fivepoint is not normal: --induced and --laws on its identity exit
    2 with the NotNormal message naming the source, and no traceback."""
    hpath = tmp_path / "id.json"
    hpath.write_text(json.dumps({
        "source": "fivepoint",
        "target": "fivepoint",
        "map": [[nm, nm] for nm in ("0", "a", "b", "c", "1")],
    }))
    for flags in (["--induced"], ["--laws", str(hpath)]):
        code = cli.main(["hom", str(hpath), *flags])
        out, err = capsys.readouterr()
        assert (code, out) == (2, ""), flags
        assert err == "error: source lattice not normal, witness (1, 2)\n", flags


def test_cli_hom_no_unique_extension_names_the_point(capsys, tmp_path):
    """2² onto {0, a, b, 1} in M3 is a hom between normal lattices whose
    ult is undefined: h⁻¹(↑c) = {1} lies in both ultrafilters of 2².
    --induced, and --laws after M3's identity, where the composite is
    checked first, exit 2 with a message naming the point ^c and both
    lattices, and no traceback."""
    hpath, idpath = tmp_path / "h.json", tmp_path / "id.json"
    hpath.write_text(json.dumps({
        "source": "powerset2",
        "target": "m3",
        "map": [["{}", "0"], ["{0}", "a"], ["{1}", "b"], ["{0,1}", "1"]],
    }))
    idpath.write_text(json.dumps({
        "source": "m3",
        "target": "m3",
        "map": [[nm, nm] for nm in ("0", "a", "b", "c", "1")],
    }))
    for flags in (["--induced"], ["--laws", str(idpath)]):
        code = cli.main(["hom", str(hpath), *flags])
        out, err = capsys.readouterr()
        assert (code, out) == (2, ""), flags
        assert err == (
            "error: 2 ultrafilter extensions found above the preimage of ^c"
            " under the hom powerset2 -> m3\n"
        ), flags


def test_no_unique_extension_names_unnamed_lattices():
    """An unnamed source or target is called source or target."""
    def unnamed(L):
        return FiniteLattice.from_up_rows(L.names, [L.up_mask(a) for a in range(L.n)])

    P, m3 = io.resolve_lattice("powerset2"), io.resolve_lattice("m3")
    emb = (0, 1, 2, 4)  # {} -> 0, {0} -> a, {1} -> b, {0,1} -> 1
    for h, pair in (
        (homs.LatticeHom(unnamed(P), m3, emb), "source -> m3"),
        (homs.LatticeHom(P, unnamed(m3), emb), "powerset2 -> target"),
    ):
        for entry in (homs.induced_map, homs.surjectivity_from_kernel):
            with pytest.raises(NonUniqueExtension, match=f"of \\^c under the hom {pair}$"):
                entry(h)


@pytest.mark.parametrize("name", io.FIXTURE_NAMES)
def test_cli_filters_all_fast_matches_brute(capsys, name):
    """The fast `all` enumeration agrees with brute (--oracle) on every
    fixture, M3 and N5 included: it needs no distributivity."""
    argv = ["filters", name, "--class", "all", "--strategy", "fast", "--oracle"]
    code, rep = run(capsys, *argv)
    assert code == 0 and rep["oracle"] == {"strategy": "brute", "agree": True}
    _, brute = run(capsys, "filters", name, "--class", "all")
    assert rep["filters"] == brute["filters"]


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


def test_cli_cert_rank_phi_needs_member(capsys, tmp_path, family_path):
    missing = str(tmp_path / "nophi.json")
    code, err = run_err(capsys, "cert", family_path, "rank", "--phi", missing)
    assert code == 2 and err == "error: cert rank --phi needs --member\n"


def test_cli_cert_rank_large_group(capsys, tmp_path):
    """Twenty members in one group, beyond the centered enumeration cap;
    the rank is the ord count, so it still answers."""
    fam_path = tmp_path / "fam.json"
    fam_path.write_text(json.dumps({
        "ground": ["x", "y"],
        "members": [{"id": f"u{i}", "set": ["x"], "group": 0} for i in range(20)],
    }))
    code, rep = run(capsys, "cert", str(fam_path), "rank")
    assert code == 0
    assert rep["groups"]["0"] == {"max_centered_size": 20, "max_ord": 20}


def test_cli_cert_rank_unknown_member(capsys, family_path):
    code, err = run_err(capsys, "cert", family_path, "rank", "--member", "zz")
    # a KeyError reaches stderr as its message, not as the repr of it
    assert code == 2 and err == "error: no phi value for 'zz'\n"


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


@pytest.mark.parametrize("field, labels, bad", [
    ("set", ["x", "zz", "yy"], "'zz'"),
    ("set", [7, "x", "zz"], "7"),
    ("stages[0]", ["yy", "zz"], "'yy'"),
])
def test_family_names_the_first_bad_label(field, labels, bad):
    """A label list with two faults is reported at its first one."""
    member = {"id": "u", "set": ["x"]}
    if field == "set":
        member["set"] = labels
    else:
        member["stages"] = [labels]
    with pytest.raises(ValueError) as got:
        io.family_from_dict({"ground": ["x"], "members": [member]})
    assert str(got.value) == f"member 'u': {field} names {bad}, not a ground point"


@pytest.mark.parametrize("raw, message", [
    ({"elements": "ab", "covers": []}, 'lattice field "elements" is not a list'),
    (
        {"elements": ["a", "b"], "leq": [["a"]]},
        """lattice field "leq" holds ['a'], not a [lo, hi] pair""",
    ),
    (
        {"elements": [0, 1], "covers": [[0, 1]]},
        'lattice field "elements" holds 0, not a string',
    ),
    ({"elements": [0], "covers": []}, 'lattice field "elements" holds 0, not a string'),
    (
        {"elements": ["a", "b"], "leq": [["a", "b"]], "name": ["x"]},
        'lattice field "name" is not a string',
    ),
    ({"elements": ["a", "b", "a"], "covers": []}, "element names must be unique"),
    (
        {"elements": ["a"], "covers": [], "leq": []},
        'give exactly one of "covers" or "leq"',
    ),
    ({"elements": ["a"]}, 'give exactly one of "covers" or "leq"'),
    ({"elements": ["a"], "covers": "ab"}, 'lattice field "covers" is not a list'),
    ({"elements": [], "covers": []}, "a lattice needs at least one element"),
    (
        {"elements": [f"e{i}" for i in range(SIZE_CAP + 1)], "covers": []},
        f"{SIZE_CAP + 1} elements exceeds the cap of {SIZE_CAP}",
    ),
    (
        {"elements": ["a", "b"], "covers": [["a", "zz"]]},
        "unknown element in pair ['a', 'zz']",
    ),
])
def test_cli_check_bad_lattice_file(capsys, tmp_path, raw, message):
    path = tmp_path / "lat.json"
    path.write_text(json.dumps(raw))
    code, err = run_err(capsys, "check", str(path))
    assert code == 2 and err == f"error: {message}\n"


@pytest.mark.parametrize("raw, message", [
    ([1], 'a hom file holds {"source", "target", "map"}'),
    (
        {"source": "chain3", "target": "chain2"},
        'hom field "map" is missing or not a list',
    ),
    (
        {"source": "chain3", "target": "chain2", "map": [["0"]]},
        """hom field "map" holds ['0'], not an [element, image] pair""",
    ),
    (
        {"source": "chain3", "target": "chain2",
         "map": [["0", "0"], ["m", "zz"], ["1", "1"]]},
        "hom map pair ['m', 'zz']: 'zz' is not a target element",
    ),
    (
        {"source": "chain3", "target": "chain2", "map": [["q", "0"]]},
        "hom map pair ['q', '0']: 'q' is not a source element",
    ),
    (
        {"source": "chain3", "target": "chain2", "map": [["0", "0"], ["0", "1"]]},
        "hom map sends '0' to both '0' and '1'",
    ),
])
def test_cli_hom_bad_file(capsys, tmp_path, raw, message):
    path = tmp_path / "h.json"
    path.write_text(json.dumps(raw))
    code, err = run_err(capsys, "hom", str(path))
    assert code == 2 and err == f"error: {message}\n"


# -- one parser per process ---------------------------------------------------


def _call(argv):
    """cli.main on argv, as (exit code, stdout, stderr) with the timing
    values blanked; argparse usage errors exit through SystemExit."""
    out, err = StringIO(), StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    blank = re.compile(r'(total"?: )[0-9.]+')
    return code, blank.sub(r"\1T", out.getvalue()), err.getvalue()


def test_cli_shared_parser_matches_fresh(monkeypatch, tmp_path, family_path):
    hom_path = tmp_path / "h.json"
    hom_path.write_text(json.dumps({
        "source": "chain3", "target": "chain2",
        "map": [["0", "0"], ["m", "0"], ["1", "1"]],
    }))
    sequence = [
        ["check", "fivepoint", "--require", "normal"],
        ["--pretty", "filters", "chain3", "--class", "ultra"],
        ["space", "chain3", "--pretty", "--kind", "prime", "--axioms"],
        ["suite", "powerset2"],
        ["cert", family_path, "rank", "--frobnicate"],
        ["cert", family_path, "bogus"],
        ["hom", str(hom_path), "--separative"],
        ["stone", "divisor12", "--pretty"],
        ["check", "no_such_file.json"],
        ["cert", family_path, "ord", "--point", "x"],
        ["gen", "--kind", "downset", "--size", "3", "--seed", "2"],
        ["--pretty", "cert", family_path, "t0", "--pretty"],
    ]
    cli.build_parser.cache_clear()
    shared = [_call(argv) for argv in sequence]
    assert cli.build_parser.cache_info().misses == 1
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = [_call(argv) for argv in sequence]
    assert shared == fresh
    assert [code for code, _, _ in shared] == [1, 0, 0, 0, 2, 2, 0, 0, 2, 0, 0, 0]
    assert "unrecognized arguments: --frobnicate" in shared[4][2]
    assert shared[5][2].startswith("usage: wallman cert")
    assert shared[8][2].startswith("error: ")


def test_cli_builds_parser_once(capsys):
    cli.build_parser.cache_clear()
    for _ in range(5):
        assert cli.main(["check", "chain3"]) == 0
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 4)


_ROOT = pathlib.Path(__file__).resolve().parents[1]


def _python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(_ROOT / "src")] + env.get("PYTHONPATH", "").split(os.pathsep)
    )
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, timeout=120
    )


def test_cli_parser_not_built_at_import():
    out = _python("-c", "from wallman import cli; print(cli.build_parser.cache_info())")
    assert out.returncode == 0 and "currsize=0" in out.stdout.decode()


def test_cli_runs_under_optimize_OO():
    plain = _python("-m", "wallman.cli", "check", "chain3")
    stripped = _python("-OO", "-m", "wallman.cli", "check", "chain3")
    assert (plain.returncode, stripped.returncode) == (0, 0)
    assert stripped.stderr == b""
    a, b = json.loads(plain.stdout), json.loads(stripped.stdout)
    a.pop("timings_ms")
    b.pop("timings_ms")
    assert a == b


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_corpus_suite_output_unchanged(flags):
    out = _python(*flags, str(_ROOT / "scripts" / "corpus_suite.py"))
    assert out.returncode == 0 and out.stderr == b""
    assert hashlib.md5(out.stdout).hexdigest() == "3f0662ea2a460a53ec982d166ce2614d"


# -- fuzzed input files ---------------------------------------------------------

_WORDS = [
    "name", "elements", "covers", "leq", "source", "target", "map",
    "ground", "members", "id", "set", "group", "stages", "u", "v",
    "0", "1", "m", "x", "chain2", "chain3", "m3",
]
_json_docs = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 4)
    | st.floats(allow_nan=False, allow_infinity=False, width=16)
    | st.sampled_from(_WORDS)
    | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_WORDS) | st.text(max_size=2), inner, max_size=4),
    max_leaves=12,
)


@given(doc=_json_docs)
@settings(max_examples=150, deadline=None)
def test_cli_fuzzed_input_files(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        fam_path = os.path.join(tmp, "fam.json")
        with open(fam_path, "w") as fh:
            json.dump({
                "ground": ["x", "y"],
                "members": [
                    {"id": "u", "set": ["x", "y"], "group": 0},
                    {"id": "v", "set": ["x"], "group": 1},
                ],
            }, fh)
        for argv in (
            ["check", path],
            ["hom", path],
            ["cert", path, "t0"],
            ["cert", fam_path, "rank", "--member", "u", "--phi", path],
        ):
            code, _, err = _call(argv)
            assert code in (0, 1, 2) and "Traceback" not in err, (argv, err)
