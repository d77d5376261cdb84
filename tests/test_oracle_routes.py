"""The brute-force oracles stay off the run-time paths.

enumerate_filters with the "brute" (its default) or "exhaustive" strategy
is the definitional oracle behind `wallman filters --oracle/--strategy`;
everything else reads filters off atoms and join-primes.  Its brute prime
route, the pass over pairs _non_prime_generators, reaches none of the
functions the fast path argues from (join_primes, join_irreducibles, atoms,
is_distributive), so the two routes share no lemma.  The triple scan
_distributivity_scan is the witness search of is_distributive only, and the
key pair scan _first_unclosed_pair the witness search of from_keys, run
only once its ring-of-sets check has failed.

Each public hom entry verifies its input once, through _require_hom, which
reads the verdict cached in LatticeHom.law, so the entries may call each
other and a hom object is verified once in all; cli.py names no private
function of another module.  The centered enumeration is written once, in
centered_subsets, which the chain search calls, and the order step _step
serves gulko_lt only: the chain search makes no pairwise scan of centered
sets.  On a keyed lattice atoms, is_boolean, is_separative, is_normal and
build_space read its ground points and reach none of the order-row and
mask helpers.

The refinement flags and alexandrov's onto map hold by construction: the
refinement reaches none of the scans that used to measure its flags, and
alexandrov chases no preimage and closes no family of classes.  So do the
clauses of theorem_suite, which builds no space and measures no
separation axiom, and so do the functor laws and the preimage law:
functor_laws and separativity_equivalence build no induced map.  Of the
hom entries only induced_map and alexandrov, which return a space, build
one; the others read ult(h) as its point map.
verify_hom decides the law through the dual check _dual_law_holds, and
its pair scan runs only once that check has failed.
"""

import ast
import copy
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "wallman"


def top_level_functions(tree):
    """Module-level functions and methods; nested functions belong to
    the one they are defined in."""
    for node in tree.body:
        body = node.body if isinstance(node, ast.ClassDef) else [node]
        yield from (n for n in body if isinstance(n, ast.FunctionDef))


def calls_to(name):
    """(module file, top-level function or "<module>", Call node) for each
    call of name, plain or as an attribute."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = {
            node: fn.name
            for fn in top_level_functions(tree)
            for node in ast.walk(fn)
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if (getattr(f, "attr", None) or getattr(f, "id", None)) == name:
                out.append((path.name, owner.get(node, "<module>"), node))
    return out


def strategy_of(call):
    """The strategy argument as a literal, "brute" when omitted, None when
    it is not a literal."""
    arg = call.args[2] if len(call.args) > 2 else None
    for kw in call.keywords:
        if kw.arg == "strategy":
            arg = kw.value
    if arg is None:
        return "brute"
    return arg.value if isinstance(arg, ast.Constant) else None


def test_filter_oracles_only_in_filters_and_cli():
    calls = calls_to("enumerate_filters")
    assert calls
    oracle = {
        (module, fn)
        for module, fn, call in calls
        if strategy_of(call) != "fast"
    }
    assert {module for module, _ in oracle} <= {"filters.py", "cli.py"}, oracle


def test_distributivity_scan_only_in_is_distributive():
    calls = calls_to("_distributivity_scan")
    assert {(module, fn) for module, fn, _ in calls} == {
        ("lattice.py", "is_distributive")
    }


def test_hom_verified_once_per_public_entry():
    calls = calls_to("_require_hom")
    owners = [fn for module, fn, _ in calls if module == "homs.py"]
    assert {module for module, _, _ in calls} == {"homs.py"}
    assert sorted(owners) == sorted(set(owners))
    assert set(owners) == {
        "induced_map",
        "is_separative_hom",
        "separativity_equivalence",
        "functor_laws",
        "surjectivity_from_kernel",
        "embedding_from_separation",
    }


def test_cli_names_no_private_function_of_another_module():
    """cli.py reaches the package through its public entries: no
    underscore-prefixed name of another wallman module, by attribute or by
    import."""
    tree = ast.parse((SRC / "cli.py").read_text())
    relative = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
    ]
    modules = {
        alias.asname or alias.name
        for node in relative
        if node.module is None
        for alias in node.names
    }
    assert "homs" in modules
    private = [
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
        and node.attr.startswith("_")
    ]
    private += [
        alias.name
        for node in relative
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private, private


def test_keyed_points_walked_in_lattice_alone():
    """homs.py, spaces.py, filters.py, io.py, cli.py and gen.py reach a
    keyed lattice's points through lattice.py's helpers: they name no
    _point_* helper, by import, by name or by attribute, and read neither
    a lattice's keys nor its key index.  A call x.keys() is a dict's
    method, not the lattice's tuple of keys, and is allowed."""
    for module in (
        "homs.py", "spaces.py", "filters.py", "io.py", "cli.py", "gen.py"
    ):
        tree = ast.parse((SRC / module).read_text())
        called = {id(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)}
        names, attrs = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names |= {alias.name for alias in node.names}
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and id(node) not in called:
                attrs.add(node.attr)
        bad = {
            name
            for name in names | attrs
            if name.startswith("_point_") or name == "_key_index"
        }
        bad |= attrs & {"keys"}
        assert not bad, (module, bad)


def test_centered_enumeration_only_in_centered_subsets():
    """The centered enumeration is written once: its cap is read by
    centered_subsets alone, in all of the package."""
    readers = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in top_level_functions(tree):
            if any(
                isinstance(n, ast.Name)
                and n.id.lstrip("_") == "CENTERED_ENUM_CAP"
                for n in ast.walk(fn)
            ):
                readers.add((path.name, fn.name))
    assert readers == {("covers.py", "centered_subsets")}


def test_chain_search_enumerates_through_centered_subsets():
    """The rank search takes its centered sets from centered_subsets,
    whose results the benchmark's covers.centered_sets counter sums, so
    that counter includes the search's own enumeration."""
    calls = calls_to("centered_subsets")
    assert ("covers.py", "_chain_search") in {
        (module, fn) for module, fn, _ in calls
    }


def test_order_step_only_in_gulko_lt():
    """The rank search reads its successors off bitsets of centered sets,
    so the order step between two member sets serves gulko_lt alone and
    no pairwise scan of centered sets comes back."""
    calls = calls_to("_step")
    assert {(module, fn) for module, fn, _ in calls} == {
        ("covers.py", "gulko_lt")
    }


def test_key_pair_scan_only_when_the_ring_check_fails():
    calls = calls_to("_first_unclosed_pair")
    assert {(module, fn) for module, fn, _ in calls} == {
        ("lattice.py", "from_keys")
    }
    tree = ast.parse((SRC / "lattice.py").read_text())
    from_keys = next(
        fn for fn in top_level_functions(tree) if fn.name == "from_keys"
    )
    guarded = set()
    for node in ast.walk(from_keys):
        if isinstance(node, ast.If) and any(
            isinstance(t, ast.UnaryOp)
            and isinstance(t.op, ast.Not)
            and isinstance(t.operand, ast.Call)
            and getattr(t.operand.func, "id", None) == "_is_ring_of_sets"
            for t in ast.walk(node.test)
        ):
            guarded |= {
                (n.lineno, n.col_offset)
                for stmt in node.body
                for n in ast.walk(stmt)
                if isinstance(n, ast.Call)
            }
    assert all((c.lineno, c.col_offset) in guarded for _, _, c in calls)


def function_index():
    """Every module-level function and method of the package, by name
    (methods of one name are pooled)."""
    index = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in top_level_functions(tree):
            index.setdefault(fn.name, []).append(fn)
    return index


def called_names(nodes):
    return {
        getattr(n.func, "attr", None) or getattr(n.func, "id", None)
        for node in nodes
        for n in ast.walk(node)
        if isinstance(n, ast.Call)
    }


def reached_from(nodes, index):
    """Every name called from nodes, followed by name through index."""
    reached = set()
    todo = called_names(nodes)
    while todo:
        name = todo.pop()
        reached.add(name)
        todo |= called_names(index.get(name, [])) - reached
    return reached


def test_brute_prime_route_shares_nothing_with_the_fast_path():
    """Every function the brute branch of enumerate_filters reaches, by
    name through the package, avoids the fast path's generators."""
    index = function_index()
    (enum,) = index["enumerate_filters"]
    (brute,) = [
        node
        for node in ast.walk(enum)
        if isinstance(node, ast.If)
        and isinstance(node.test, ast.Compare)
        and getattr(node.test.left, "id", None) == "strategy"
        and getattr(node.test.comparators[0], "value", None) == "brute"
    ]
    reached = reached_from(brute.body, index)
    assert "_non_prime_generators" in reached
    fast = {"join_primes", "join_irreducibles", "atoms", "is_distributive"}
    assert not reached & fast, reached & fast


def is_keyed_test(node):
    """`if <lattice>.keys is not None:`, the branch a keyed lattice takes."""
    test = getattr(node, "test", None)
    return (
        isinstance(node, ast.If)
        and isinstance(test, ast.Compare)
        and getattr(test.left, "attr", None) == "keys"
        and isinstance(test.ops[0], ast.IsNot)
        and getattr(test.comparators[0], "value", 0) is None
    )


def keyed_path(fn):
    """A copy of fn as it runs on a keyed lattice: each keyed branch keeps
    its body only, and when that body ends in a return the statements
    after it in the same block go too."""

    def prune(stmts):
        out = []
        for stmt in stmts:
            if is_keyed_test(stmt):
                out += prune(stmt.body)
                if isinstance(stmt.body[-1], ast.Return):
                    break
                continue
            for name in ("body", "orelse", "finalbody"):
                if isinstance(getattr(stmt, name, None), list):
                    setattr(stmt, name, prune(getattr(stmt, name)))
            out.append(stmt)
        return out

    fn = copy.deepcopy(fn)
    fn.body = prune(fn.body)
    return fn


def test_keyed_point_routes_read_no_rows():
    """On a keyed lattice atoms, is_boolean, is_separative, is_normal,
    build_space, ultrafilter_extensions and _disjoint_masks reach, by name
    through the package and along the keyed branch of every function that
    has one, none of the row helpers."""
    index = function_index()
    rows = {"materialize_rows", "_join_to_top_masks", "up_mask", "down_mask"}
    entries = (
        "atoms",
        "is_boolean",
        "is_separative",
        "is_normal",
        "build_space",
        "ultrafilter_extensions",
        "_disjoint_masks",
    )
    # these do not branch themselves: they call routes that each branch,
    # is_boolean the predicates and the others _generator_ups
    unbranched = {
        "is_boolean",
        "build_space",
        "ultrafilter_extensions",
        "_disjoint_masks",
    }
    for public in entries:
        (fn,) = index[public]
        if public not in unbranched:
            assert any(is_keyed_test(node) for node in ast.walk(fn)), public
        reached = set()
        todo = called_names([keyed_path(fn)])
        while todo:
            name = todo.pop()
            reached.add(name)
            paths = [keyed_path(f) for f in index.get(name, [])]
            todo |= called_names(paths) - reached
        assert "_point_meets" in reached, public
        assert not reached & rows, (public, reached & rows)


def test_constructions_skip_the_checks_they_make_true():
    """_refine's flags and alexandrov's onto map hold by construction, so
    neither reaches the scans that used to re-measure them."""
    index = function_index()
    assert not reached_from(index["_refine"], index) & {
        "is_T0_separating",
        "ord_count",
        "centered_poset_rank",
    }
    reached = reached_from(index["alexandrov"], index)
    assert "build_space" in reached
    assert not reached & {"preimage_filter", "union_closure"}


def test_hom_laws_build_no_induced_map():
    """functor_laws and separativity_equivalence decide the functor laws
    and the preimage law by construction, and surjectivity_from_kernel
    and embedding_from_separation read ult(h) as its point map: none of
    them builds an induced map or a space.  Within homs.py only the
    entries that return a space, induced_map and alexandrov, reach
    build_space."""
    index = function_index()
    for entry in (
        "functor_laws",
        "separativity_equivalence",
        "surjectivity_from_kernel",
        "embedding_from_separation",
    ):
        assert not reached_from(index[entry], index) & {
            "_induced",
            "SpaceMap",
            "build_space",
        }, entry
    tree = ast.parse((SRC / "homs.py").read_text())
    builders = {
        fn.name
        for fn in top_level_functions(tree)
        if "build_space" in reached_from([fn], index)
    }
    assert builders == {"induced_map", "alexandrov"}


def test_theorem_suite_builds_no_space():
    index = function_index()
    reached = reached_from(index["theorem_suite"], index)
    assert "is_normal" in reached
    assert not reached & {"build_space", "separation_axioms"}


def test_hom_pair_scan_only_after_the_dual_check_fails():
    """In verify_hom every meet and join call comes after the statement
    `if _dual_law_holds(h): return (True, None)`, and the dual check is
    made there only."""
    calls = calls_to("_dual_law_holds")
    assert {(module, fn) for module, fn, _ in calls} == {
        ("homs.py", "verify_hom")
    }
    (verify,) = function_index()["verify_hom"]
    (gate,) = [
        i
        for i, stmt in enumerate(verify.body)
        if isinstance(stmt, ast.If)
        and isinstance(stmt.test, ast.Call)
        and getattr(stmt.test.func, "id", None) == "_dual_law_holds"
        and isinstance(stmt.body[-1], ast.Return)
    ]
    scan = called_names(verify.body[gate + 1 :])
    assert {"meet", "join"} <= scan
    assert not called_names(verify.body[:gate]) & {"meet", "join"}
