"""Guards against leftovers in src/braidmf, tests and demos: an import no
line of its module uses, or a private module-level function, class or
constant that nothing in its directory refers to, is dead code that a
deletion left behind.  So is an oracle in tests/oracles.py that no test
uses, and so is a class that writes out the immutable-record rule again
instead of subclassing perm.Record.  A public module-level name of
src/braidmf that only tests read is test code in the package, unless
TEST_ONLY gives the reason it stays; so is a parameter default that only
tests override, unless NEVER_OVERRIDDEN gives the reason.

The checks read the source with `ast` and import nothing.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIRS = {
    d: {p.name: ast.parse(p.read_text(), str(p)) for p in sorted((ROOT / d).glob("*.py"))}
    for d in ("src/braidmf", "tests", "demos")
}
BENCH = [ast.parse(p.read_text()) for p in sorted((ROOT / "bench").glob("*.py"))]


def _references(node):
    """Names that nodes under `node` read: plain names (not assignment
    targets), attribute names, and the names an import takes from another
    module."""
    refs = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            refs.update(alias.name for alias in sub.names)
    return refs


def test_every_import_is_used():
    unused = []
    for d, modules in DIRS.items():
        for name, tree in modules.items():
            used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            for node in ast.walk(tree):
                if not isinstance(node, (ast.Import, ast.ImportFrom)):
                    continue
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{d}/{name}: {bound}")
    assert unused == []


def _definitions(tree):
    """(name, references from inside its own body) for each module-level
    function, class and assigned name: a reference from inside its own
    body (recursion) does not count."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, _references(node)[node.name]
        elif isinstance(node, ast.Assign):
            yield from ((t.id, 0) for t in node.targets if isinstance(t, ast.Name))


def test_every_private_definition_is_referenced():
    unreferenced = []
    for d, modules in DIRS.items():
        total = sum((_references(tree) for tree in modules.values()), Counter())
        for name, tree in modules.items():
            for key, own in _definitions(tree):
                private = key.startswith("_") and not key.endswith("__")
                if private and total[key] <= own:
                    unreferenced.append(f"{d}/{name}: {key}")
    assert unreferenced == []


# Public package names that only tests read, each kept for a stated reason.
TEST_ONLY = {"braid.word_permutation": "ROADMAP item 19"}


def test_every_public_definition_has_a_reader():
    # A reader is a name, attribute or import anywhere in the package
    # outside the definition itself, in demos/ or in bench/; in bench/ a
    # "layer.name" string counts too, the way the tracer names what it
    # wraps.  Methods are not judged: their names do not say their class.
    trees = [*DIRS["src/braidmf"].values(), *DIRS["demos"].values(), *BENCH]
    readers = sum((_references(tree) for tree in trees), Counter())
    strings = {
        n.value
        for tree in BENCH
        for n in ast.walk(tree)
        if isinstance(n, ast.Constant) and isinstance(n.value, str)
    }
    unread = []
    for name, tree in DIRS["src/braidmf"].items():
        for key, own in _definitions(tree):
            full = f"{name.removesuffix('.py')}.{key}"
            named = any(s == full or s.startswith(full + ".") for s in strings)
            if not key.startswith("_") and readers[key] <= own and not named:
                unread.append(full)
    assert sorted(unread) == sorted(TEST_ONLY)


def test_every_oracle_is_used_by_a_test():
    tests = DIRS["tests"]
    used = sum(
        (_references(tree) for name, tree in tests.items() if name.startswith("test_")),
        Counter(),
    )
    oracles = [
        node.name
        for node in tests["oracles.py"].body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]
    assert [name for name in oracles if not used[name]] == []


# The classes that may define the record rule's methods themselves: Record,
# which is the rule; Perm, whose == and hash compare one images tuple and
# are the orbit verdicts' hot path; and FreeWord (with BraidWord), whose ==
# and hash compare rank and letters and are the braid search's hot path.
RULE_OWNERS = {"Record", "Perm", "FreeWord"}
RULE_METHODS = {"__setattr__", "__delattr__", "__eq__", "__hash__"}


def test_the_record_rule_is_written_once():
    # `__hash__ = None` (an unhashable record) is allowed
    found = []
    for name, tree in DIRS["src/braidmf"].items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef) or cls.name in RULE_OWNERS:
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef):
                    defined = [node.name]
                elif isinstance(node, ast.Assign):
                    defined = [t.id for t in node.targets if isinstance(t, ast.Name)]
                    if defined == ["__hash__"] and getattr(node.value, "value", 0) is None:
                        continue
                else:
                    continue
                found += [f"{name}: {cls.name}.{d}" for d in defined if d in RULE_METHODS]
    assert found == []


def _default_params(tree):
    """(callee name, positional index or None, parameter name) for every
    parameter default of a module's functions and methods.  A method's
    index does not count self, and __init__ is called by its class name;
    a keyword-only parameter has no index."""
    funcs = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            funcs.append((node.name, node, 0))
        elif isinstance(node, ast.ClassDef):
            funcs += [
                (node.name if m.name == "__init__" else m.name, m, 1)
                for m in node.body
                if isinstance(m, ast.FunctionDef)
            ]
    for name, fn, skip in funcs:
        a = fn.args
        positional = a.posonlyargs + a.args
        for k in range(len(positional) - len(a.defaults), len(positional)):
            yield name, k - skip, positional[k].arg
        for p, d in zip(a.kwonlyargs, a.kw_defaults):
            if d is not None:
                yield name, None, p.arg


def _calls():
    """Callee name -> (positional argument count, keyword names) of every
    call in the package, the benchmark and the demos, matched by name; a
    call that unpacks * or ** counts as passing every positional
    argument."""
    trees = [*DIRS["src/braidmf"].values(), *DIRS["demos"].values(), *BENCH]
    calls = {}
    for node in (n for t in trees for n in ast.walk(t) if isinstance(n, ast.Call)):
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        unpacks = any(isinstance(x, ast.Starred) for x in node.args) or any(
            k.arg is None for k in node.keywords
        )
        npos = float("inf") if unpacks else len(node.args)
        calls.setdefault(name, []).append((npos, {k.arg for k in node.keywords}))
    return calls


def test_every_default_is_left_out_by_some_caller():
    # a default that every call in the package, the benchmark and the demos
    # overrides is dead; a function nothing there calls is not judged
    calls = _calls()
    dead = [
        f"{module}: {name}({param}=...)"
        for module, tree in DIRS["src/braidmf"].items()
        for name, index, param in _default_params(tree)
        if name in calls
        and not any(
            param not in keys and (index is None or npos <= index)
            for npos, keys in calls[name]
        )
    ]
    assert dead == []


# Defaults that no call in the package, the benchmark or the demos
# overrides, each kept for a stated reason.
NEVER_OVERRIDDEN = {
    "s4orbit.py: verify_nonconjugacy(left=...)": "c02 checks the swapped sides",
    "s4orbit.py: verify_nonconjugacy(right=...)": "c02 checks the swapped sides",
}


def test_every_default_is_overridden_by_some_caller():
    # a parameter that only tests set is a test knob in the package: a
    # resource cap is a module constant that tests patch instead.  A call
    # that unpacks * or ** may set any parameter; a function nothing calls
    # overrides none of its defaults.
    calls = _calls()
    fixed = [
        f"{module}: {name}({param}=...)"
        for module, tree in DIRS["src/braidmf"].items()
        for name, index, param in _default_params(tree)
        if not any(
            param in keys
            or npos == float("inf")
            or (index is not None and npos > index)
            for npos, keys in calls.get(name, [])
        )
    ]
    assert sorted(fixed) == sorted(NEVER_OVERRIDDEN)
