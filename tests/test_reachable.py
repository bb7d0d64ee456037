"""Every top-level name in src/uglov is reached from cli.main, save the
few kept on purpose: code that no feature uses is deleted, not kept."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "uglov"

KEPT = {
    # traced by perfbench/child.py, which needs them until it is retraced
    ("diagrams", "compare_uglov"),
    ("diagrams", "removable_nodes"),
    ("crystal", "expand_monomial"),
    ("crystal", "uglov_layers"),
    ("crystal", "good_removable_node"),
    ("admissible", "removable_class"),
}


def _targets(node):
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.AnnAssign):
        return [node.target.id]
    if isinstance(node, ast.Assign):
        return [name.id for target in node.targets
                for name in ast.walk(target) if isinstance(name, ast.Name)]
    return []


def package():
    """({(module, name): defining node} over the top-level functions,
    classes and assignments, {module: {local name: (module, name)}}), in
    which a name bound to a package module maps to (module, None)."""
    defs, scopes = {}, {}
    for path in SRC.glob("*.py"):
        mod = path.stem
        scope = scopes[mod] = {}
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    scope[alias.asname or alias.name] = (
                        (node.module, alias.name) if node.module
                        else (alias.name, None))
            for name in _targets(node):
                scope[name] = (mod, name)
                defs[mod, name] = node
    return defs, scopes


def reached(defs, scopes, root):
    """The definitions that names and module attributes lead to from
    root, read through each module's scope."""
    seen, todo = set(), [root]
    while todo:
        key = todo.pop()
        if key in seen or key not in defs:
            continue
        seen.add(key)
        scope = scopes[key[0]]
        for node in ast.walk(defs[key]):
            if isinstance(node, ast.Name):
                todo.append(scope.get(node.id))
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)):
                home = scope.get(node.value.id)
                if home and home[1] is None:
                    todo.append((home[0], node.attr))
    return seen


def test_every_top_level_name_is_reached_from_main():
    defs, scopes = package()
    assert ("cli", "main") in defs
    assert set(defs) - reached(defs, scopes, ("cli", "main")) == KEPT


def test_every_kept_name_is_traced():
    # KEPT holds only names the tracer needs, so it hides no dead code.
    path = SRC.parent.parent / "perfbench" / "child.py"
    traced = next(ast.literal_eval(node.value)
                  for node in ast.parse(path.read_text()).body
                  if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets] == ["TRACED"])
    assert all(name in traced.get(mod, ()) for mod, name in KEPT)


def readers(defs, scopes, key) -> set:
    """The (module, label) of every top-level name, or method as
    Class.method, whose body reads key, a (module, name), by name or as
    a module attribute."""
    def reads(node, scope):
        return any(
            scope.get(sub.id) == key if isinstance(sub, ast.Name) else
            isinstance(sub, ast.Attribute) and sub.attr == key[1]
            and isinstance(sub.value, ast.Name)
            and scope.get(sub.value.id) == (key[0], None)
            for sub in ast.walk(node))

    out = set()
    for (mod, name), node in defs.items():
        parts = ([(name + "." + sub.name, sub) for sub in node.body
                  if isinstance(sub, ast.FunctionDef)]
                 if isinstance(node, ast.ClassDef) else [(name, node)])
        out |= {(mod, label) for label, part in parts
                if reads(part, scopes[mod])}
    return out


def test_the_uglov_order_has_one_home():
    # The sweeps take the Uglov order from RimTable.bead_keys alone, and
    # compare_uglov keeps it for the tracer: no other top-level name or
    # method reads the bead masks or their shifts, so no sweep keys
    # bipartitions of its own.
    defs, scopes = package()
    for key in (("diagrams", "bead_mask"), ("diagrams", "bead_shifts")):
        assert readers(defs, scopes, key) == {
            ("crystal", "RimTable.bead_keys"),
            ("diagrams", "compare_uglov")}, key


def test_the_class_rule_has_one_home():
    # The (1)-link, a period once one bead moves down, and the (2)-link,
    # the row arithmetic of _partner, are read by the run scan of
    # class_step alone, and every reader of a class takes it from
    # class_step: both Adm recursions (adm_walk for the sweeps, adm_flotw
    # for `uglov show BP adm`), removable_class and propb.  So a change to
    # the class rule is made in one place, and reaches them all.
    defs, scopes = package()
    run = {("admissible", "_connected_class")}
    assert readers(defs, scopes, ("admissible", "period")) == run
    assert readers(defs, scopes, ("admissible", "_partner")) == run
    assert readers(defs, scopes, ("admissible", "_connected_class")) == {
        ("admissible", "class_step")}
    assert readers(defs, scopes, ("admissible", "class_step")) == {
        ("admissible", name) for name in (
            "adm_walk", "adm_flotw", "removable_class", "_propb_failures")}
