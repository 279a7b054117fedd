"""Every public name of a soficlab submodule is reached from an experiment,
the CLI or an acceptance criterion.

The walk is static. It parses each submodule, maps every top-level name to
the statement that defines or imports it, and follows references from the
roots: `experiments.REGISTRY`, `run_experiment`, `validate_config`,
`config_checksum`, `cli.main`, and every soficlab name that
`tests/test_acceptance.py` imports. A reached name that is an import
(`from .x import a as b`, `from . import x as y`) reaches its target; a
reached definition reaches every top-level name it mentions, directly or
as an attribute of an imported module. Reaching a class reaches all of its
methods. Unit tests are not roots, so a name only they use fails here.
"""

import ast
from pathlib import Path
from typing import Dict, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "soficlab"
ROOTS = (
    ("experiments", "REGISTRY"),
    ("experiments", "run_experiment"),
    ("experiments", "validate_config"),
    ("experiments", "config_checksum"),
    ("cli", "main"),
)

Name = Tuple[str, str]  # (submodule, top-level name)


def _module_tables(module: str):
    """Top-level definitions, import aliases, module aliases and `__all__`."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    defs: Dict[str, ast.AST] = {}
    aliases: Dict[str, Name] = {}
    modules: Dict[str, str] = {}
    public: Tuple[str, ...] = ()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    defs[target.id] = node
                    if target.id == "__all__":
                        public = tuple(ast.literal_eval(node.value))
        elif isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module is None:
                    modules[local] = alias.name
                else:
                    aliases[local] = (node.module, alias.name)
    return defs, aliases, modules, public


def _reached() -> Tuple[Set[Name], Dict[str, Tuple[str, ...]]]:
    names = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
    tables = {m: _module_tables(m) for m in names}
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    todo = list(ROOTS)
    for node in acceptance.body:
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("soficlab."):
            todo += [(node.module.split(".", 1)[1], alias.name) for alias in node.names]
    seen: Set[Name] = set()
    while todo:
        item = todo.pop()
        if item in seen or item[0] not in tables:
            continue
        seen.add(item)
        module, name = item
        defs, aliases, modules, _ = tables[module]
        if name in aliases:
            todo.append(aliases[name])
            continue
        if name not in defs:
            continue
        for node in ast.walk(defs[name]):
            if isinstance(node, ast.Name) and (node.id in defs or node.id in aliases):
                todo.append((module, node.id))
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
            ):
                todo.append((modules[node.value.id], node.attr))
    return seen, {m: tables[m][3] for m in names}


def test_every_public_name_is_reached():
    seen, public = _reached()
    unreached = [f"{m}.{n}" for m, names in public.items() for n in names if (m, n) not in seen]
    assert not unreached, f"public names no experiment, CLI path or acceptance criterion reaches: {unreached}"
