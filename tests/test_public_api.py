"""Every public name of a soficlab submodule, and every public method of a
public class, is reached from an experiment, the CLI or an acceptance
criterion.

The walk is static. It parses each submodule, maps every top-level name to
the statement that defines or imports it, and follows references from the
roots: `experiments.REGISTRY` and `run_experiment`, `config.validate_config`
and `config_checksum`, `cli.main`, and every soficlab name that
`tests/test_acceptance.py` imports. A reached name that is an import
(`from .x import a as b`, `from . import x as y`) reaches its target; a
reached definition reaches every top-level name it mentions, directly or
as an attribute of an imported module. Unit tests are not roots, so a name
only they use fails here.

Reaching a class reaches its bases, decorators, class-level statements and
its dunder and `_private` methods, but not its public methods. A public
method of a reached class is reached when its name occurs as an attribute
(`x.name`) in reached code or anywhere in `tests/test_acceptance.py`; its
body then counts as reached code, and the walk repeats to a fixpoint.

Methods are matched by name only, since the walk does not know the type of
`x`. So a method shares the fate of every other attribute with its name:
`DispersionReport.to_json`, which E8 writes, reaches every `to_json`, and a
dict's `.values()` reaches every `values` method. A method that only a
reached name of this kind covers is not caught here.

Parameters get the same audit. Every defaulted parameter of a reached
function or visited method must be passed by at least one call in reached
code or in `tests/test_acceptance.py`, and omitted by at least one: a
parameter no call sets is a knob that does nothing, and a default every call
overrides never runs. A call counts toward a callable by name only: a
function by its own name, `__init__` by its class's name, a method by its
attribute name. A call with `*args` or `**kwargs` passes every parameter.
So calls made through another name are not seen: E9 calls the three
defects through a loop variable `fn`, and a function imported under an
alias is called by the alias. Calls to two methods of one name are pooled,
as with the method rule, and dataclass fields are not parameters here.
`PARAMETER_ALLOWLIST` holds the exceptions, each with its reason, and an
entry the rule no longer flags fails too.
"""

import ast
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "soficlab"
ROOTS = (
    ("experiments", "REGISTRY"),
    ("experiments", "run_experiment"),
    ("config", "validate_config"),
    ("config", "config_checksum"),
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


def _public_methods(cls: ast.ClassDef) -> List[ast.FunctionDef]:
    return [
        node for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]


def _reached() -> Tuple[Set[Name], Set[Tuple[str, str, str]], Dict[str, tuple]]:
    names = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
    tables = {m: _module_tables(m) for m in names}
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    todo = list(ROOTS)
    for node in acceptance.body:
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("soficlab."):
            todo += [(node.module.split(".", 1)[1], alias.name) for alias in node.names]
    attrs = {node.attr for node in ast.walk(acceptance) if isinstance(node, ast.Attribute)}
    seen: Set[Name] = set()
    methods: Set[Tuple[str, str, str]] = set()

    def visit(module: str, node: ast.AST) -> None:
        """Queue the top-level names a reached node mentions, and note its attributes."""
        defs, aliases, modules, _ = tables[module]
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and (sub.id in defs or sub.id in aliases):
                todo.append((module, sub.id))
            elif isinstance(sub, ast.Attribute):
                attrs.add(sub.attr)
                if isinstance(sub.value, ast.Name) and sub.value.id in modules:
                    todo.append((modules[sub.value.id], sub.attr))

    while True:
        while todo:
            item = todo.pop()
            if item in seen or item[0] not in tables:
                continue
            seen.add(item)
            module, name = item
            defs, aliases, _, _ = tables[module]
            if name in aliases:
                todo.append(aliases[name])
            elif isinstance(defs.get(name), ast.ClassDef):
                cls = defs[name]
                held = _public_methods(cls)
                for part in [*cls.bases, *cls.keywords, *cls.decorator_list, *cls.body]:
                    if part not in held:
                        visit(module, part)
            elif name in defs:
                visit(module, defs[name])
        grown = False
        for module, name in sorted(seen):
            cls = tables[module][0].get(name)
            if not isinstance(cls, ast.ClassDef):
                continue
            for meth in _public_methods(cls):
                key = (module, name, meth.name)
                if key not in methods and meth.name in attrs:
                    methods.add(key)
                    visit(module, meth)
                    grown = True
        if not grown and not todo:
            return seen, methods, {m: tables[m] for m in names}


def test_every_public_name_is_reached():
    seen, _, tables = _reached()
    unreached = [f"{m}.{n}" for m, table in tables.items() for n in table[3] if (m, n) not in seen]
    assert not unreached, f"public names no experiment, CLI path or acceptance criterion reaches: {unreached}"


def test_every_public_method_is_reached():
    seen, methods, tables = _reached()
    unreached = [
        f"{m}.{n}.{meth.name}"
        for m, table in tables.items()
        for n in table[3]
        if (m, n) in seen and isinstance(table[0].get(n), ast.ClassDef)
        for meth in _public_methods(table[0][n])
        if (m, n, meth.name) not in methods
    ]
    assert not unreached, f"public methods no experiment, CLI path or acceptance criterion runs: {unreached}"


KERNEL = {"_good_mask", "_block_counts"}


def _names(tree: ast.AST) -> Set[str]:
    """Every identifier a module mentions: names, attributes and imports."""
    out: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def test_good_model_kernel_stays_in_models():
    """Other modules decide TV < eps through `models.good_mask` and count
    patterns through `models.counts_over_elements`, not the kernel."""
    named = {
        p.stem: sorted(_names(ast.parse(p.read_text())) & KERNEL)
        for p in PACKAGE.glob("*.py")
        if p.stem != "models"
    }
    assert not {m: n for m, n in named.items() if n}, named


def test_experiments_use_no_private_names_of_other_modules():
    tree = ast.parse((PACKAGE / "experiments.py").read_text())
    _, _, modules, _ = _module_tables("experiments")
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name.startswith("_")
    ] + [
        f"{modules[node.value.id]}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules and node.attr.startswith("_")
    ]
    assert not private, private


# (module, function or Class.method, parameter): why the parameter rule does
# not apply to it
PARAMETER_ALLOWLIST = {
    ("cli", "main", "argv"): "the entry point: the console script passes nothing, tests and the benchmark pass argv",
    ("convergence", "dq_defect", "pair_cap"): "perfbench/tracing.py `_defect_observer` reads it by name; it goes "
    "in the benchmark revision of ROADMAP item 5",
    ("convergence", "lw_defect", "samples"): "perfbench/tracing.py `_defect_observer` reads it by name, and with "
    "`seed` it feeds the draw path for explicit supports above EXACT_SUPPORT_CAP",
    ("convergence", "lw_defect", "seed"): "with `samples` it feeds the draw path for explicit supports above "
    "EXACT_SUPPORT_CAP",
}


def _reached_code():
    """The reached code, every reached top-level definition (a class without
    its unreached public methods) plus `tests/test_acceptance.py`; and for
    each reached top-level function and each visited method, (module,
    qualified name, callee name, definition, 1 when a call leaves out the
    first parameter `self` or `cls`, else 0)."""
    seen, methods, tables = _reached()
    code: List[ast.AST] = [ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())]
    funcs = []
    for module, name in sorted(seen):
        node = tables[module][0].get(name)
        if isinstance(node, ast.ClassDef):
            held = _public_methods(node)
            for part in node.body:
                if part in held and (module, name, part.name) not in methods:
                    continue
                code.append(part)
                if isinstance(part, ast.FunctionDef):
                    static = any(getattr(d, "id", "") == "staticmethod" for d in part.decorator_list)
                    callee = name if part.name == "__init__" else part.name
                    funcs.append((module, f"{name}.{part.name}", callee, part, 0 if static else 1))
        elif node is not None:  # None: the name is an import
            code.append(node)
            if isinstance(node, ast.FunctionDef):
                funcs.append((module, name, name, node, 0))
    return code, funcs


def _callee(call: ast.Call):
    """The name a call is made by: a function's own name, a method's attribute."""
    return getattr(call.func, "id", None) or getattr(call.func, "attr", None)


def _passed(call: ast.Call, positional: List[str], skip: int) -> Set[str]:
    """The parameters a call passes; a `*args` or `**kwargs` call passes all."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
        return {"*"}
    return set(positional[skip : skip + len(call.args)]) | {k.arg for k in call.keywords}


def test_every_defaulted_parameter_is_set_and_omitted():
    """A defaulted parameter of reached code is passed by some reached call
    and omitted by another: one no call sets is a knob that does nothing, and
    one every call passes has a default that never runs."""
    code, funcs = _reached_code()
    calls: Dict[str, List[ast.Call]] = {}
    for node in code:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                calls.setdefault(_callee(sub), []).append(sub)
    found = {}
    for module, qual, callee, fn, skip in funcs:
        args = fn.args
        positional = [a.arg for a in args.posonlyargs + args.args]
        defaulted = positional[len(positional) - len(args.defaults) :]
        defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        sites = [_passed(call, positional, skip) for call in calls.get(callee, [])]
        for param in defaulted:
            passing = sum(param in s or "*" in s for s in sites)
            if passing in (0, len(sites)):
                found[(module, qual, param)] = "set by no call" if passing == 0 else "passed by every call"
    unexpected = {f"{m}.{q}({p})": why for (m, q, p), why in found.items() if (m, q, p) not in PARAMETER_ALLOWLIST}
    assert not unexpected, f"defaulted parameters whose default or whose knob never runs: {unexpected}"
    stale = [key for key in PARAMETER_ALLOWLIST if key not in found]
    assert not stale, f"allowlisted parameters the rule no longer flags: {stale}"


def test_one_pattern_encoder():
    """The mixed-radix pattern index is built only by `processes._pattern_codes`
    and decoded only by its inverse `processes._decode_codes`: no module
    computes place values (`base ** arange(...)`), enumerates patterns with
    `indices` or peels digits off a code with `//=` outside `processes`."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{path.stem}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.FloorDiv) and path.stem != "processes":
                found.append(f"{where} digits peeled by `//=`")
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
                if isinstance(node.right, ast.Call) and _callee(node.right) == "arange":
                    found.append(f"{where} place values `** arange`")
            elif isinstance(node, ast.Call) and _callee(node) == "indices":
                found.append(f"{where} a call of `indices`")
            elif isinstance(node, ast.FunctionDef) and node.name == "_pattern_codes" and path.stem != "processes":
                found.append(f"{where} `_pattern_codes` defined outside processes")
            if "_window_codes" in {getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)}:
                found.append(f"{where} `_window_codes`")
    assert not found, found
