"""SIM005 — shared-mutable-state inventory.

The planned worker-parallel core will run replicas of the engine in one
process; anything mutable that is shared across instances is a data race
waiting to happen.  This rule:

* flags module-level mutable containers (``list`` / ``dict`` / ``set`` /
  ``deque`` / ``defaultdict`` / ``Counter`` literals or constructor calls)
  that are **mutated anywhere in the scanned tree** — a frozen
  module-level registry that is only ever read is allowed (but still
  inventoried);
* flags mutable containers in a *class body* (shared across every
  instance) unless they are ``tuple`` / ``frozenset`` /
  ``MappingProxyType`` or dataclass ``field(default_factory=...)``;
* maintains the *inventory*: every module-level / class-level container,
  mutated or not, is reported through ``python -m tools.simlint --inventory``
  and in the JSON output, so the parallel-core work starts from an explicit
  list of shared objects.
"""

from __future__ import annotations

import ast

from tools.simlint.astutil import call_name
from tools.simlint.framework import Finding, ModuleInfo, Project, Rule, register

_MUTABLE_CALLS = {
    "list",
    "dict",
    "set",
    "collections.defaultdict",
    "defaultdict",
    "collections.deque",
    "deque",
    "collections.OrderedDict",
    "OrderedDict",
    "collections.Counter",
    "Counter",
}

_FROZEN_CALLS = {
    "tuple",
    "frozenset",
    "MappingProxyType",
    "types.MappingProxyType",
    "field",
    "dataclasses.field",
}

_MUTATOR_METHODS = {
    "append",
    "extend",
    "insert",
    "remove",
    "pop",
    "popitem",
    "clear",
    "update",
    "setdefault",
    "add",
    "discard",
    "sort",
    "reverse",
    "appendleft",
    "popleft",
}


def _mutable_value(node: ast.AST) -> str | None:
    """Container kind when the expression builds a mutable container."""
    if isinstance(node, (ast.List, ast.ListComp)):
        return "list"
    if isinstance(node, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(node, ast.Call):
        name = call_name(node)
        if name in _FROZEN_CALLS:
            return None
        if name in _MUTABLE_CALLS:
            return name.rsplit(".", 1)[-1]
    return None


def _module_globals(tree: ast.Module) -> list[tuple[str, ast.stmt, str]]:
    """(name, statement, kind) for module-level mutable containers."""
    out = []
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            value = stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            target = stmt.target
            value = stmt.value
        else:
            continue
        if not isinstance(target, ast.Name):
            continue
        kind = _mutable_value(value)
        if kind is not None:
            out.append((target.id, stmt, kind))
    return out


def _subscripted_name(target: ast.AST) -> str | None:
    """``name`` when ``target`` is ``name[...]``."""
    if isinstance(target, ast.Subscript) and isinstance(target.value, ast.Name):
        return target.value.id
    return None


def _mutated_names(node: ast.AST) -> list[str]:
    """Global names ``node`` mutates, once per mutating target."""
    targets: list[ast.expr]
    if isinstance(node, ast.AugAssign):
        targets = [node.target]
    elif isinstance(node, (ast.Assign, ast.Delete)):
        targets = node.targets
    elif (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _MUTATOR_METHODS
        and isinstance(node.func.value, ast.Name)
    ):
        return [node.func.value.id]
    elif isinstance(node, ast.Global):
        return list(dict.fromkeys(node.names))
    else:
        return []
    return [
        name for name in map(_subscripted_name, targets) if name is not None
    ]


def _mutation_index(
    project: Project,
) -> dict[str, list[tuple[ModuleInfo, ast.AST]]]:
    """Name -> mutation sites, built in one walk of the project.

    Sites keep module order, then ``ast.walk`` order, so each name's list
    (and its first site, which findings cite) matches a per-name walk.
    """
    index = project.indexes.get("SIM005")
    if index is None:
        index = {}
        for module in project.modules:
            for node in ast.walk(module.tree):
                for name in _mutated_names(node):
                    index.setdefault(name, []).append((module, node))
        project.indexes["SIM005"] = index
    return index


def _mutations_of(project: Project, name: str) -> list[tuple[ModuleInfo, ast.AST]]:
    """Every site in the scanned tree that mutates global ``name``."""
    return _mutation_index(project).get(name, [])


@register
class SharedMutableStateRule(Rule):
    code = "SIM005"
    name = "shared-mutable-state"
    summary = (
        "module-level mutable containers that are mutated, and class-body "
        "mutable containers, would race under a worker-parallel core"
    )

    def check(self, module: ModuleInfo, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        for name, stmt, kind in _module_globals(module.tree):
            sites = _mutations_of(project, name)
            if sites:
                where = sites[0]
                findings.append(
                    self.finding(
                        module,
                        stmt,
                        f"module-level {kind} `{name}` is mutated "
                        f"({where[0].rel}:{where[1].lineno}) — shared "
                        "mutable state races under a worker-parallel core; "
                        "freeze it or move it into instance state",
                    )
                )
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for stmt in node.body:
                if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                    target, value = stmt.targets[0], stmt.value
                elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                    target, value = stmt.target, stmt.value
                else:
                    continue
                if not isinstance(target, ast.Name):
                    continue
                kind = _mutable_value(value)
                if kind is not None:
                    findings.append(
                        self.finding(
                            module,
                            stmt,
                            f"class-body {kind} `{node.name}.{target.id}` is "
                            "shared across every instance — use a default "
                            "factory or an immutable container",
                        )
                    )
        return findings

    # ----------------------------------------------------------- inventory
    def inventory(self, module: ModuleInfo, project: Project) -> list[str]:
        items = []
        for name, stmt, kind in _module_globals(module.tree):
            mutated = "mutated" if _mutations_of(project, name) else "read-only"
            items.append(
                f"{module.rel}:{stmt.lineno} module-level {kind} `{name}` "
                f"({mutated})"
            )
        return items
