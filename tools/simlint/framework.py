"""simlint core: findings, the rule registry, suppressions, and the runner.

A :class:`Rule` inspects one module at a time but sees the whole
:class:`Project` (every parsed module plus a cross-module class index), so
rules like SIM003 can reason about inherited methods and rules like SIM005
can prove that a module-level container is never mutated anywhere in the
scanned tree.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from tools.simlint.astutil import attach_parents, is_self_attribute

#: Line suppression: ``some_code()  # simlint: disable=SIM001,SIM006``
_SUPPRESS_RE = re.compile(r"#\s*simlint:\s*disable=([A-Z0-9,\s]+)")
#: File suppression (first 10 lines): ``# simlint: disable-file=SIM005``
_SUPPRESS_FILE_RE = re.compile(r"#\s*simlint:\s*disable-file=([A-Z0-9,\s]+)")

DEFAULT_BASELINE = Path(__file__).with_name("baseline.json")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    @property
    def fingerprint(self) -> str:
        """Line-number-insensitive identity used by the baseline allowlist."""
        return f"{self.rule}:{Path(self.path).name}:{self.message}"

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_json(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "fingerprint": self.fingerprint,
        }


@dataclass
class ModuleInfo:
    """One parsed source module."""

    path: Path
    rel: str
    source: str
    tree: ast.Module
    line_suppressions: dict[int, set[str]] = field(default_factory=dict)
    file_suppressions: set[str] = field(default_factory=set)

    @classmethod
    def parse(cls, path: Path, rel: str, source: str) -> "ModuleInfo":
        tree = ast.parse(source, filename=rel)
        attach_parents(tree)
        info = cls(path=path, rel=rel, source=source, tree=tree)
        for lineno, line in enumerate(source.splitlines(), start=1):
            match = _SUPPRESS_RE.search(line)
            if match:
                info.line_suppressions.setdefault(lineno, set()).update(
                    code.strip() for code in match.group(1).split(",") if code.strip()
                )
            if lineno <= 10:
                match = _SUPPRESS_FILE_RE.search(line)
                if match:
                    info.file_suppressions.update(
                        code.strip()
                        for code in match.group(1).split(",")
                        if code.strip()
                    )
        return info

    def suppresses(self, finding: Finding) -> bool:
        if finding.rule in self.file_suppressions:
            return True
        codes = self.line_suppressions.get(finding.line, set())
        return finding.rule in codes or "ALL" in codes


@dataclass
class ClassDecl:
    """A class definition with enough structure for cross-module analysis."""

    name: str
    module: ModuleInfo
    node: ast.ClassDef
    bases: list[str]
    methods: dict[str, ast.FunctionDef | ast.AsyncFunctionDef]
    properties: set[str]


class Project:
    """Every parsed module plus a cross-module class index."""

    def __init__(self, modules: list[ModuleInfo]) -> None:
        self.modules = modules
        # Cross-module indexes a rule derives once per project and shares
        # between its checks (keyed by the building rule's name).
        self.indexes: dict[str, Any] = {}
        self.classes: dict[str, ClassDecl] = {}
        for module in modules:
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                methods: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = {}
                properties: set[str] = set()
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        methods[item.name] = item
                        for deco in item.decorator_list:
                            if (
                                isinstance(deco, ast.Name)
                                and deco.id in ("property", "cached_property")
                            ) or (
                                isinstance(deco, ast.Attribute)
                                and deco.attr in ("getter", "cached_property")
                            ):
                                properties.add(item.name)
                bases = []
                for base in node.bases:
                    if isinstance(base, ast.Name):
                        bases.append(base.id)
                    elif isinstance(base, ast.Attribute):
                        bases.append(base.attr)
                # Last definition wins on (rare) duplicate class names; the
                # rules only need a best-effort merged view.
                self.classes[node.name] = ClassDecl(
                    name=node.name,
                    module=module,
                    node=node,
                    bases=bases,
                    methods=methods,
                    properties=properties,
                )

    def merged_methods(
        self, name: str
    ) -> tuple[dict[str, ast.FunctionDef | ast.AsyncFunctionDef], set[str]]:
        """(methods, properties) of a class merged over its known bases.

        Subclass definitions shadow base-class ones; unknown bases (object,
        Protocol, anything outside the scanned tree) are ignored.
        """
        methods: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = {}
        properties: set[str] = set()
        seen: set[str] = set()

        def visit(cls_name: str) -> None:
            if cls_name in seen or cls_name not in self.classes:
                return
            seen.add(cls_name)
            decl = self.classes[cls_name]
            for method_name, fn in decl.methods.items():
                methods.setdefault(method_name, fn)
                if method_name in decl.properties:
                    properties.add(method_name)
            for base in decl.bases:
                visit(base)

        visit(name)
        return methods, properties


class Rule:
    """Base class for simlint rules.

    Subclasses set ``code`` / ``name`` / ``summary`` and implement
    :meth:`check`; registration happens through :func:`register`.
    """

    code: str = "SIM000"
    name: str = "base"
    summary: str = ""

    def check(self, module: ModuleInfo, project: Project) -> list[Finding]:
        raise NotImplementedError

    def finding(self, module: ModuleInfo, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=self.code,
            path=module.rel,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


# Write-once at import time (the @register decorators), read-only after.
_REGISTRY: dict[str, type[Rule]] = {}  # simlint: disable=SIM005


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if cls.code in _REGISTRY:
        raise ValueError(f"duplicate rule code {cls.code}")
    _REGISTRY[cls.code] = cls
    return cls


def all_rules() -> dict[str, type[Rule]]:
    """Registered rules by code (importing the rule package on first use)."""
    import tools.simlint.rules  # noqa: F401  (registers on import)

    return dict(sorted(_REGISTRY.items()))


@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: list[Finding]
    suppressed: int
    baselined: int
    files: int
    inventory: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_json(self) -> dict[str, object]:
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return {
            "findings": [finding.to_json() for finding in self.findings],
            "counts": counts,
            "suppressed": self.suppressed,
            "baselined": self.baselined,
            "files": self.files,
            "inventory": self.inventory,
            "ok": self.ok,
        }


def load_baseline(path: Path | None = None) -> set[str]:
    """Fingerprints allowlisted by the JSON baseline (empty by default)."""
    baseline_path = DEFAULT_BASELINE if path is None else path
    if not baseline_path.exists():
        return set()
    data = json.loads(baseline_path.read_text())
    return {str(entry) for entry in data.get("findings", [])}


def _collect_files(paths: list[Path]) -> list[Path]:
    files: list[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
    return files


def build_project(paths: list[Path], root: Path | None = None) -> Project:
    """Parse every ``.py`` file under ``paths`` into a :class:`Project`."""
    root = root or Path.cwd()
    modules = []
    for file_path in _collect_files(paths):
        try:
            rel = str(file_path.relative_to(root))
        except ValueError:
            rel = str(file_path)
        source = file_path.read_text()
        modules.append(ModuleInfo.parse(file_path, rel, source))
    return Project(modules)


def run_rules(
    project: Project,
    rules: list[str] | None = None,
    baseline: set[str] | None = None,
) -> LintResult:
    """Run (a subset of) the registered rules over a parsed project."""
    registry = all_rules()
    selected = rules if rules is not None else list(registry)
    unknown = [code for code in selected if code not in registry]
    if unknown:
        raise KeyError(f"unknown rule(s): {', '.join(unknown)}")
    baseline = baseline or set()
    instances = [registry[code]() for code in selected]
    findings: list[Finding] = []
    inventory: list[str] = []
    suppressed = 0
    baselined = 0
    seen: set[tuple[str, str, int, str]] = set()
    by_rel = {module.rel: module for module in project.modules}
    for module in project.modules:
        for rule in instances:
            for finding in rule.check(module, project):
                key = (finding.rule, finding.path, finding.line, finding.message)
                if key in seen:
                    continue
                seen.add(key)
                # Suppressions live in the module the finding points at
                # (which, for inherited-method findings, can differ from the
                # module being checked).
                home = by_rel.get(finding.path, module)
                if home.suppresses(finding):
                    suppressed += 1
                elif finding.fingerprint in baseline:
                    baselined += 1
                else:
                    findings.append(finding)
            collect = getattr(rule, "inventory", None)
            if collect is not None:
                inventory.extend(collect(module, project))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return LintResult(
        findings=findings,
        suppressed=suppressed,
        baselined=baselined,
        files=len(project.modules),
        inventory=sorted(set(inventory)),
    )


def lint_paths(
    paths: list[Path],
    rules: list[str] | None = None,
    baseline: set[str] | None = None,
    root: Path | None = None,
) -> LintResult:
    """Lint files / directories and return the aggregate result."""
    return run_rules(build_project(paths, root=root), rules=rules, baseline=baseline)


def lint_source(
    source: str,
    filename: str = "<fixture>.py",
    rules: list[str] | None = None,
) -> LintResult:
    """Lint one in-memory module (the test-fixture entry point)."""
    module = ModuleInfo.parse(Path(filename), filename, source)
    return run_rules(Project([module]), rules=rules)
