"""The AST analysis framework: rules, modules, scoping, findings.

Design
------

A *rule* is a class with an ``id`` (``RAQO0xx``), a short ``name`` slug
used in suppression comments, and a ``check`` method that yields
:class:`Finding` objects for one parsed module.  Rules register
themselves with :func:`register_rule`; :func:`run_analysis` runs every
registered rule (or a caller-chosen subset) over a set of files.

A *module* is parsed once into a :class:`ModuleInfo`: its AST, its
dotted name inside the package (derived from ``__init__.py`` parents),
and its suppression comments.  Findings on a line carrying
``# lint: disable=<rule>`` (or preceded by a standalone comment line of
that form, or in a file whose first lines carry
``# lint: disable-file=<rule>``) are dropped; ``<rule>`` may be the
rule id, its name slug, or ``all``.

Scoped rules declare ``scope_roots``: dotted module names from which an
intra-package import graph is walked.  Only modules *reachable* from a
root are checked -- e.g. the thread-safety pass only applies to code
the optimizer service's worker threads can actually execute.
Standalone files outside any package (test fixtures) are always in
scope, so rules can be exercised on snippets.
"""

from __future__ import annotations

import ast
import difflib
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
    Union,
)

#: Trailing or standalone suppression: ``lint: disable=RAQO001,RAQO004``.
_SUPPRESS_RE = re.compile(r"#\s*lint:\s*disable=([A-Za-z0-9_,\-]+)")
#: File-wide suppression, honoured within the first lines of a file.
_SUPPRESS_FILE_RE = re.compile(r"#\s*lint:\s*disable-file=([A-Za-z0-9_,\-]+)")
#: Declares which module-level lock guards a mutable binding.
_GUARD_RE = re.compile(r"#\s*lint:\s*guarded-by=([A-Za-z_][A-Za-z0-9_]*)")
#: How many leading lines may carry a ``disable-file`` pragma.
_FILE_PRAGMA_WINDOW = 10


class AnalysisError(Exception):
    """Raised for unusable analysis inputs (bad path, unparsable file)."""


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation, anchored to a source location."""

    path: str
    line: int
    col: int
    rule_id: str
    rule_name: str
    message: str

    def render(self) -> str:
        """The canonical ``file:line:col: ID [name] message`` form."""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule_id} [{self.rule_name}] {self.message}"
        )


@dataclass
class ModuleInfo:
    """One parsed source file plus its lint metadata."""

    path: Path
    #: Dotted module name when the file sits inside a package
    #: (``repro.core.raqo``); None for standalone files.
    module: Optional[str]
    source: str
    tree: ast.Module
    #: line number -> rule ids/names suppressed on that line.
    line_suppressions: Dict[int, Set[str]] = field(default_factory=dict)
    #: Rule ids/names suppressed for the whole file.
    file_suppressions: Set[str] = field(default_factory=set)
    #: Every ``disable`` pragma as (pragma line, target line or None
    #: for file-wide, labels), for the dead-suppression pass.
    pragmas: List[Tuple[int, Optional[int], Set[str]]] = field(
        default_factory=list
    )
    #: line number -> lock name declared via ``# lint: guarded-by=NAME``.
    guards: Dict[int, str] = field(default_factory=dict)

    @classmethod
    def parse(
        cls, path: Union[str, Path], source: Optional[str] = None
    ) -> "ModuleInfo":
        """Parse one file (or an explicit ``source`` string) for analysis."""
        path = Path(path)
        if source is None:
            try:
                source = path.read_text(encoding="utf-8")
            except OSError as exc:
                raise AnalysisError(f"cannot read {path}: {exc}") from exc
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            raise AnalysisError(f"cannot parse {path}: {exc}") from exc
        info = cls(
            path=path,
            module=_dotted_module_name(path),
            source=source,
            tree=tree,
        )
        _collect_pragmas(info)
        return info

    def is_suppressed(self, finding: Finding, rule: "Rule") -> bool:
        """True when a pragma silences this finding."""
        labels = {rule.id, rule.name, "all"}
        if labels & self.file_suppressions:
            return True
        return bool(labels & self.line_suppressions.get(finding.line, set()))

    def guard_on_line(self, line: int) -> Optional[str]:
        """The lock name a ``guarded-by`` pragma declares on ``line``."""
        return self.guards.get(line)


def _dotted_module_name(path: Path) -> Optional[str]:
    """Derive ``repro.core.raqo`` from a path by walking __init__ parents."""
    path = path.resolve()
    if path.suffix != ".py":
        return None
    packages: List[str] = []
    current = path.parent
    while (current / "__init__.py").exists():
        packages.append(current.name)
        parent = current.parent
        if parent == current:
            break
        current = parent
    if not packages:
        # Not inside any package: a standalone file (fixture, script).
        return None
    parts = list(reversed(packages))
    if path.name != "__init__.py":
        parts.append(path.stem)
    return ".".join(parts)


def _collect_pragmas(info: ModuleInfo) -> None:
    """Populate suppression and guard tables from the source comments."""
    lines = info.source.splitlines()
    for number, text in enumerate(lines, start=1):
        stripped = text.strip()
        match = _SUPPRESS_RE.search(text)
        if match:
            labels = {part for part in match.group(1).split(",") if part}
            # A standalone pragma comment suppresses the next line.
            target = number + 1 if stripped.startswith("#") else number
            info.line_suppressions.setdefault(target, set()).update(labels)
            info.pragmas.append((number, target, labels))
        guard = _GUARD_RE.search(text)
        if guard:
            info.guards[number] = guard.group(1)
        if number <= _FILE_PRAGMA_WINDOW:
            file_match = _SUPPRESS_FILE_RE.search(text)
            if file_match:
                labels = {
                    part for part in file_match.group(1).split(",") if part
                }
                info.file_suppressions.update(labels)
                info.pragmas.append((number, None, labels))


class ImportGraph:
    """Intra-package import edges between the analyzed modules."""

    def __init__(self, modules: Iterable[ModuleInfo]) -> None:
        self._edges: Dict[str, Set[str]] = {}
        infos = [m for m in modules if m.module is not None]
        known = {m.module for m in infos if m.module is not None}
        for info in infos:
            assert info.module is not None
            self._edges[info.module] = self._module_edges(info, known)

    @staticmethod
    def _module_edges(info: ModuleInfo, known: Set[str]) -> Set[str]:
        edges: Set[str] = set()

        def add(candidate: Optional[str]) -> None:
            if candidate is None:
                return
            # ``from repro.core import raqo`` names the submodule; also
            # record the package itself so its __init__ re-exports count.
            while candidate:
                if candidate in known:
                    edges.add(candidate)
                if "." not in candidate:
                    break
                candidate = candidate.rsplit(".", 1)[0]

        assert info.module is not None
        package_parts = info.module.split(".")
        if info.path.name != "__init__.py":
            package_parts = package_parts[:-1]
        for node in ast.walk(info.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    add(alias.name)
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    base_parts = package_parts[
                        : len(package_parts) - (node.level - 1)
                    ]
                    base = ".".join(
                        base_parts + ([node.module] if node.module else [])
                    )
                else:
                    base = node.module or ""
                if base:
                    add(base)
                for alias in node.names:
                    if base:
                        add(f"{base}.{alias.name}")
        return edges

    def has_module(self, module: str) -> bool:
        """True when ``module`` was part of the analyzed set."""
        return module in self._edges

    def imports_of(self, module: str) -> Set[str]:
        """Direct intra-package imports of one module."""
        return set(self._edges.get(module, set()))

    def reachable_from(self, roots: Sequence[str]) -> Set[str]:
        """All analyzed modules transitively imported from ``roots``."""
        seen: Set[str] = set()
        stack = [root for root in roots if root in self._edges]
        while stack:
            module = stack.pop()
            if module in seen:
                continue
            seen.add(module)
            stack.extend(self._edges.get(module, set()) - seen)
        return seen


@dataclass
class AnalysisSession:
    """Everything one analysis run shares across rules."""

    modules: List[ModuleInfo]
    graph: ImportGraph
    #: Lazily-computed unsuppressed findings of every non-meta rule,
    #: keyed by module path (used by the dead-suppression pass).
    _raw_findings: Optional[Dict[str, List[Finding]]] = field(
        default=None, repr=False, compare=False
    )

    @classmethod
    def from_modules(cls, modules: Iterable[ModuleInfo]) -> "AnalysisSession":
        modules = list(modules)
        return cls(modules=modules, graph=ImportGraph(modules))

    def unsuppressed_findings(self) -> Dict[str, List[Finding]]:
        """Findings of every non-meta rule with pragmas ignored.

        Cached per session: the dead-suppression pass asks "would this
        pragma have silenced anything?", which needs the full finding
        set exactly once regardless of how many modules carry pragmas.
        """
        if self._raw_findings is None:
            per_path: Dict[str, List[Finding]] = {}
            primary = [r for r in all_rules() if not r.meta_rule]
            for info in self.modules:
                found: List[Finding] = []
                for rule in primary:
                    if not self.in_scope(info, rule.scope_roots):
                        continue
                    found.extend(rule.check(info, self))
                per_path[str(info.path)] = found
            self._raw_findings = per_path
        return self._raw_findings

    def in_scope(self, info: ModuleInfo, roots: Tuple[str, ...]) -> bool:
        """Whether a scoped rule applies to ``info``.

        Unscoped rules (empty ``roots``) apply everywhere.  Standalone
        files and partial trees that contain none of the roots fail
        *open* so fixtures exercise every rule.
        """
        if not roots:
            return True
        if info.module is None:
            return True
        known_roots = [r for r in roots if self.graph.has_module(r)]
        if not known_roots:
            return True
        reachable = self.graph.reachable_from(known_roots)
        return info.module in reachable


class Rule:
    """Base class for one analysis pass.

    Subclasses set ``id`` / ``name`` / ``description``, optionally
    ``scope_roots`` (dotted modules whose import-reachable set bounds
    the rule), and implement :meth:`check`.
    """

    id: str = ""
    name: str = ""
    description: str = ""
    #: When non-empty: only modules import-reachable from these roots
    #: are checked (see :meth:`AnalysisSession.in_scope`).
    scope_roots: Tuple[str, ...] = ()
    #: Meta rules inspect the *other* rules' findings (dead-suppression)
    #: and are excluded from :meth:`AnalysisSession.unsuppressed_findings`
    #: to avoid recursion.
    meta_rule: bool = False

    def check(
        self, info: ModuleInfo, session: AnalysisSession
    ) -> Iterator[Finding]:
        """Yield findings for one module."""
        raise NotImplementedError

    def finding(
        self, info: ModuleInfo, node: ast.AST, message: str
    ) -> Finding:
        """Build a finding anchored at an AST node."""
        return Finding(
            path=str(info.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule_id=self.id,
            rule_name=self.name,
            message=message,
        )


#: Registered rule classes by id (insertion-ordered; report order is
#: re-sorted by id so registration order never matters).
_RULE_REGISTRY: Dict[str, Type[Rule]] = {}


def register_rule(rule_class: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not rule_class.id or not rule_class.name:
        raise AnalysisError(
            f"rule {rule_class.__name__} must define id and name"
        )
    existing = _RULE_REGISTRY.get(rule_class.id)
    if existing is not None and existing is not rule_class:
        raise AnalysisError(f"duplicate rule id {rule_class.id}")
    _RULE_REGISTRY[rule_class.id] = rule_class
    return rule_class


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, sorted by id."""
    return [
        _RULE_REGISTRY[rule_id]() for rule_id in sorted(_RULE_REGISTRY)
    ]


def resolve_rules(selectors: Optional[Sequence[str]]) -> List[Rule]:
    """Rules matching ``selectors`` (ids or name slugs); all when None."""
    rules = all_rules()
    if not selectors:
        return rules
    wanted = set(selectors)
    chosen = [r for r in rules if r.id in wanted or r.name in wanted]
    known = {r.id for r in rules} | {r.name for r in rules}
    unknown = wanted - known
    if unknown:
        hints = []
        for selector in sorted(unknown):
            close = difflib.get_close_matches(
                selector, sorted(known), n=1, cutoff=0.6
            )
            hints.append(
                f"{selector} (did you mean {close[0]}?)"
                if close
                else selector
            )
        valid = ", ".join(f"{r.id}/{r.name}" for r in rules)
        raise AnalysisError(
            f"unknown rule selector(s): {'; '.join(hints)}. "
            f"Valid selectors: {valid}"
        )
    return chosen


def iter_python_files(paths: Sequence[Union[str, Path]]) -> List[Path]:
    """All ``.py`` files under the given files/directories, sorted."""
    collected: Set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            collected.update(
                p
                for p in path.rglob("*.py")
                if not any(part.startswith(".") for part in p.parts)
            )
        elif path.is_file():
            collected.add(path)
        else:
            raise AnalysisError(f"no such file or directory: {path}")
    return sorted(collected)


def run_analysis(
    paths: Sequence[Union[str, Path]],
    rules: Optional[Sequence[Rule]] = None,
    respect_suppressions: bool = True,
) -> List[Finding]:
    """Run rules over all python files under ``paths``; sorted findings."""
    files = iter_python_files(paths)
    modules = [ModuleInfo.parse(path) for path in files]
    return run_analysis_on_modules(
        modules, rules=rules, respect_suppressions=respect_suppressions
    )


def run_analysis_on_modules(
    modules: Sequence[ModuleInfo],
    rules: Optional[Sequence[Rule]] = None,
    respect_suppressions: bool = True,
) -> List[Finding]:
    """Run rules over already-parsed modules; findings sorted by location."""
    active = list(rules) if rules is not None else all_rules()
    session = AnalysisSession.from_modules(modules)
    findings: List[Finding] = []
    for info in session.modules:
        for rule in active:
            if not session.in_scope(info, rule.scope_roots):
                continue
            for found in rule.check(info, session):
                if respect_suppressions and info.is_suppressed(found, rule):
                    continue
                findings.append(found)
    return sorted(findings)
