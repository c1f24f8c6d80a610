"""Reach audit: every public definition in src/ has a caller outside tests/.

The audit parses src/ with :mod:`ast` and collects the definitions it
exports: module-level functions and classes, and the methods and nested
classes of public classes, whose names do not start with ``_``.  A
definition is *reached* when its name appears as a ``Name`` or an
``Attribute`` anywhere in src/ (outside the definition itself),
examples/, benchmarks/ or perfbench/.  One that only tests/ reach must
be in :data:`KEPT` with its reason, and every ``KEPT`` entry must still
exist and still be unreached.

The audit matches by name, not by resolved binding, so an unreached
function that shares its name with something that is reached (``add``,
``summary``, a method of another class) passes unnoticed.  Names that
only appear in strings (perfbench's tracer table, ``getattr``) do not
count either.
"""

from __future__ import annotations

import ast
import functools
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CALLER_DIRS = ("examples", "benchmarks", "perfbench")

# Public definitions that only tests reach, each with why it stays.
# `MultiIndexHash` and `repro.utils.compiled` need no entry: only
# benchmarks/ and perfbench/ (its tracer and host fingerprint) reach
# them, and they leave src/ once the benchmark stops naming them.
KEPT = {
    "repro.core.faults:FaultInjector.fired_sites":
        "safety path: lists the sites a drill fired, for fault-injection checks",
    "repro.service.reload:save_index":
        "safety path: writes the checkpointed index that reload_index validates",
    "repro.service.service:MemeMatchService.reload_index":
        "safety path: hot index reload with validation and rollback",
    "repro.service.service:MemeMatchService.serve":
        "in-place oracle: the window-of-one path the bit-identity guarantee is stated for",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _scan(path: Path, module: str, defs: list | None, refs: dict) -> None:
    """Add ``path``'s public definitions to ``defs`` (when given) and the
    scope of every name it references to ``refs[name]``."""

    def visit(node: ast.AST, scope: str, exported: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _DEFS):
                qualname = f"{scope}.{child.name}" if scope else child.name
                public = exported and not child.name.startswith("_")
                if public and defs is not None:
                    defs.append(f"{module}:{qualname}")
                # Only a public class exports its members.
                visit(child, qualname, public and isinstance(child, ast.ClassDef))
                continue
            if isinstance(child, ast.Name):
                refs.setdefault(child.id, []).append(f"{module}:{scope}")
            elif isinstance(child, ast.Attribute):
                refs.setdefault(child.attr, []).append(f"{module}:{scope}")
            visit(child, scope, False)

    visit(ast.parse(path.read_text(), str(path)), "", True)


@functools.cache
def audit() -> tuple[list[str], dict[str, list[str]]]:
    """``(public src definitions, scopes referencing each name)``."""
    defs: list[str] = []
    refs: dict[str, list[str]] = {}
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        _scan(path, module, defs, refs)
    for directory in CALLER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            _scan(path, str(path.relative_to(ROOT)), None, refs)
    return defs, refs


def unreached(defs: list[str], refs: dict[str, list[str]]) -> list[str]:
    """Definitions whose name no scope outside themselves references."""
    out = []
    for qualname in defs:
        name = qualname.partition(":")[2].rpartition(".")[2]
        if not any(
            scope != qualname and not scope.startswith(qualname + ".")
            for scope in refs.get(name, ())
        ):
            out.append(qualname)
    return out


def test_every_public_definition_is_reached_or_kept():
    defs, refs = audit()
    missing = [q for q in unreached(defs, refs) if q not in KEPT]
    assert not missing, (
        "public src definitions that only tests reach; give each a caller "
        f"outside tests/, move it out of src/, or add it to KEPT: {missing}"
    )


def test_kept_entries_exist_and_are_still_unreached():
    defs, refs = audit()
    gone = sorted(set(KEPT) - set(defs))
    assert not gone, f"KEPT names definitions that no longer exist: {gone}"
    reached = sorted(set(KEPT) - set(unreached(defs, refs)))
    assert not reached, f"KEPT entries that now have a caller: {reached}"


def test_self_reference_alone_does_not_reach():
    # Recursion, or a class naming itself, is not a caller.
    refs = {"walk": ["m:walk", "m:walk.inner"]}
    assert unreached(["m:walk"], refs) == ["m:walk"]
    refs["walk"].append("m:other")
    assert unreached(["m:walk"], refs) == []
