"""Every name fgl_lab exports, every public top-level function and class
of its modules, and every field of an exported dataclass has a reader
outside the tests, or is an oracle; every optional parameter or field
has a caller outside the tests that passes it; and no isinstance call in
the package switches on a class of its own."""

import ast
import dataclasses
import functools
import importlib
import inspect
import math
from pathlib import Path

import fgl_lab

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fgl_lab"

# Public for the tests alone, each as an independent reference.
TEST_ORACLES = {
    "homogeneous_blowup_time": "closed-form lifespan of constant data",
    "apply_commutator": "applies the commutator to fields for adjoint and "
                        "dense-matrix checks of kappa",
    "apply_weighted_kernel": "matrix-free kernel checked against its dense matrix",
    "mass_identity_residual": "audits the mass production identity (criterion 03)",
}

# Fields of exported dataclasses read by the tests alone.
TEST_ONLY_FIELDS = {
    "MarginReport.margins": "worst and violated derive from it; the tests "
                            "check it sample by sample",
    "MassIdentityReport.best_residual": "the report of an oracle "
                                        "(mass_identity_residual)",
}


def _exported():
    return {
        name: obj for name, obj in vars(fgl_lab).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    }


def _references():
    """(names, reads) in the sources outside tests/.

    names: names read, attributes accessed and strings used; these make
    an export called (perfbench's tracer names functions by string).
    reads: attributes read (Load context) only; these make a field read,
    while a keyword argument that fills a field is a write and a string,
    such as a config key, is neither.  Definitions and imports are
    neither, and the package __init__, which only re-exports, is
    skipped.
    """
    files = [f for f in PACKAGE.glob("*.py") if f.name != "__init__.py"]
    files += list((ROOT / "perfbench").glob("*.py"))
    names, reads = set(), set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
                if isinstance(node.ctx, ast.Load):
                    reads.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names, reads


def _public_definitions():
    """'module.name' of every public top-level def and class in the package."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        out += [f"{path.stem}.{node.name}" for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")]
    return out


def _dataclass_fields(exported):
    """'Class.field' for every field and property of an exported dataclass."""
    out = []
    for name, obj in exported.items():
        if not (inspect.isclass(obj) and dataclasses.is_dataclass(obj)):
            continue
        attrs = [f.name for f in dataclasses.fields(obj)]
        attrs += [a for a, v in vars(obj).items()
                  if isinstance(v, (property, functools.cached_property))]
        out += [f"{name}.{a}" for a in attrs]
    return sorted(out)


def test_every_export_has_a_non_test_caller():
    exported = _exported()
    assert set(TEST_ORACLES) <= set(exported)
    referenced, _ = _references()
    unused = [n for n in sorted(exported)
              if n not in referenced and n not in TEST_ORACLES]
    assert unused == [], (
        f"exported but used only by tests: {unused}; delete them or "
        "allow-list them as oracles with a reason"
    )


def test_every_public_definition_has_a_non_test_caller():
    referenced, _ = _references()
    known = referenced | set(TEST_ORACLES)
    unused = [d for d in _public_definitions() if d.split(".")[1] not in known]
    assert unused == [], (
        f"public but used only by tests: {unused}; delete them, make them "
        "private, or allow-list them as oracles with a reason"
    )


def test_every_dataclass_field_has_a_non_test_reader():
    fields = _dataclass_fields(_exported())
    assert set(TEST_ONLY_FIELDS) <= set(fields)
    _, read = _references()
    unread = [f for f in fields
              if f.split(".")[1] not in read and f not in TEST_ONLY_FIELDS]
    assert unread == [], (
        f"fields read only by tests: {unread}; delete them or allow-list "
        "them with a reason"
    )


# Defaulted parameters and fields that only the tests pass.
TEST_ONLY_PARAMETERS = {
    "SimConfig.theta": "a detection seam of the tests; the CLI keeps 0.5",
    "SimConfig.dt_min": "a detection seam of the tests; the CLI keeps 1e-12",
    "SimConfig.sup_threshold": "a detection seam of the tests; the CLI "
                               "keeps 1e8",
    "apply_commutator.adjoint": "the adjoint side of the oracle",
}


def _calls():
    """{callee name: [(positional count, keyword names)]} over the sources
    outside tests/, plus the keywords of every dataclasses.replace call.

    A callee is named by its last attribute (``weights.estimate_kappa``
    counts as ``estimate_kappa``).  A starred argument counts as passing
    every positional slot, a ``**`` one every keyword.
    """
    files = [f for f in PACKAGE.glob("*.py") if f.name != "__init__.py"]
    files += list((ROOT / "perfbench").glob("*.py"))
    calls, replaced = {}, set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute) else None)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {k.arg for k in node.keywords}
            if None in keywords:
                keywords = {"**"}
            if name == "replace":
                replaced |= keywords
            calls.setdefault(name, []).append(
                (math.inf if starred else len(node.args), keywords))
    return calls, replaced


def _defaulted_parameters(exported):
    """{'owner.parameter': (owner, position, is_field)} for every defaulted
    parameter of a public top-level function and every defaulted field of
    an exported dataclass; position is None for a keyword-only parameter."""
    out = {}
    owners = [getattr(importlib.import_module(f"fgl_lab.{d.split('.')[0]}"),
                      d.split(".")[1]) for d in _public_definitions()]
    owners = [o for o in owners if inspect.isfunction(o)]
    owners += [o for o in exported.values()
               if inspect.isclass(o) and dataclasses.is_dataclass(o)]
    for owner in owners:
        params = list(inspect.signature(owner).parameters.values())
        for i, p in enumerate(params):
            if p.default is inspect.Parameter.empty:
                continue
            position = None if p.kind is p.KEYWORD_ONLY else i
            out[f"{owner.__name__}.{p.name}"] = (
                owner.__name__, position, inspect.isclass(owner))
    return out


def test_every_optional_parameter_has_a_non_test_caller():
    optional = _defaulted_parameters(_exported())
    assert set(TEST_ONLY_PARAMETERS) <= set(optional)
    calls, replaced = _calls()

    def passed(key):
        owner, position, is_field = optional[key]
        name = key.split(".")[1]
        if is_field and name in replaced:
            return True
        return any(name in kw or "**" in kw
                   or (position is not None and count > position)
                   for count, kw in calls.get(owner, []))

    unpassed = [k for k in sorted(optional)
                if not passed(k) and k not in TEST_ONLY_PARAMETERS]
    assert unpassed == [], (
        f"optional but passed only by tests: {unpassed}; delete them (a "
        "value with one use is a constant) or allow-list them with a reason"
    )


def test_no_type_switch_on_package_classes():
    """No isinstance call in src/ names a class the package defines: a
    kind of object answers for itself (a profile is a function of x)."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    defined = {node.name for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}
    switches = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2):
                continue
            named = {n.id if isinstance(n, ast.Name) else n.attr
                     for n in ast.walk(node.args[1])
                     if isinstance(n, (ast.Name, ast.Attribute))}
            switches += [f"{name}:{node.lineno} {cls}" for cls in named & defined]
    assert switches == [], (
        f"isinstance on package classes: {switches}; let the object do it")
