"""Every name fgl_lab exports has a caller outside the tests, or is an oracle."""

import ast
import inspect
from pathlib import Path

import fgl_lab

ROOT = Path(__file__).resolve().parents[1]

# Exported for the tests alone, each as an independent reference.
TEST_ORACLES = {
    "numeric_oracle": "adaptive Runge-Kutta check on the closed-form ODE solution",
    "comparison_ode": "Bernoulli model whose exact solution the bound margins "
                      "are checked on",
    "homogeneous_blowup_time": "closed-form lifespan of constant data",
    "apply_commutator": "applies the commutator to fields for adjoint and "
                        "dense-matrix checks of kappa",
    "apply_weighted_kernel": "matrix-free kernel checked against its dense matrix",
    "mass_identity_residual": "audits the mass production identity (criterion 03)",
}


def _exported_names():
    return sorted(
        name for name, obj in vars(fgl_lab).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    )


def _referenced_names():
    """Names read, attributes accessed and strings used outside tests/.

    Definitions and imports are not references, and neither is the
    package __init__, which only re-exports.
    """
    package = ROOT / "src" / "fgl_lab"
    files = [f for f in package.glob("*.py") if f.name != "__init__.py"]
    files += list((ROOT / "scripts").glob("*.py"))
    files += list((ROOT / "perfbench").glob("*.py"))
    seen = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                seen.add(node.id)
            elif isinstance(node, ast.Attribute):
                seen.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                seen.add(node.value)
    return seen


def test_every_export_has_a_non_test_caller():
    exported = _exported_names()
    assert set(TEST_ORACLES) <= set(exported)
    referenced = _referenced_names()
    unused = [n for n in exported
              if n not in referenced and n not in TEST_ORACLES]
    assert unused == [], (
        f"exported but used only by tests: {unused}; delete them or "
        "allow-list them as oracles with a reason"
    )
