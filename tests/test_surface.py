"""The public surface: each module's `__all__`, and what an import loads.

Names are imported from their own modules; the package itself re-exports
none, so `import affineschur` loads no submodule.
"""

import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import affineschur

SRC = str(Path(affineschur.__file__).resolve().parents[1])
MODULES = [info.name for info in pkgutil.iter_modules(affineschur.__path__)]


def _loaded_after(statement: str) -> set[str]:
    """The package modules a fresh interpreter holds after `statement`."""
    code = f"import sys; sys.path.insert(0, {SRC!r}); {statement}; print(*sys.modules)"
    done = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                          capture_output=True, text=True, check=True)
    return {name for name in done.stdout.split() if name.startswith("affineschur")}


def test_every_listed_name_resolves_in_its_module():
    assert {"affine", "orderlab", "shapes", "verify"} <= set(MODULES)
    for name in MODULES:
        module = importlib.import_module(f"affineschur.{name}")
        for public in getattr(module, "__all__", ()):
            assert hasattr(module, public), f"affineschur.{name}.{public}"


def test_package_import_loads_no_submodule():
    assert _loaded_after("import affineschur") == {"affineschur"}


def test_orderlab_import_loads_neither_oracles_nor_symfunc():
    loaded = _loaded_after("import affineschur.orderlab")
    assert "affineschur.orderlab" in loaded
    assert not loaded & {"affineschur.oracles", "affineschur.symfunc"}
