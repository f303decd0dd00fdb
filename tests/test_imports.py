"""The library runs on the standard library alone."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "logcave"


def _foreign_imports(path: Path) -> list[str]:
    """Top-level names of absolute imports that are neither logcave nor stdlib."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            if top != "logcave" and top not in sys.stdlib_module_names:
                out.append(f"{path.name}:{node.lineno}: {name}")
    return out


def test_library_imports_only_the_standard_library():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    foreign = [line for path in modules for line in _foreign_imports(path)]
    assert not foreign, foreign


def test_import_check_flags_third_party_modules(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import os\nfrom . import lr\nimport numpy as np\nfrom scipy.spatial import ConvexHull\n")
    assert _foreign_imports(probe) == ["probe.py:3: numpy", "probe.py:4: scipy.spatial"]
