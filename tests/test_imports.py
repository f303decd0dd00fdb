"""The library runs on the standard library alone, and imports light."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import logcave

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


def _run_probe(probe: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    return subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout.strip()


def test_cli_import_leaves_bodies_and_geometry_unloaded():
    # verify never touches valuation bodies, so its start-up must not load
    # (and, without bytecode caches, compile) bodies or geometry;
    # multiprocessing loads only when a scan starts a worker pool, and
    # toeplitz and fractions only in the subcommands that read them; no
    # module imports dataclasses, which would bring inspect with it; the
    # report digest uses the interpreter's own SHA-256, so neither hashlib
    # nor OpenSSL's _hashlib loads
    heavy = ("logcave.bodies", "logcave.geometry", "logcave.toeplitz", "multiprocessing")
    heavy += ("dataclasses", "inspect", "fractions", "hashlib", "_hashlib")
    probe = f"import sys, logcave.cli; print(sorted(m for m in {heavy} if m in sys.modules))"
    assert _run_probe(probe) == "[]"


def test_serial_verify_leaves_openssl_unloaded(tmp_path):
    # a pooled scan still loads _hashlib, through the hmac module that
    # multiprocessing's connections import; only a serial run is covered
    argv = ["verify", "weyl", "--rank", "2", "--bound", "2", "--out", str(tmp_path / "r.json")]
    probe = f"import sys; from logcave import cli; code = cli.main({argv!r}); print(code, '_hashlib' in sys.modules)"
    assert _run_probe(probe) == "0 False"


def test_no_module_loads_dataclasses():
    modules = ", ".join(f"logcave.{path.stem}" for path in sorted(SRC.glob("*.py")) if path.stem != "__init__")
    probe = f"import sys, {modules}; print('dataclasses' in sys.modules)"
    assert _run_probe(probe) == "False"


def test_package_import_loads_no_submodule():
    probe = "import sys, logcave; print(sorted(m for m in sys.modules if m.startswith('logcave.')))"
    assert _run_probe(probe) == "[]"


def test_bodies_import_leaves_the_multiplicity_modules_unloaded():
    # the package resolves its names on first use, so a valuation-body user
    # loads bodies and geometry and none of the multiplicity stack
    heavy = tuple(f"logcave.{m}" for m in ("partitions", "symfunc", "lr", "concavity", "toeplitz"))
    heavy += ("dataclasses",)
    probe = f"import sys, logcave.bodies; print(sorted(m for m in {heavy} if m in sys.modules))"
    assert _run_probe(probe) == "[]"


# every name the package exported when it imported bodies eagerly
PACKAGE_NAMES = """
    GLWeight Partition SemistandardTableau SkewShape conjugate dual_weight
    enumerate_ssyt partition shift_to_partition weight weyl_dimension
    MonomialExpansion SchurExpansion multiply skew_schur
    subtract_and_min_coefficient to_schur_basis
    LRCache lr_coefficient lr_coefficient_schur_peel restriction_multiplicity
    tensor_product_multiplicities tensor_square_multiplicities triple_invariant
    ConcavityReport alpha_matrix_check conjecture1_scan
    convolution_logconcavity_check logv_inclusion_check
    restriction_logconcavity_scan saturation_scan slm_schur_positivity
    theorem1_scan theorem1_verify weyl_logconcavity_scan
    FiniteSequence character_positivity_check toeplitz_minor
    toeplitz_schur_coefficient two_by_two_scan
    BodyApprox MultiPolynomial PolynomialSubspace body_approximation
    brunn_minkowski_check degree_estimate flag_valuation
    minkowski_inclusion_check normalized_volume power_subspace
    __version__
""".split()


def test_package_still_exports_every_name():
    from logcave import bodies

    missing = [name for name in PACKAGE_NAMES if not hasattr(logcave, name)]
    assert not missing, missing
    assert logcave.body_approximation is bodies.body_approximation
    assert not hasattr(logcave, "no_such_name")


def test_package_names_resolve_to_their_modules():
    probe = "import logcave; print(logcave.lr.__name__, logcave.toeplitz.__name__)"
    assert _run_probe(probe) == "logcave.lr logcave.toeplitz"


def test_star_import_binds_every_package_name():
    probe = "from logcave import *; print(' '.join(sorted(n for n in dir() if not n.startswith('_'))))"
    names = set(PACKAGE_NAMES) - {"__version__"}
    assert set(_run_probe(probe).split()) == names
