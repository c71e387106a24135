"""numpy is rayvex's only runtime dependency, though scipy may be installed; and each concept of
the suite has one home."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

PROBE = """
import json, sys
before = set(sys.modules)
import rayvex, rayvex.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_importing_rayvex_loads_only_stdlib_numpy_and_rayvex():
    # against the modules loaded before the import, since site may preload others (certifi, say)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", PROBE], check=True, capture_output=True, text=True, env=env).stdout
    loaded = json.loads(out)
    assert "rayvex.cli" in loaded
    allowed = set(sys.stdlib_module_names) | {"numpy", "rayvex"}
    assert [name for name in loaded if name.split(".")[0] not in allowed] == []


# Each name is used by the CLI, the bench, the README or another module, types a
# public return value, or is a step of the paper's workflow.
EXPORTED = [
    "CATALOG_BUILDERS", "CatalogEntry", "CertificationReport", "CheckResult", "EnvelopeModel",
    "EnvelopeValue", "LPResult", "Polytope", "RayTrace", "RayTraceBatch", "RegionId",
    "SampledOracle", "ScalarField", "ValidationReport", "bilinear_neg", "build", "catalog",
    "certify", "check_corollary_convexity", "check_facet_convexity", "check_positive_homogeneity",
    "check_ray_concavity", "cobb_douglas", "cubic_rational", "enumerate_regions_2d", "errors",
    "eval_homogeneous", "fractional", "gradient", "normalize_facet", "oracle_build", "oracle_eval",
    "ray_intersect", "ray_intersect_batch", "region_of", "reliability", "sample_interior", "secant_raw",
    "solve_lp", "validate", "vertices",
]
# (module, name) gone from the package and from its module
REMOVED = [
    ("envelope", "model_from_descriptor"),  # the CLI is the one path from catalog names to build
    ("envelope", "original_value"),  # eval(model, x).f
    ("functions", "shift_field"),  # build's working field is the one shifting path
    ("functions", "negate_field"),  # the working field's sign is the one negating path
    ("geometry", "Halfspace"),
    ("simplex", "solve_inequality_lp"),  # validate's questions are right-hand sides of one solve_lp family
]
UNEXPORTED = ["eval_envelope", "fd_gradient", "polygon_area"]  # still in their modules where used


def test_every_exported_name_resolves():
    import importlib

    import rayvex

    namespace = {}
    exec("from rayvex import *", namespace)  # noqa: S102 - the star import is what is under test
    assert [name for name in rayvex.__all__ if name not in namespace] == []
    assert len(set(rayvex.__all__)) == len(rayvex.__all__)
    assert sorted(rayvex.__all__) == EXPORTED
    for module, name in REMOVED:
        assert not hasattr(rayvex, name), name
        assert not hasattr(importlib.import_module(f"rayvex.{module}"), name), name
    assert [name for name in UNEXPORTED if hasattr(rayvex, name)] == []


# tests/strategies.py is the one home of composite strategies, of these helpers and of the bit
# comparator; tests/test_equivalence.py of the bit-for-bit oracles (reference_regions compares
# polygons, and stays with test_regions.py)
ONE_HOME = re.compile(
    r"^\s*(@(\w+\.)*composite\b|def (near_facet|central_diff_gradient|region_interior_points|_same|_same_bits|_check_batch)\b)",
    re.M,
)
ORACLES = re.compile(
    r"^(import reference_(evaluators|checks|fields)\b|from reference_(evaluators|checks) import"
    r"|from reference_fields import .*\b(bilinear|fractional|reliability|cubic|cubic_pow|cobb_douglas|\*))",
    re.M,
)


def test_strategies_and_shared_helpers_have_one_home():
    tests = sorted(Path(__file__).resolve().parent.glob("test_*.py"))
    found = [(path.name, m.group(1)) for path in tests for m in ONE_HOME.finditer(path.read_text())]
    found += [(path.name, m.group(1)) for path in tests if path.name != "test_equivalence.py"
              for m in ORACLES.finditer(path.read_text())]
    assert found == []


# ray_intersect states the trace rules; the batch kernel and locate defer to it
TRACE_ERRORS = [
    "ray direction must be nonzero",
    "ray is parallel to a violated facet",
    "ray never exits (polytope unbounded along it?)",
    "empty intersection interval",
    "is not finite: no point of it lies in the polytope",
]


def test_each_trace_error_is_stated_once():
    package = Path(__file__).resolve().parents[1] / "src" / "rayvex"
    text = "".join(path.read_text() for path in sorted(package.glob("*.py")))
    assert {message: text.count(message) for message in TRACE_ERRORS} == dict.fromkeys(TRACE_ERRORS, 1)
