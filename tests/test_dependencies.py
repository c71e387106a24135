"""numpy is rayvex's only runtime dependency, though scipy may be installed."""

import json
import os
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


def test_every_exported_name_resolves():
    import rayvex

    namespace = {}
    exec("from rayvex import *", namespace)  # noqa: S102 - the star import is what is under test
    assert [name for name in rayvex.__all__ if name not in namespace] == []
    assert len(set(rayvex.__all__)) == len(rayvex.__all__)
    assert "Halfspace" not in rayvex.__all__ and not hasattr(rayvex, "Halfspace")
