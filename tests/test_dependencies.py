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
