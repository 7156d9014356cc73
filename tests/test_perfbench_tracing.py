"""The benchmark's tracer patches buildctl functions by name: every name it
lists must resolve, so that deleting or moving one cannot silently break a
traced benchmark run."""

import json
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tracing, workloads
workloads.load_api(workloads.Path(sys.argv[1]).parent / "src")
missing = []
for mod, attr, _ in tracing.LAYERS + tracing.COUNTED:
    obj = sys.modules.get("buildctl." + mod)
    for part in attr.split("."):
        obj = getattr(obj, part, None)
    if obj is None:
        missing.append(mod + "." + attr)
tracer = tracing.Tracer()
tracer.install()
tracer.uninstall()
print(json.dumps(missing))
"""


def test_tracer_layers_resolve():
    """In a fresh interpreter that has imported buildctl the way the
    benchmark does (``buildctl.cli`` and the modules it drives), every
    ``LAYERS`` and ``COUNTED`` entry of ``perfbench/tracing.py`` names a
    loaded module and an attribute of it, and the tracer installs."""
    proc = subprocess.run([sys.executable, "-c", PROBE, str(PERFBENCH)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
