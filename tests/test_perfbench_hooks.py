"""The benchmark's span hooks must name attributes that exist.

``perfbench/spans.py`` wraps module attributes by name and silently skips
any that are missing, which turns that span's per-layer metrics into
``None``. Some hooks target names a module imports only to be traced
there (``pairwise_distances`` in ``geocd.loss``, ``geocd.metrics`` and
``geocd.graph``), so deleting such an import must fail here.
"""

import importlib
import runpy
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_span_hook_resolves():
    # run_path compiles the source in memory: nothing is written to perfbench/
    hooks = runpy.run_path(str(SPANS))["HOOKS"]
    missing = []
    for module_name, path, name in hooks:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{path} ({name})")
    assert hooks and not missing, f"unresolved span hooks: {missing}"
