"""The package's exported names and its runtime dependencies."""

import os
import subprocess
import sys
from pathlib import Path

import extrafactorial


def test_every_export_resolves_once():
    names = extrafactorial.__all__
    assert len(set(names)) == len(names)
    for name in names:
        getattr(extrafactorial, name)


def test_runtime_imports_only_the_standard_library():
    # -S skips site, whose .pth files may import third-party modules of their
    # own, and leaves site-packages off the path, so that importing one fails;
    # the package comes from the tree this test runs against
    src = Path(extrafactorial.__file__).resolve().parents[1]
    child = subprocess.run(
        [
            sys.executable,
            "-S",
            "-c",
            "import sys, extrafactorial.cli; print(*sys.modules, sep='\\n')",
        ],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    assert child.returncode == 0, f"extrafactorial.cli fails to import:\n{child.stderr}"
    top_level = {name.partition(".")[0] for name in child.stdout.split()}
    assert "extrafactorial" in top_level
    # __main__ is the -c program itself
    outside = top_level - sys.stdlib_module_names - {"__main__", "extrafactorial"}
    assert not outside, f"extrafactorial.cli imports non-stdlib modules {sorted(outside)}"
