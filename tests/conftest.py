"""Session set-up: build the compiled trajectory kernel in place.

The suite runs from the source tree (``PYTHONPATH=src``) with no install
step, so ``setup.py build_ext --inplace`` runs once here, before any test
module imports ``belldistil``.  It puts the extension next to the sources
(``src/belldistil/*.so``, objects under ``build/``; both git-ignored) and is
a no-op when nothing changed.  The build never raises: if it fails, the
package has no kernel to import, so every test module that imports
``belldistil`` fails at collection with an ``ImportError`` naming the
build command, and the report header shows the build's last lines.  The
header always names the kernel and the path its Philox and exact averaging
loop run (``avx512`` or ``scalar``), or why the kernel could not be
imported.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BUILD_TAIL_LINES = 15

build_failure = pytest.StashKey[list]()


def pytest_configure(config):
    try:
        proc = subprocess.run(
            [sys.executable, "setup.py", "build_ext", "--inplace"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, timeout=600,
        )
    except (OSError, subprocess.SubprocessError) as exc:
        config.stash[build_failure] = [repr(exc)]
        return
    if proc.returncode:
        config.stash[build_failure] = proc.stdout.splitlines()[-BUILD_TAIL_LINES:]


def pytest_report_header(config):
    try:
        from belldistil import _kernels

        impl = f"{_kernels.IMPL}, PHILOX = {_kernels.PHILOX}"
    except Exception as exc:  # the header must not abort the session
        impl = f"unavailable ({exc!r})"
    lines = [f"belldistil trajectory kernel: IMPL = {impl}"]
    failure = config.stash.get(build_failure, None)
    if failure:
        lines.append("in-place build of the compiled kernel failed:")
        lines += ["  " + line for line in failure]
    return lines
