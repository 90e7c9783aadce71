"""The scripts under scripts/ run end to end on small sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args",
    [
        ("decategorify.py", ["--max", "2"]),
        ("render_gallery.py", ["--out", "{tmp}"]),
        ("render_gallery.py", ["--tikz", "--out", "{tmp}"]),
        ("bench_builds.py", ["--builds", "T4,H4,PT4,C4,E2x2,X2x2,N2x2r1", "--rounds", "2", "--out", "{tmp}/builds.json"]),
    ],
    # Fixed ids, so each case keeps its name when an entry is added or dropped.
    ids=[
        "decategorify.py-args0",
        "render_gallery.py-args2",
        "render_gallery.py-args3",
        "bench_builds.py-args4",
    ],
)
def test_script_runs(script, args, tmp_path):
    args = [a.format(tmp=tmp_path) for a in args]
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
    assert "MISMATCH" not in done.stdout
