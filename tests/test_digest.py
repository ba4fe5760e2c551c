"""The output digest script in ``tools/``."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_digest_of_boundary_routes_is_reproducible():
    cmd = [sys.executable, os.path.join(ROOT, "tools", "digest.py"), "--seed", "3",
           "--only", "boundary_routes", "--only", "families"]
    runs = [subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120).stdout
            for _ in range(2)]
    assert runs[0] == runs[1]
    lines = [line.split()[1:] for line in runs[0].splitlines()]
    assert [(seed, name, len(digest)) for seed, name, digest in lines] == [
        ("3", "boundary_routes", 64), ("3", "families", 64)]
