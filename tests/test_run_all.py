"""Golden guard: every scripts/run_all.py output keeps its recorded sha256.

tests/run_all.sha256 is in sha256sum format; regenerate it with
`python scripts/run_all.py out && (cd out && sha256sum *)` only when a
change means to alter the traces or verdicts, and say why.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_run_all_outputs_match_recorded_hashes(tmp_path):
    expected = {}
    for line in (ROOT / "tests" / "run_all.sha256").read_text().splitlines():
        digest, name = line.split(maxsplit=1)
        expected[name] = digest
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_all.py"), str(tmp_path)],
        capture_output=True, text=True, env=env,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    actual = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in tmp_path.iterdir()}
    assert actual == expected
