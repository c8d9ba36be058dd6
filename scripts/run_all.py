#!/usr/bin/env python3
"""Build every construction into out/ and run the matching checks.

Usage: python scripts/run_all.py [out_dir]
"""

import sys
from pathlib import Path

from canimm.command import main as cli_main

BUILDS = {
    "delta2": ["--stages", "5000", "--markers", "48"],
    "bci": ["--stages", "1000", "--index-bound", "32"],
    "cofinal": [],
    "ci-hi": ["--stages", "48"],
    "ci-not-hi": ["--stages", "1000", "--index-bound", "32"],
    "hi-not-ci": ["--blocks", "6"],
    "effectivize": ["--stages", "2000", "--markers", "32", "--budget", "192"],
    "2generic-witness": ["--index-bound", "2"],
    "generic": ["--index-bound", "12", "--blocks", "8", "--markers", "8", "--stages", "500"],
}

CHECKS = {
    "delta2": [("immunity", ["--index-bound", "32"])],
    "bci": [("immunity", ["--modulus", "bci", "--index-bound", "32"])],
    "cofinal": [("immunity", ["--modulus", "cofinal", "--index-bound", "24"])],
    "ci-hi": [("immunity", ["--index-bound", "32"])],
    "ci-not-hi": [
        ("immunity", ["--modulus", "twof", "--index-bound", "32"]),
        ("domination", ["--modulus", "double"]),
    ],
    "hi-not-ci": [("immunity", ["--expect-fail"])],
    "effectivize": [("effective", ["--modulus", "double", "--index-bound", "64", "--budget", "192"])],
    "generic": [("schnorr", []), ("immunity", ["--index-bound", "12"])],
}


def main() -> int:
    out_dir = Path(sys.argv[1] if len(sys.argv) > 1 else "out")
    out_dir.mkdir(parents=True, exist_ok=True)
    status = 0
    for name, flags in BUILDS.items():
        trace = out_dir / f"{name}.trace"
        code = cli_main(["build", name, "--out", str(trace), *flags])
        print(f"build {name:18s} -> {trace} (exit {code})")
        status |= code
        for suite, check_flags in CHECKS.get(name, []):
            verdict_file = out_dir / f"{name}.{suite}.verdict"
            code = cli_main(["check", suite, str(trace), "--out", str(verdict_file), *check_flags])
            print(f"check {suite:12s} {name:14s} (exit {code})")
            status |= code
    return status


if __name__ == "__main__":
    sys.exit(main())
