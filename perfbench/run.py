#!/usr/bin/env python3
"""Benchmark of the `canimm` CLI.

    python3 perfbench/run.py --workload forcing|scan|stages --seed N \\
        --seconds S --trace 0|1

Run from the root of a source checkout; the program is taken from `src/`.
One closed-loop client runs the workload's op list one op at a time, each
op a fresh `python -m canimm ...` process with cold module caches, as a
CLI user pays for it.  Run-time files go to `.perfbench_work/`.

--trace 0 times the op list again and again for about S seconds (at least
once).  Right after each op it runs REFERENCE, a fixed pure-Python program
that imports nothing from canimm, in a fresh process, and divides the op's
CPU time (user + sys, from os.wait4 rusage) by the reference's.  It reports:

  cpu_rel        CPU time of the op list, in reference runs (unit "ref")
  build_cpu_rel  the same, summed over the build ops (time to a trace)
  check_cpu_rel  the same, summed over check and measure ops (time to a verdict)
  setup_s        CPU seconds, in a fresh interpreter, of: import canimm.cli,
                 default_pool(), modulus_catalog(), Registry.deserialize of
                 the workload's pool file (the interpreter's own start-up is
                 not counted); SETUP_PER_PASS probes before every pass
  peak_rss_mb    highest max-RSS of any op process (os.wait4 rusage)

The first three are medians over the passes, setup_s is the median over all
its probes.  On a shared virtual machine the CPU speed a process gets swings
by up to 2x within a minute, and every op of a run moves with it; the
reference run next to each op moves the same way, so the ratio stays put
where seconds do not (IQR/median of the op list's cost over ten seeded runs
per workload on a 2-vCPU VM: 0.09-0.26 in CPU seconds, 0.02-0.05 in
reference runs).  The medians of the
raw CPU and wall seconds are printed as plain lines beside the metrics.
CPU time leaves out waits, so a change that spreads an op over several
cores shows in those wall seconds only.

--trace 1 runs the op list once untraced and once with spans around each
module's entry points (perfbench/tracer.py) and reports the per-layer
metrics of the traced pass, the per-op median times of the untraced pass
(cli.op.*) and the tracing overhead (trace.overhead_s = traced minus
untraced wall time).  Traced numbers never feed the end-to-end metrics.

Every output of the first pass is checked through perfbench/verify.py,
later passes must reproduce it byte for byte, and on the default seed each
output's sha256 must match perfbench/fingerprints.json.  An op counts as
failed when it exits non-zero or its output fails a check; `correct` is
false when any output is wrong.  The last line of stdout is the JSON result.

    python3 perfbench/run.py --record-fingerprints

rewrites fingerprints.json from the default seed, for a change that alters
outputs on purpose.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
FINGERPRINTS = BENCH / "fingerprints.json"

SETUP_PER_PASS = 3
RUN_DEADLINE_S = 170.0

SETUP_PROBE = """\
import sys, time
t0 = time.process_time()
import canimm.cli
from canimm.numberings import Registry, default_pool
default_pool()
canimm.cli.modulus_catalog()
with open(sys.argv[1]) as fh:
    Registry.deserialize(fh.read())
print(time.process_time() - t0)
"""

# Interpreter start-up, small-integer arithmetic, dict updates and big-integer
# growth: the mix the op processes spend their time on, in about 0.15 s.
REFERENCE = """\
def churn(n):
    table, x = {}, 1
    for i in range(n):
        x = (x * 3 + i) % 1000003
        table[i % 512] = table.get(i % 512, 0) + x
    return sum(table.values())
y = 1
for i in range(3000):
    y = y * 7 + i
churn(700000)
"""


@dataclass
class OpRun:
    label: str
    seconds: float
    cpu: float
    exit_code: int
    rss_mb: float
    output: Path
    stderr: Path
    ref_cpu: float = float("nan")

    @property
    def rel(self) -> float:
        """CPU time in units of the reference run that followed the op."""
        return self.cpu / self.ref_cpu


class Runner:
    """Runs ops of one workload as child processes, one at a time."""

    def __init__(self, workload, pool_path: Path, deadline: float):
        self.workload = workload
        self.pool_path = pool_path
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))

    def _spawn(self, argv: list[str], stdout: Path, stderr: Path) -> tuple[float, float, int, float]:
        """Wall seconds, CPU seconds, exit code and max-RSS (MB) of one child process."""
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            killer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            elapsed = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        return elapsed, usage.ru_utime + usage.ru_stime, proc.returncode, usage.ru_maxrss / 1024

    def setup_samples(self, repeats: int) -> list[float]:
        probe = WORK / "setup.out"
        samples = []
        for _ in range(repeats):
            _, _, code, _ = self._spawn([sys.executable, "-c", SETUP_PROBE, str(self.pool_path)], probe, WORK / "setup.err")
            if code != 0:
                raise RuntimeError("setup probe failed: " + (WORK / "setup.err").read_text())
            samples.append(float(probe.read_text()))
        return samples

    def reference_cpu(self) -> float:
        _, cpu, code, _ = self._spawn([sys.executable, "-c", REFERENCE], WORK / "reference.out", WORK / "reference.err")
        if code != 0:
            raise RuntimeError("reference run failed: " + (WORK / "reference.err").read_text())
        return cpu

    def run_pass(self, directory: Path, spans: Path | None = None, reference: bool = False) -> list[OpRun]:
        """Run the op list once; with `reference`, run REFERENCE after each op."""
        directory.mkdir(parents=True)
        if spans is not None:
            spans.mkdir(parents=True)
        runs: list[OpRun] = []
        for index, op in enumerate(self.workload.ops):
            label = f"{index:02d}-{op.verb}{'-' + op.name if op.name else ''}"
            output = directory / f"{label}.out"
            args = [op.verb]
            if op.name:
                args.append(op.name)
            if op.verb == "check":
                args.append(str(runs[op.source].output))
            args.extend(op.flags)
            if op.verb != "measure":
                args += ["--pool", str(self.pool_path), "--out", str(output)]
            if spans is None:
                argv = [sys.executable, "-m", "canimm", *args]
            else:
                argv = [sys.executable, str(BENCH / "tracer.py"), str(spans / f"{label}.spans"), label, *args]
            stdout = output if op.verb == "measure" else directory / f"{label}.stdout"
            seconds, cpu, code, rss = self._spawn(argv, stdout, directory / f"{label}.stderr")
            run = OpRun(label, seconds, cpu, code, rss, output, directory / f"{label}.stderr")
            if reference:
                run.ref_cpu = self.reference_cpu()
            runs.append(run)
        return runs


def _sha256(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def verify_pass(workload, runs: list[OpRun], pool, fingerprints: dict | None) -> dict[str, str]:
    """label -> reason for every op whose output is wrong."""
    import verify

    wrong = {}
    for op, run in zip(workload.ops, runs):
        if run.exit_code != 0:
            continue
        text = run.output.read_text()
        try:
            if op.verb == "build":
                reason = verify.check_build(op.name, text, pool)
            elif op.verb == "check":
                reason = verify.check_check(op.name, op.flags, runs[op.source].output.read_text(), text, pool)
            else:
                reason = verify.check_measure(op.flags, text)
        except Exception as err:  # a malformed output is a wrong output, not a benchmark crash
            reason = f"unreadable output: {err!r}"
        golden = fingerprints.get(run.label) if fingerprints else None
        if reason is None and golden is not None and golden != _sha256(run.output):
            reason = "sha256 differs from the committed fingerprint"
        if reason is not None:
            wrong[run.label] = reason
    return wrong


def _pass_totals(runs: list[OpRun], workload, clock: str) -> tuple[float, float, float]:
    """(all ops, build ops, check and measure ops) of one pass on `clock`: "rel", "cpu" or "seconds"."""
    total = sum(getattr(r, clock) for r in runs)
    build = sum(getattr(r, clock) for op, r in zip(workload.ops, runs) if op.verb == "build")
    return total, build, total - build


def _fresh_work_dir(workload) -> Path:
    """Empty the work directory and write the workload's pool file there."""
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    pool_path = WORK / "pool.tsv"
    pool_path.write_text(workload.pool.serialize())
    return pool_path


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref
    return ref


def _all_op_keys() -> list[str]:
    from workloads import DEFAULT_SEED, WORKLOADS

    keys = []
    for make in WORKLOADS.values():
        for op in make(DEFAULT_SEED).ops:
            if op.key not in keys:
                keys.append(op.key)
    return keys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=42)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-fingerprints", action="store_true")
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (SRC / "canimm" / "cli.py").is_file():
        print(f"error: no canimm sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.set_int_max_str_digits(0)
    import tracer
    from canimm.numberings import Registry
    from workloads import DEFAULT_SEED, WORKLOADS

    if args.record_fingerprints:
        return record_fingerprints(WORKLOADS, DEFAULT_SEED, started)
    if args.workload not in WORKLOADS or args.seed is None:
        parser.error(f"need --workload from {sorted(WORKLOADS)} and --seed")

    workload = WORKLOADS[args.workload](args.seed)
    pool_path = _fresh_work_dir(workload)
    pool = Registry.deserialize(pool_path.read_text())
    runner = Runner(workload, pool_path, started + RUN_DEADLINE_S)
    fingerprints = None
    if args.seed == DEFAULT_SEED and FINGERPRINTS.is_file():
        fingerprints = json.loads(FINGERPRINTS.read_text())[workload.name]

    runner.setup_samples(1)  # warm-up: writes the bytecode cache
    passes: list[list[OpRun]] = []
    metrics: dict[str, dict] = {}
    if args.trace:
        untraced = runner.run_pass(WORK / "pass0")
        traced = runner.run_pass(WORK / "pass1", spans=WORK / "spans")
        passes = [untraced, traced]
        layers = tracer.summarize(sorted((WORK / "spans").glob("*.spans")))
        for key in _all_op_keys():
            times = [r.seconds for op, r in zip(workload.ops, untraced) if op.key == key]
            layers[f"cli.op.{key}_s"] = statistics.median(times) if times else 0.0
        layers["trace.overhead_s"] = _pass_totals(traced, workload, "seconds")[0] - _pass_totals(untraced, workload, "seconds")[0]
        for name, value in layers.items():
            metrics[name] = {"value": value, "unit": _layer_unit(name)}
    else:
        setup: list[float] = []
        loop_start = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            setup += runner.setup_samples(SETUP_PER_PASS)
            passes.append(runner.run_pass(WORK / f"pass{len(passes)}", reference=True))
            # stop before a pass that would end past --seconds or the deadline
            last = time.perf_counter() - pass_start
            if time.perf_counter() - loop_start + last > args.seconds or time.monotonic() + last > runner.deadline:
                break
        medians = {
            clock: [statistics.median(t[k] for t in (_pass_totals(runs, workload, clock) for runs in passes)) for k in range(3)]
            for clock in ("rel", "cpu", "seconds")
        }
        rel = medians["rel"]
        metrics = {
            "cpu_rel": {"value": rel[0], "unit": "ref"},
            "build_cpu_rel": {"value": rel[1], "unit": "ref"},
            "check_cpu_rel": {"value": rel[2], "unit": "ref"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": max(r.rss_mb for runs in passes for r in runs), "unit": "MB"},
        }

    wrong = verify_pass(workload, passes[0], pool, fingerprints)
    for runs in passes[1:]:
        for first, again in zip(passes[0], runs):
            if again.exit_code == 0 and first.exit_code == 0 and _sha256(first.output) != _sha256(again.output):
                wrong.setdefault(first.label, "output differs between passes")
    attempted = sum(len(runs) for runs in passes)
    failed = 0
    for runs in passes:
        for run in runs:
            if run.exit_code != 0 or run.label in wrong:
                failed += 1
                detail = wrong.get(run.label) or run.stderr.read_text().strip()[-200:]
                print(f"failed op {run.label}: exit {run.exit_code}: {detail}")

    print(
        f"workload {workload.name}: {workload.why}\n"
        f"seed {args.seed}, {len(passes)} pass(es) of {len(workload.ops)} ops, "
        f"nproc {os.cpu_count()}, python {platform.python_version()}, commit {_git_commit()}\n"
        f"error_rate {failed / attempted:.4f} ({failed}/{attempted})"
    )
    if not args.trace:
        for clock, name in (("cpu", "cpu"), ("seconds", "wall")):
            print("{} seconds, not a metric: all ops {:.6g} s, build {:.6g} s, check {:.6g} s".format(name, *medians[clock]))
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}))
    shutil.rmtree(WORK, ignore_errors=True)
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bits_max"):
        return "bits"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def record_fingerprints(workloads, seed: int, started: float) -> int:
    from canimm.numberings import Registry

    table = {}
    for name, make in workloads.items():
        workload = make(seed)
        pool_path = _fresh_work_dir(workload)
        runs = Runner(workload, pool_path, started + 3600).run_pass(WORK / "pass0")
        wrong = verify_pass(workload, runs, Registry.deserialize(pool_path.read_text()), None)
        if wrong:
            print(f"error: {name}: outputs fail their checks: {wrong}", file=sys.stderr)
            return 1
        table[name] = {r.label: _sha256(r.output) for r in runs if r.exit_code == 0}
    FINGERPRINTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
