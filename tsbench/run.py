#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

    python3 tsbench/run.py --workload serve_tcp --seed 1 --seconds 40 --trace 0

``serve_tcp`` and ``fleet_tls`` drive ``tools/serve_daemon.py`` over
sockets; ``city_replay`` drives ``Engine.process_batch`` in process.
``BENCHMARK.json`` gates the two serving workloads; ``city_replay`` is
run by hand (NOTES.md says why).
``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
span recorder and reports the per-layer metrics instead.  Every run
checks the program's outputs and exits 1 if any is wrong.  The last
line of standard output is the JSON result; the lines before it are
the same numbers for people, with provenance.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import os
import platform
import secrets
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("serve_tcp", "fleet_tls", "city_replay")


class Bench:
    """Paths, credentials and environment shared by one run."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.trace_dir = HERE / "trace"
        base = root / ".tsbench_scratch"
        base.mkdir(exist_ok=True)
        self.scratch = Path(tempfile.mkdtemp(dir=base))
        self._dirs = 0
        env = dict(os.environ)
        # Measure the program's default store backend.
        env.pop("REPRO_STORE_BACKEND", None)
        env.pop("TSBENCH_SPANS_DIR", None)
        env["PYTHONPATH"] = str(root / "src")
        self.env = env
        self.token = secrets.token_hex(16)
        self.cert = self.key = None

    def fresh_dir(self, label: str) -> Path:
        self._dirs += 1
        path = self.scratch / f"{label}-{self._dirs}"
        path.mkdir()
        return path

    def make_cert(self) -> None:
        out = self.fresh_dir("certs")
        subprocess.run(
            [sys.executable, str(self.root / "tools" / "gen_dev_cert.py"),
             "--out-dir", str(out)],
            check=True, env=self.env, stdout=subprocess.DEVNULL, timeout=60,
        )
        self.cert, self.key = out / "dev-cert.pem", out / "dev-key.pem"

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)
        try:
            self.scratch.parent.rmdir()  # only when no other run uses it
        except OSError:
            pass


def provenance(root: Path) -> dict:
    """Where the numbers come from: code version, machine, runtimes."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip()
    except OSError:
        sha = ""
    if not sha:
        digest = hashlib.sha256()
        for path in sorted((root / "src").rglob("*.py")) + sorted(
            (root / "tools").glob("*.py")
        ):
            digest.update(path.read_bytes())
        sha = "tree-" + digest.hexdigest()[:16]
    import numpy

    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = HERE.parent
    if not (root / "src" / "repro").is_dir() or not (
        root / "tools" / "serve_daemon.py"
    ).is_file():
        print(
            "tsbench: run from the repository root (src/repro and "
            "tools/serve_daemon.py not found)",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(root / "src"))
    os.environ.pop("REPRO_STORE_BACKEND", None)
    spec = json.loads((root / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    import checks

    bench = Bench(root)
    try:
        self_test_ok = checks.self_test()
        if args.workload == "city_replay":
            from city import run_city

            result = run_city(bench, args.seed, args.seconds, bool(args.trace))
        else:
            from serving import run_serving

            if args.workload == "fleet_tls":
                bench.make_cert()
            result = asyncio.run(
                run_serving(
                    bench, args.workload, args.seed, args.seconds,
                    bool(args.trace),
                )
            )
    finally:
        bench.close()

    correct = result["correct"] and self_test_ok
    measured = result["metrics"]
    metrics = {}
    for entry in declared:
        # A layer the workload's path never enters reads 0.
        value = float(measured.get(entry["name"], 0.0))
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    info = provenance(root)
    print(
        f"tsbench {args.workload} seed={args.seed} trace={args.trace} "
        + " ".join(f"{k}={v}" for k, v in info.items())
    )
    for line in result["lines"]:
        print(f"  {line}")
    print(f"  self_test={'ok' if self_test_ok else 'FAILED'} correct={correct}")
    for name, entry in metrics.items():
        print(f"  {name:40s} {entry['value']:.6g} {entry['unit']}")
    for name in sorted(measured.keys() - metrics.keys()):
        print(f"  {name:40s} {measured[name]:.6g} (not in BENCHMARK.json)")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
