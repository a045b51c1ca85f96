"""End-to-end benchmark of the conversion library's three entry points.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload convert-large --seed 1 \\
        --seconds 15 --trace 0

Workloads: ``convert-large`` (in-process ``repro.convert``),
``plan-route`` (in-process ``repro.convert_via_plan``) and
``serve-small`` (a ``repro serve --unix`` daemon and two clients).
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The last stdout line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  A longer
record of the run (tail percentile, sample counts, set-up samples,
failure reasons) goes to ``e2ebench/_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("convert-large", "plan-route", "serve-small")
#: Set-ups per run, each from empty cache directories; ``setup_s`` is
#: their median, so it never rests on one compiler invocation.
SETUP_SAMPLES = 3
#: The whole run must end well within 180 s.
RUN_LIMIT_S = 170.0


def fresh_env(base: Path) -> dict:
    """Environment with private, empty cache directories under ``base``.

    Learned planner costs are held off so routes are a function of the
    input alone; nothing is written to ``~/.cache``.
    """
    dirs = {name: base / name for name in ("cache", "cbackend", "costs",
                                           "tmp", "xdg")}
    for path in dirs.values():
        path.mkdir(parents=True, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(SRC),
        REPRO_CACHE_DIR=str(dirs["cache"]),
        REPRO_CBACKEND_DIR=str(dirs["cbackend"]),
        REPRO_COSTS_DIR=str(dirs["costs"]),
        REPRO_COSTS_DISABLE="1",
        TMPDIR=str(dirs["tmp"]),
        XDG_CACHE_HOME=str(dirs["xdg"]),
    )
    return env


def run_child(cmd: list[str], env: dict, deadline: float) -> dict:
    """Run one workload child; its last stdout line is its JSON record."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("no time left for the next child")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stdin=subprocess.DEVNULL, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"child {cmd[1]} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_inproc(args, work: Path, spans_out: Path, deadline: float) -> dict:
    """Set-up children, the last of which goes on to measure."""
    setups = []
    for i in range(SETUP_SAMPLES):
        last = i == SETUP_SAMPLES - 1
        cmd = [sys.executable, str(HERE / "inproc.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--spans-out", str(spans_out)]
        if not last:
            cmd.append("--setup-only")
        env = fresh_env(work / f"s{i}")
        doc = run_child(cmd + ["--spawned", repr(time.monotonic())], env,
                        deadline)
        setups.append(doc["setup_s"])
    doc["setup_samples"] = setups
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    # A termination request unwinds through the clean-up below: children
    # and daemons are stopped and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro source tree at {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = HERE / "_work" / f"{name}-{os.getpid()}"
    out = HERE / "_out"
    out.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "serve-small":
            import serve_small

            doc = serve_small.run(args, ROOT, work, fresh_env,
                                  SETUP_SAMPLES)
        else:
            doc = run_inproc(args, work, out / f"{name}-spans.json",
                             deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    import measure

    metrics = dict(doc["metrics"])
    if not args.trace:
        metrics["setup_s"] = measure.metric(
            measure.median(doc["setup_samples"]), "s")
    result = {
        "correct": doc["failed"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": metrics,
    }
    with open(out / f"{name}.json", "w") as fh:
        json.dump({"result": result, "record": doc}, fh, indent=1)
    if "speed" in doc:
        raw = " ".join(f"{k}={v['value']:.6g}"
                       for k, v in doc["raw_metrics"].items())
        print(f"calibration slice median {doc['speed']['median_slice_ms']:.3f}"
              f" ms over {doc['speed']['slices']} slices (reference "
              f"{measure.REFERENCE_SLICE_S * 1e3:g} ms); as measured: {raw}")
    if "tail" in doc:
        tail = doc["tail"]
        print(f"op_tail_ms is p{tail['percentile']:g} of {tail['samples']} "
              f"ops ({tail['beyond']} beyond it)")
    for reason in doc.get("reasons", []):
        print(f"failed: {reason}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
