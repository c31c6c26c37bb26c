"""The finmonad benchmark.

    python3 perfbench/run.py --workload search|roundtrip|cli|all \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout (``src/finmonad`` and ``fixtures/`` next
to ``perfbench/``). Each workload runs in fresh worker processes (see
``worker.py``); this process imports nothing from ``finmonad``.

``--trace 0`` measures set-up ``SETUPS`` times and reports the median as
``setup_s``: the wall time from starting a worker to its ``READY`` line,
scaled to the reference speed by the ``SCALE`` line that follows it.
The middle worker runs the workload closed-loop for ``--seconds``; the
others exit at ``READY``, half before and half after it, so that the
median samples the whole run.
``--trace 1`` runs one worker with the per-layer tracer (``tracer.py``).

Time metrics are scaled to the reference speed (see ``worker.py``);
the table also shows them as measured. The output is a table of every
metric with its unit, then, as the last
line, one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``. ``metrics`` holds the ``end_to_end`` metrics of
``BENCHMARK.json`` (``--trace 0``) or its ``per_layer`` metrics
(``--trace 1``). A run is ``correct`` when every failed op is a known
defect listed in ``workloads.KNOWN_DEFECTS``; failed ops are counted in
``failed`` either way. The exit code is 0 when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

SETUPS = 9
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def _check_layout() -> dict:
    for need in ("src/finmonad/cli.py", "fixtures/c1.json", "BENCHMARK.json"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            raise BenchError(f"{need} is missing: run from a finmonad checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _kill_group(proc) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _worker(workload, seed, seconds, trace, setup_only, deadline):
    """Start a worker; return (set-up seconds scaled to the reference
    speed, set-up seconds as measured, RESULT dict or None).

    The worker and the cli processes it starts share a new process group,
    which is killed if it is still running at the deadline.
    """
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    watchdog = threading.Timer(max(0.0, deadline - t0), _kill_group, (proc,))
    watchdog.start()
    ready = None
    scale = None
    result = None
    try:
        for line in proc.stdout:
            if line.strip() == "READY" and ready is None:
                ready = time.perf_counter() - t0
            elif line.startswith("SCALE "):
                scale = float(line.split()[1])
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            _kill_group(proc)
            proc.wait()
        proc.stdout.close()
    if time.perf_counter() >= deadline:
        raise BenchError(f"worker for {workload} ran past the deadline")
    if proc.returncode != 0 or ready is None or scale is None:
        raise BenchError(f"worker for {workload} exited with {proc.returncode}")
    if not setup_only and result is None:
        raise BenchError(f"worker for {workload} printed no result")
    return ready * scale, ready, result


def run_workload(workload, seed, seconds, trace, deadline) -> dict:
    if trace:
        return _worker(workload, seed, seconds, 1, False, deadline)[2]
    def probe():
        return _worker(workload, seed, seconds, 0, True, deadline)[:2]

    setups = [probe() for _ in range(SETUPS // 2)]
    scaled, ready, res = _worker(workload, seed, seconds, 0, False, deadline)
    setups.append((scaled, ready))
    setups += [probe() for _ in range(SETUPS - len(setups))]
    res["setup_s"] = statistics.median(s for s, _ in setups)
    res["measured"]["setup_s"] = statistics.median(r for _, r in setups)
    res["setups"] = setups
    return res


def report(res: dict, trace: bool, units: dict) -> dict:
    """Print one workload's table; return its metrics by name."""
    n, failed = res["attempted"], res["failed"]
    print(f"== {res['workload']}  seed {res['seed']}  "
          f"{'traced' if trace else 'untraced'}")
    if not trace:
        metrics = {k: res[k] for k in ("setup_s", "ops_per_s", "latency_p50_ms",
                                       "latency_p90_ms", "peak_rss_mb")}
        metrics["fail_ratio"] = failed / n
        for name, value in metrics.items():
            line = f"  {name:<16} {value:>12.4f} {units.get(name, 'ratio'):<6}"
            if name in res["measured"]:
                line += f" measured {res['measured'][name]:.4f}"
            print(line)
        print(f"  reference kernel {res['ref_ms']:.4f} ms mean after each op; "
              f"times scaled pass by pass to its reference time")
        print(f"  samples {res['samples']} ops in {res['passes']} passes, "
              f"{res['wall_s']:.2f} s; failed {failed} of {n}; "
              f"setup median of {len(res['setups'])}")
    else:
        metrics = dict(res["layers"])
        for name, value in metrics.items():
            if value:
                print(f"  {name:<52} {value:>14.3f}")
        base, traced = (metrics["bench.untraced_ops_per_s"],
                        metrics["bench.traced_ops_per_s"])
        print(f"  tracing overhead: {base:.3f} -> {traced:.3f} ops/s "
              f"({(base / traced - 1) * 100:.1f}% slower); "
              f"{res['spans']} spans in {res['spans_file']}; "
              f"failed {failed} of {n}")
    ladder = res["cap_ladder"]
    print(f"  cap ladder: {ladder['instance']} cap_exceeded="
          f"{ladder['cap_exceeded']}")
    for name, (count, reason) in sorted(res["failed_ops"].items()):
        tag = "unexpected" if name in res["unexpected"] else "known defect"
        print(f"  FAILED {name} x{count} ({tag}): {reason}")
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="finmonad benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S
    try:
        spec = _check_layout()
        units = {m["name"]: m["unit"] for m in
                 spec["per_layer" if args.trace else "end_to_end"]}
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        if args.workload == "all":
            deadline += DEADLINE_S * (len(names) - 1)
        out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for w in names:
            res = run_workload(w, args.seed, args.seconds, args.trace, deadline)
            metrics = report(res, bool(args.trace), units)
            missing = [m for m in units if m not in metrics]
            if missing:
                raise BenchError(f"no value for {missing}")
            out["correct"] = out["correct"] and not res["unexpected"]
            out["attempted"] += res["attempted"]
            out["failed"] += res["failed"]
            prefix = "" if len(names) == 1 else w + "."
            for m, unit in units.items():
                out["metrics"][prefix + m] = {"value": metrics[m], "unit": unit}
    except (BenchError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
