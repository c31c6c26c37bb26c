"""One benchmark process: set up a workload, run it closed-loop, report.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
                                [--trace 0|1] [--setup-only]

Run from the root of a checkout. The process imports ``finmonad`` from
``src/``, builds and validates the workload's inputs, builds the fixture
corpus and prints ``READY``: that is the end of set-up. It then times
the reference kernel (see ``reference_ms``) and prints ``SCALE <f>``, the
factor that scales its times to the reference speed. With
``--setup-only`` it exits there. Otherwise one client runs the workload's
op list closed-loop, in a fresh permutation drawn from the seed for every
pass, until ``--seconds`` have passed and at least ``MIN_OPS`` ops have
run, always finishing the pass in progress. Each op's answer is checked
against the expected answer in :mod:`workloads`. The last line is
``RESULT <json>``.

With ``--trace 1`` the time is split in two halves: first untraced, then
with :class:`tracer.Tracer` installed. The ``cli`` workload then calls
``finmonad.cli.main`` in process instead of starting a subprocess per op.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_DIR = os.path.join(ROOT, ".perfbench_run")
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle  # noqa: E402
import workloads as W  # noqa: E402

# Enough ops per run that at least ten samples lie above the 90th percentile.
MIN_OPS = 100


class SetupError(Exception):
    """The workload's inputs are not what the benchmark expects."""


class Op:
    __slots__ = ("name", "run")

    def __init__(self, name, run):
        self.name = name
        self.run = run  # () -> None on a correct answer, else the reason


# ---------------------------------------------------------------------------
# search


def build_search() -> list:
    from finmonad import fincat, monad

    cats = {name: fincat.validate_category(make())
            for name, make in W.SEARCH_CATEGORIES.items()}
    calls = {
        "functors": lambda C: fincat.enumerate_functors(C, C, jobs=1),
        "monads": lambda C: monad.enumerate_monads(C, jobs=1),
        "comonads": lambda C: monad.enumerate_comonads(C, jobs=1),
    }

    def op(kind, cat, expected):
        def run():
            found = calls[kind](cats[cat])
            if len(found) != expected:
                return f"{len(found)} results, expected {expected}"
            if len({x.canonical_key() for x in found}) != len(found):
                return "duplicate results"
            return None
        return Op(f"{kind}-{cat}", run)

    return [[op(*spec)] for spec in W.SEARCH_OPS]


# ---------------------------------------------------------------------------
# roundtrip


def _lifting_data(lm):
    return (lm.that.object_map, lm.that.morphism_map,
            lm.mu_hat.components, lm.eta_hat.components)


def build_roundtrip(cor) -> list:
    from finmonad import construct, distlaw, twofunctors as tf

    for name, omap in W.C3_MONADS.items():
        if cor.monads_c3[name].S.object_map != omap:
            raise SetupError(f"corpus monad {name} differs from the workload")
    for name, omap in W.C3_COMONADS.items():
        if cor.comonads_c3[name].G.object_map != omap:
            raise SetupError(f"corpus comonad {name} differs from the workload")
    if {(c, n) for c, n, _ in cor.all_monads()} != set(W.HOMISO):
        raise SetupError("corpus monads differ from the workload")
    C3 = cor.c3

    def law_op(sn, tn):
        S, T = cor.monads_c3[sn], cor.monads_c3[tn]
        s_map, t_map = W.C3_MONADS[sn], W.C3_MONADS[tn]
        expected = W.LAWS[(sn, tn)]

        def run():
            laws = distlaw.enumerate_dist_laws(S, T, jobs=1)
            if len(laws) != expected:
                return f"{len(laws)} laws, expected {expected}"
            lifts = tf.enumerate_liftings(S, T, jobs=1)
            if len(lifts) != expected:
                return f"{len(lifts)} liftings, expected {expected}"
            em = construct.em_category(S)
            if len(em.category.objects) != W.EM_OBJECTS[sn]:
                return f"{len(em.category.objects)} algebras"
            kl = construct.kleisli_category(T)
            if len(kl.category.objects) != len(s_map):
                return f"{len(kl.category.objects)} Kleisli objects"
            for dl in laws:
                for x, c in dl.phi.components.items():
                    if (C3.src(c), C3.tgt(c)) != (s_map[t_map[x]], t_map[s_map[x]]):
                        return f"law component at {x} is mistyped"
                lm = tf.lift_monad(dl, em)
                if tf.extract_dist_law(lm).phi.components != dl.phi.components:
                    return "extract after lift is not the law"
                ke = tf.extend_monad(dl, kl)
                if tf.extract_from_extension(ke).phi.components != dl.phi.components:
                    return "extract after extend is not the law"
                if tf.check_joint_compatibility(lm, ke) is not True:
                    return "lifting and extension are not compatible"
            for lm in lifts:
                again = tf.lift_monad(tf.extract_dist_law(lm), em)
                if _lifting_data(again) != _lifting_data(lm):
                    return "lift after extract is not the lifting"
            return None
        return Op(f"laws-{sn}-{tn}", run)

    def mixed_op(sn, gn):
        S, G = cor.monads_c3[sn], cor.comonads_c3[gn]
        expected = W.MIXED_LAWS[(sn, gn)]

        def run():
            laws = distlaw.enumerate_mixed_laws(S, G, jobs=1)
            if len(laws) != expected:
                return f"{len(laws)} mixed laws, expected {expected}"
            lifts = tf.enumerate_comonad_liftings(S, G, jobs=1)
            if len(lifts) != expected:
                return f"{len(lifts)} comonad liftings, expected {expected}"
            for ml in laws:
                lc, cl = tf.lift_comonad(ml), tf.colift_monad(ml)
                if tf.extract_mixed_from_lifting(lc).psi.components != ml.psi.components:
                    return "extract after comonad lift is not the law"
                if tf.extract_mixed_from_colifting(cl).psi.components != ml.psi.components:
                    return "extract after colift is not the law"
                if tf.check_mixed_compatibility(lc, cl) is not True:
                    return "the two liftings are not compatible"
            return None
        return Op(f"mixed-{sn}-{gn}", run)

    def homiso_op(cat, name, m):
        cells, two_cells = W.HOMISO[(cat, name)]
        want = {"homiso/object-count": {"mnd": cells, "adjr": cells},
                "homiso/two-cell-count": {"mnd": two_cells, "adjr": two_cells}}

        def run():
            entries = tf.hom_iso_roundtrip(m, jobs=1)
            if len(entries) != W.HOMISO_ENTRIES:
                return f"{len(entries)} entries"
            bad = [e.check for e in entries if e.status != "pass"]
            if bad:
                return f"{bad[0]} fails"
            for e in entries:
                if e.check in want and e.witness != want[e.check]:
                    return f"{e.check} witness {e.witness}"
            return None
        return Op(f"homiso-{cat}-{name}", run)

    units = [[law_op(s, t)] for s in W.C3_MONADS for t in W.C3_MONADS]
    units += [[mixed_op(s, g)] for s in W.C3_MONADS for g in W.C3_COMONADS]
    units += [[homiso_op(c, n, m)] for c, n, m in cor.all_monads()]
    return units


# ---------------------------------------------------------------------------
# cli


def check_report(expect: dict, rc: int, out: bytes, err: bytes):
    """None when one cli run gave the expected answer, else the reason."""
    if b"Traceback" in err:
        return "traceback on stderr"
    if rc != expect["exit"]:
        return f"exit {rc}, expected {expect['exit']}"
    try:
        checks = json.loads(out)["checks"]
        statuses = [c["status"] for c in checks]
    except (ValueError, KeyError, TypeError):
        return "stdout is not a report"
    if expect["exit"] == 2:
        named = [(c.get("witness") or {}).get("kind") for c in checks
                 if c["status"] == "fail" and isinstance(c.get("witness"), dict)]
        named = [k for k in named if isinstance(k, str) and k]
        if not named:
            return "rejected without a named error"
        if expect["error"] and expect["error"] not in named:
            return f"rejected as {named[0]}, expected {expect['error']}"
        return None
    if any(s != "pass" for s in statuses):
        return "a check fails"
    if len(checks) != expect["total"]:
        return f"{len(checks)} checks, expected {expect['total']}"
    witnesses = {c["check"]: c.get("witness") for c in checks}
    for name, want in expect.get("witness", {}).items():
        if witnesses.get(name) != want:
            return f"{name} witness {witnesses.get(name)}"
    if "count" in expect:
        name, want = expect["count"]
        got = (witnesses.get(name) or {}).get("count")
        if got != want:
            return f"{name} count {got}, expected {want}"
    return None


def _run_subprocess(argv: list, env: dict):
    proc = subprocess.run([sys.executable, "-m", "finmonad.cli", *argv],
                          cwd=ROOT, env=env, capture_output=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def _run_in_process(argv: list):
    import finmonad.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = finmonad.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the op fails; the benchmark goes on
            traceback.print_exc()
            rc = 1
    return rc, out.getvalue().encode(), err.getvalue().encode()


def build_cli(scratch: str) -> tuple:
    """(units, in-process units): the same ops, run two ways."""
    rel = os.path.relpath(scratch, ROOT)
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for unit in W.CLI_UNITS:
        for name, argv, expect in unit:
            for a in argv[1:]:
                path = os.path.join(ROOT, a)
                if a.endswith(".json") and "@RUN@" not in a:
                    if os.path.exists(path) != (name != "reject-missing-file"):
                        raise SetupError(f"input of {name} is missing or present: {a}")

    def make(in_process: bool) -> list:
        first = {}

        def op(name, argv, expect):
            args = [a.replace("@RUN@", rel) for a in argv] + ["--format", "json"]

            def run():
                if in_process:
                    rc, out, err = _run_in_process(args)
                else:
                    rc, out, err = _run_subprocess(args, env)
                reason = check_report(expect, rc, out, err)
                if first.setdefault(name, out) != out:
                    reason = reason or "stdout differs from this op's first run"
                return reason
            return Op(name, run)

        return [[op(*spec) for spec in unit] for unit in W.CLI_UNITS]

    return make(False), make(True)


# ---------------------------------------------------------------------------
# reference speed
#
# The host changes speed by itself: on a shared 2-core virtual machine
# each core spends stretches of under a second up to minutes at about
# half speed, and Python code on it slows by much the same factor. A
# fixed reference kernel, run after every op, measures that speed. It counts the
# endofunctors of the 4-chain with the raw-table brute force of
# oracle.py, which does not touch finmonad, so a change to finmonad
# leaves its time alone. The time metrics are scaled to the speed at
# which the kernel takes REF_MS (see ``Loop``).

REF_TABLE = oracle.Table(oracle.chain(4))
REF_ANSWER = 35  # C(7, 4) monotone maps
# About the kernel's time on a quiet core of a 2-core VM with Python 3.11.
REF_MS = 2.0


def reference_ms() -> float:
    """Run the reference kernel once, with the collector paused; its ms."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        found = oracle.functors(REF_TABLE)
        ms = (time.perf_counter() - t0) * 1000.0
    finally:
        gc.enable()
    if len(found) != REF_ANSWER:
        raise RuntimeError(f"reference kernel found {len(found)} functors")
    return ms


# ---------------------------------------------------------------------------
# measurement


def _cpus() -> list:
    """The CPUs this process may run on, or [] where that cannot be set."""
    if not hasattr(os, "sched_setaffinity"):
        return []
    return sorted(os.sched_getaffinity(0))


class Loop:
    """Closed loop, one client: whole passes over a seeded permutation.

    Pass k runs on CPU k mod n of the n CPUs the process may use: left
    alone, the scheduler keeps the process (and the cli processes it
    starts) on one core, and a run measures that core's luck. The
    process moves once per pass, not per op.

    After every op the reference kernel runs once, untimed as part of the
    op. Each pass's times are scaled by ``REF_MS / (the kernel's mean
    time in that pass)``: what the pass would have measured at the
    reference speed.
    """

    def __init__(self, units: list, seed: int):
        self.units = units
        self.rng = random.Random(seed)
        self.latencies = []  # s, as measured
        self.scaled = []  # s, scaled to the reference speed
        self.ref_ms = []  # the reference kernel after each op
        self.failures = {}  # op name -> [times failed, first reason]
        self.attempted = 0
        self.passes = 0
        self.wall = 0.0  # s, timed loop without the reference runs
        self.scaled_wall = 0.0

    def run(self, seconds: float, min_ops: int, tracer=None) -> None:
        perf = time.perf_counter
        cpus = _cpus()
        start = perf()
        while True:
            if len(cpus) > 1:
                os.sched_setaffinity(0, {cpus[self.passes % len(cpus)]})
            order = list(self.units)
            self.rng.shuffle(order)
            lat, ref = [], []
            pass_start = perf()
            for unit in order:
                for op in unit:
                    if tracer is not None:
                        tracer.op = self.attempted
                    t0 = perf()
                    try:
                        reason = op.run()
                    except Exception as exc:  # a failed op, not a failed run
                        reason = f"{type(exc).__name__}: {exc}"
                    lat.append(perf() - t0)
                    ref.append(reference_ms())
                    self.attempted += 1
                    if reason is not None:
                        self.failures.setdefault(op.name, [0, reason])[0] += 1
            wall = perf() - pass_start - sum(ref) / 1000.0
            scale = REF_MS / statistics.mean(ref)
            self.latencies += lat
            self.scaled += [x * scale for x in lat]
            self.ref_ms += ref
            self.wall += wall
            self.scaled_wall += wall * scale
            self.passes += 1
            if perf() - start >= seconds and self.attempted >= min_ops:
                break
        if len(cpus) > 1:
            os.sched_setaffinity(0, set(cpus))

    def summary(self) -> dict:
        """The time metrics scaled to the reference speed, and under
        ``measured`` as measured."""
        def metrics(latencies, wall):
            lat_ms = [x * 1000.0 for x in latencies]
            # The inclusive method puts p90 at rank 0.9 (n - 1) + 1. With
            # the default (exclusive) method, 0.9 (n + 1) interpolates 9:1
            # towards the fastest sample of the slowest tenth; in roundtrip
            # exactly 4 of 40 ops are 3x slower than the rest, and that
            # made p90 swing.
            q = statistics.quantiles(lat_ms, n=10, method="inclusive")
            return {"ops_per_s": self.attempted / wall,
                    "latency_p50_ms": statistics.median(lat_ms),
                    "latency_p90_ms": q[8]}

        return {**metrics(self.scaled, self.scaled_wall),
                "measured": metrics(self.latencies, self.wall),
                "ref_ms": statistics.mean(self.ref_ms),
                "samples": len(self.latencies), "passes": self.passes,
                "wall_s": self.wall}


def cap_ladder() -> dict:
    """Enumerate T3's endofunctors once, untimed, and record the outcome."""
    from finmonad import fincat
    from finmonad.errors import EnumerationCapExceeded

    name, make = W.CAP_LADDER
    C = fincat.validate_category(make())
    try:
        found = fincat.enumerate_functors(C, C)
    except EnumerationCapExceeded as exc:
        return {"instance": name, "cap_exceeded": 1, "detail": str(exc)}
    return {"instance": name, "cap_exceeded": 0, "functors": len(found)}


def import_ms(repeats: int = 5) -> float:
    """Wall time of importing finmonad.cli in a fresh interpreter, net of
    interpreter start-up: the median over interleaved pairs."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    diffs = []
    for _ in range(repeats):
        times = []
        for code in ("import finmonad.cli", "pass"):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                           check=True, capture_output=True, timeout=60)
            times.append(time.perf_counter() - t0)
        diffs.append((times[0] - times[1]) * 1000.0)
    return statistics.median(diffs)


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=W.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    # -- set-up: imports, inputs, corpus --------------------------------------
    from finmonad import fixtures

    os.makedirs(RUN_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUN_DIR)
    try:
        cor = fixtures.corpus()
        if args.workload == "search":
            units = traced_units = build_search()
        elif args.workload == "roundtrip":
            units = traced_units = build_roundtrip(cor)
        else:
            units, traced_units = build_cli(scratch)
        print("READY", flush=True)
        # The speed this set-up ran at, for run.py to scale it by.
        ref = statistics.mean(reference_ms() for _ in range(5))
        print(f"SCALE {REF_MS / ref!r}", flush=True)
        if args.setup_only:
            return 0
        return measure(args, units, traced_units)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(args, units, traced_units) -> int:
    result = {"workload": args.workload, "seed": args.seed}
    if not args.trace:
        loop = Loop(units, args.seed)
        loop.run(args.seconds, MIN_OPS)
        result.update(loop.summary())
        result["peak_rss_mb"] = peak_rss_mb(children=args.workload == "cli")
        result["cap_ladder"] = cap_ladder()
        loops = [loop]
    else:
        import tracer as trace_mod

        untraced = Loop(traced_units, args.seed)
        untraced.run(args.seconds / 2, 1)
        tracer = trace_mod.Tracer()
        tracer.install()
        try:
            traced = Loop(traced_units, args.seed)
            traced.run(args.seconds / 2, 1, tracer)
        finally:
            tracer.uninstall()
        stats = tracer.stats()
        layers = {}
        for name in trace_mod.all_metric_names():
            base, stat = name.rsplit(".", 1)
            layers[name] = stats.get(base, {}).get(stat, 0)
        ladder = cap_ladder()
        layers["fincat.enumerate_functors.cap_exceeded"] = ladder["cap_exceeded"]
        layers["cli.import_ms"] = import_ms() if args.workload == "cli" else 0.0
        layers["bench.untraced_ops_per_s"] = untraced.summary()["ops_per_s"]
        layers["bench.traced_ops_per_s"] = traced.summary()["ops_per_s"]
        result["layers"] = layers
        result["cap_ladder"] = ladder
        result["spans"] = tracer.span_count()
        path = os.path.join(RUN_DIR, f"spans-{args.workload}-{args.seed}.jsonl")
        tracer.write_spans(path)
        result["spans_file"] = os.path.relpath(path, ROOT)
        loops = [untraced, traced]
    result["attempted"] = sum(lp.attempted for lp in loops)
    failed_ops = {}
    for lp in loops:
        for name, (count, reason) in lp.failures.items():
            failed_ops.setdefault(name, [0, reason])[0] += count
    result["failed"] = sum(c for c, _ in failed_ops.values())
    result["failed_ops"] = failed_ops
    result["unexpected"] = sorted(set(failed_ops) - set(W.KNOWN_DEFECTS))
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
