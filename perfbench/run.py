"""Co-design benchmark: runs one workload of CLI commands and reports metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload greedy-f8 --seed 7 --seconds 36 --trace 0

The workload's commands run in-process through ``lqgcodesign.cli.main``,
round after round, closed loop with one client, until the next round would
overrun ``--seconds`` (at least ``MIN_ROUNDS`` rounds).  ``--trace 0`` times
the rounds untraced and reports the end-to-end metrics, with times scaled
to reference seconds by the speed probe in speed.py.  ``--trace 1``
alternates untraced and traced rounds, writes the spans of the traced ones
to ``perfbench/out/`` and reports the per-layer metrics.  ``--smoke`` runs
scaled-down inputs for the benchmark's own tests.

Every answer is checked (see checks.py).  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The lines before it print every metric by name with its unit, and a result
file in ``perfbench/out/`` records them with the machine.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_ROUNDS = 3          # untraced rounds; a traced run makes at least 2 pairs
SETUP_REPEATS = 7

# Metrics of the final line with --trace 0: defined on every workload, never 0.
END_TO_END_UNITS = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Times the package's import in a fresh interpreter under a speed probe and
# prints the samples as JSON.  numpy is imported first, untimed: loading it
# is not the package's work, and as the first import of a fresh process it
# is the part most sensitive to the shared host (its raw time moved by 45%
# between periods of tens of seconds that the probe does not see).
_IMPORT_PROBE = (
    "import json, sys, time\n"
    "import numpy\n"
    "sys.path.append(sys.argv[2])\n"
    "from speed import SpeedProbe\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "with SpeedProbe(period=0.005) as probe:\n"
    "    start = time.perf_counter()\n"
    "    import lqgcodesign\n"
    "    end = time.perf_counter()\n"
    "print(json.dumps({'file': lqgcodesign.__file__, 'start': start, 'end': end,\n"
    "                  'starts': probe.starts, 'ends': probe.ends,\n"
    "                  'kernels': probe.kernels}))\n"
)


class SetupError(RuntimeError):
    """The benchmark cannot run here: no result is printed."""


def _under_src(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC.resolve())


def fresh_import_seconds() -> tuple[list[float], list[float]]:
    """Seconds to import the package in fresh interpreters: raw and reference."""
    from speed import SpeedProbe

    raw, ref = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC), str(HERE)],
                              capture_output=True, text=True, timeout=120, cwd=ROOT)
        try:
            child = json.loads(proc.stdout)
        except ValueError:
            child = None
        if proc.returncode != 0 or child is None or not _under_src(child["file"]):
            raise SetupError(f"cannot import lqgcodesign from {SRC}: {proc.stderr.strip()}")
        probe = SpeedProbe()
        probe.starts, probe.ends, probe.kernels = child["starts"], child["ends"], child["kernels"]
        raw.append(child["end"] - child["start"])
        ref.append(probe.scaled_seconds(child["start"], child["end"]))
    return raw, ref


def import_package():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import lqgcodesign
        import lqgcodesign.cli
    except ImportError as exc:
        raise SetupError(f"cannot import lqgcodesign from {SRC}: {exc}") from None
    if not _under_src(lqgcodesign.__file__):
        raise SetupError(f"lqgcodesign imported from {lqgcodesign.__file__}, not {SRC}")
    return lqgcodesign


def run_command(lq, argv) -> tuple[int | None, str, float, float]:
    """Run one CLI command in-process: exit code, standard output, start, end."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = lq.cli.main(list(argv))
    except Exception:   # a crash is a failed command; keep measuring the rest
        traceback.print_exc()
        code = None
    return code, buf.getvalue(), start, time.perf_counter()


def run_round(lq, plan, round_no: int, log: list[dict],
              tracer=None) -> tuple[float, float]:
    """Run every command of the plan once; append one record per command."""
    start = time.perf_counter()
    for cmd in plan.commands:
        if tracer is not None:
            tracer.command = len(log)
        code, text, t0, t1 = run_command(lq, cmd.argv)
        log.append({"id": len(log), "round": round_no, "metric": cmd.metric,
                    "traced": tracer is not None, "code": code, "start": t0, "end": t1,
                    "output": text})
    return start, time.perf_counter()


def measure(lq, plan, seconds: float, trace: bool, min_rounds: int):
    """Rounds until the next would overrun ``seconds``; traced ones alternate.

    Returns the command log, the (start, end) of each untraced and traced
    round, the tracer and the speed probe that ran throughout.
    """
    from speed import SpeedProbe
    from tracing import Tracer

    log: list[dict] = []
    rounds = {False: [], True: []}
    tracer = Tracer() if trace else None
    with SpeedProbe() as probe:
        start = time.perf_counter()
        round_no = 0
        while True:
            round_no += 1
            rounds[False].append(run_round(lq, plan, round_no, log))
            if tracer is not None:
                round_no += 1
                tracer.install()
                try:
                    rounds[True].append(run_round(lq, plan, round_no, log, tracer))
                finally:
                    tracer.remove()
            elapsed = time.perf_counter() - start
            cycles = len(rounds[False])
            if cycles >= min_rounds and elapsed + elapsed / cycles > seconds:
                break
    return log, rounds, tracer, probe


def judge(lq, plan, log: list[dict], checks_log: list[dict], workdir: Path,
          golden: dict | None):
    """Count failed commands: non-zero exit, a changed output or a failed check."""
    from checks import check_workload, parse_output

    kinds = {c.metric: c.kind for c in plan.commands + plan.checks}
    first = {}
    parsed = {}
    problems: dict[str, list[str]] = {}
    for rec in log + checks_log:
        if rec["code"] == 0 and rec["metric"] not in first:
            first[rec["metric"]] = rec["output"]
            try:
                parsed[rec["metric"]] = parse_output(kinds[rec["metric"]], rec["output"])
            except ValueError as exc:
                problems.setdefault(rec["metric"], []).append(f"unparsable output: {exc}")
    check = check_workload(lq, plan, parsed, workdir, golden)
    for metric, items in check.problems.items():
        problems.setdefault(metric, []).extend(items)
    wrong = set(problems)
    failed = 0
    for rec in log + checks_log:
        bad = rec["code"] != 0 or rec["output"] != first.get(rec["metric"]) \
            or rec["metric"] in wrong
        if rec["code"] != 0:
            problems.setdefault(rec["metric"], []).append(
                f"round {rec['round']}: exit code {rec['code']}")
        elif rec["output"] != first.get(rec["metric"]):
            problems.setdefault(rec["metric"], []).append(
                f"round {rec['round']}: output differs from the first round")
        failed += bad
    return failed, problems


def machine_info(seed: int) -> dict:
    """Hardware and software the result was measured on."""
    import numpy as np

    cpu_model = None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _blas_threads(np) -> int | None:
    """Threads OpenBLAS will use, read from the library numpy loaded."""
    import ctypes

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run(args) -> dict:
    """Set up, measure and check one workload; return the full result."""
    import workloads
    from checks import load_answers

    from speed import SpeedProbe

    import_raw, import_ref = fresh_import_seconds()
    lq = import_package()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        setups = []
        with SpeedProbe() as setup_probe:
            for _ in range(SETUP_REPEATS):
                start = time.perf_counter()
                plan = workloads.build_plan(lq, args.workload, workdir, args.seed, args.smoke)
                setups.append((start, time.perf_counter()))
        min_rounds = 1 if args.smoke else 2 if args.trace else MIN_ROUNDS
        log, rounds, tracer, probe = measure(lq, plan, args.seconds, args.trace, min_rounds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        checks_log = []
        for cmd in plan.checks:
            code, text, t0, t1 = run_command(lq, cmd.argv)
            checks_log.append({"id": None, "round": 0, "metric": cmd.metric, "traced": False,
                               "code": code, "start": t0, "end": t1, "output": text})
        golden = None
        if args.seed == workloads.DEFAULT_SEED and not args.smoke:
            golden = load_answers(args.workload) or {}
        failed, problems = judge(lq, plan, log, checks_log, workdir, golden)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(log) + len(checks_log)
    setup_ref = [setup_probe.scaled_seconds(start, end) for start, end in setups]
    walls = {traced: [end - start for start, end in spans]
             for traced, spans in rounds.items()}
    ref_walls = {traced: [probe.scaled_seconds(start, end) for start, end in spans]
                 for traced, spans in rounds.items()}
    untraced = [r for r in log if not r["traced"]]
    metrics = {
        "wall_ref_s": (statistics.median(ref_walls[False]), "s"),
        "setup_s": (statistics.median(import_ref) + statistics.median(setup_ref), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "wall_s": (statistics.median(walls[False]), "s"),
        "fail_frac": (failed / attempted, "ratio"),
    }
    for cmd in plan.commands:
        times = [probe.scaled_seconds(r["start"], r["end"])
                 for r in untraced if r["metric"] == cmd.metric]
        metrics[cmd.metric] = (statistics.median(times), "s")
    kernel_s = probe.kernels
    result = {
        "workload": args.workload, "seed": args.seed, "trace": int(args.trace),
        "smoke": args.smoke, "rounds": len(walls[False]), "traced_rounds": len(walls[True]),
        "machine": machine_info(args.seed),
        "import_s": {"raw": import_raw, "ref": import_ref},
        "setup_runs_s": {"raw": [end - start for start, end in setups], "ref": setup_ref},
        "round_walls_s": {"untraced": walls[False], "traced": walls[True]},
        "round_ref_walls_s": {"untraced": ref_walls[False], "traced": ref_walls[True]},
        "speed_probe": {"samples": len(kernel_s), "period_s": probe.period,
                        "kernel_s_deciles": statistics.quantiles(kernel_s, n=10)},
        "attempted": attempted, "failed": failed, "problems": problems,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if tracer is not None:
        from tracing import PER_LAYER_UNITS, layer_metrics

        commands = [{"id": r["id"], "round": r["round"], "metric": r["metric"]}
                    for r in log if r["traced"]]
        spans_path = OUT / f"spans-{_tag(args)}.json"
        tracer.write(spans_path, {"workload": args.workload, "seed": args.seed,
                                  "machine": result["machine"], "commands": commands})
        with open(spans_path, "r", encoding="utf-8") as fh:
            spans = json.load(fh)["spans"]
        layers = layer_metrics(spans, commands, ref_walls[False], ref_walls[True])
        result["spans_file"] = str(spans_path.relative_to(ROOT))
        result["per_layer"] = {k: {"value": layers[k], "unit": u}
                               for k, u in PER_LAYER_UNITS.items()}
    return result


def _tag(args) -> str:
    return f"{args.workload}-seed{args.seed}" + ("-smoke" if args.smoke else "")


def report(result: dict) -> dict:
    """Print every metric with its unit; return the final line's object."""
    print(f"perfbench {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"rounds={result['rounds']} traced_rounds={result['traced_rounds']}"
          + (" smoke" if result["smoke"] else ""))
    print("machine " + json.dumps(result["machine"], sort_keys=True))
    for section in ("end_to_end", "per_layer"):
        for name, m in result.get(section, {}).items():
            print(f"  {name:26s} {m['value']:.6g} {m['unit']}")
    for metric, items in result["problems"].items():
        for item in items:
            print(f"FAIL {metric}: {item}")
    chosen = (result["per_layer"] if result["trace"]
              else {k: result["end_to_end"][k] for k in END_TO_END_UNITS})
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": chosen}


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="scaled-down inputs, at least one round")
    args = parser.parse_args(argv)
    args.trace = bool(args.trace)
    try:
        result = run(args)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    final = report(result)
    with open(OUT / f"result-{_tag(args)}-trace{int(args.trace)}.json", "w",
              encoding="utf-8") as fh:
        json.dump({**result, "final": final}, fh, indent=1)
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
