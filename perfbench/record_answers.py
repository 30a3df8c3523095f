"""Record every workload's answers at the default seed into answers_seed7.json.

    python3 perfbench/record_answers.py

Runs each workload's commands once at seed 7, checks them against the
reference evaluator and the invariants, and writes the parsed outputs.
Re-record only with a change that alters answers on purpose and says why.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads
from checks import ANSWERS, check_workload, parse_output


def main() -> int:
    lq = run.import_package()
    run.OUT.mkdir(exist_ok=True)
    answers = {}
    for name in workloads.WORKLOADS:
        workdir = Path(tempfile.mkdtemp(prefix=f"record-{name}-", dir=run.OUT))
        try:
            plan = workloads.build_plan(lq, name, workdir, workloads.DEFAULT_SEED, False)
            parsed = {}
            for cmd in plan.commands + plan.checks:
                code, text, _ = run.run_command(lq, cmd.argv)
                if code != 0:
                    print(f"{name} {cmd.metric}: exit code {code}", file=sys.stderr)
                    return 1
                parsed[cmd.metric] = parse_output(cmd.kind, text)
            problems = check_workload(lq, plan, parsed, workdir, golden=None).problems
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if problems:
            print(f"{name}: {problems}", file=sys.stderr)
            return 1
        answers[name] = parsed
    with open(ANSWERS, "w", encoding="utf-8") as fh:
        json.dump(answers, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {ANSWERS.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
