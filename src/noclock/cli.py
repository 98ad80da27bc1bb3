"""Command-line scenario runner.

    noclock run --scenario sc.json --out results/
    noclock sweep --scenario sc.json --axis seed=0,1,2 --axis n=4,7
    noclock check-trace --dir results/
    noclock explain --dir results/ timing-windows

Exit status is nonzero iff any verdict fails.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import harness, verdicts
from .scenario import Scenario, ScenarioError


def _verdict_json(v: verdicts.Verdict) -> dict:
    return {"name": v.name, "passed": v.passed, "measured": v.measured,
            "counterexample": None if v.counterexample is None
            else [repr(rec) for rec in v.counterexample]}


def _report(result) -> str:
    lines = [f"byzantine={result.byzantine} "
             f"n={result.scenario.n} f={result.scenario.f} "
             f"theta={result.scenario.theta} seed={result.scenario.seed}"]
    for v in result.verdicts:
        flag = "PASS" if v.passed else "FAIL"
        lines.append(f"  [{flag}] {v.name}  {v.measured}")
    return "\n".join(lines)


def _write_outputs(result, outdir: str) -> None:
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "trace.log"), "w") as fh:
        fh.write("\n".join(verdicts.trace_lines(result.trace)))
        fh.write("\n")
    with open(os.path.join(outdir, "trace.jsonl"), "w") as fh:
        fh.write(verdicts.trace_to_jsonl(result.trace))
    with open(os.path.join(outdir, "verdicts.json"), "w") as fh:
        json.dump([_verdict_json(v) for v in result.verdicts], fh, indent=2)
        fh.write("\n")
    with open(os.path.join(outdir, "metrics.json"), "w") as fh:
        rows = verdicts.bit_windows(result.trace, result.scenario,
                                    result.params, result.correct,
                                    result.metrics)
        json.dump({"totals": result.metrics, "windows": rows}, fh, indent=2)
        fh.write("\n")
    result.scenario.dump(os.path.join(outdir, "scenario.json"))


def _cmd_run(args) -> int:
    sc = Scenario.load(args.scenario)
    if args.seed is not None:
        sc.seed = args.seed
    result = harness.run(sc)
    if args.out:
        _write_outputs(result, args.out)
    print(_report(result))
    return 0 if result.passed else 1


def _cmd_sweep(args) -> int:
    sc = Scenario.load(args.scenario)
    axes = {}
    for axis_arg in args.axis or []:
        key, _, values = axis_arg.partition("=")
        parsed = []
        for tok in values.split(","):
            try:
                parsed.append(int(tok))
            except ValueError:
                parsed.append(tok)
        axes[key] = parsed
    results = harness.sweep(sc, axes)
    bad = 0
    for result in results:
        print(_report(result))
        bad += 0 if result.passed else 1
    print(f"{len(results) - bad}/{len(results)} runs fully passed")
    return 0 if bad == 0 else 1


def _cmd_check_trace(args) -> int:
    from . import protocols
    sc = Scenario.load(os.path.join(args.dir, "scenario.json"))
    with open(os.path.join(args.dir, "trace.jsonl")) as fh:
        trace = verdicts.trace_from_jsonl(fh.read())
    _rng, p, _byz, correct, _offsets, clocks = harness.build_env(sc)
    vds = verdicts.evaluate(trace, sc, p, clocks, correct,
                            lambda: protocols.make_protocol(
                                sc.protocol["name"], sc.n, sc.f))
    for v in vds:
        flag = "PASS" if v.passed else "FAIL"
        print(f"[{flag}] {v.name}  {v.measured}")
    return 0 if all(v.passed for v in vds) else 1


def _cmd_explain(args) -> int:
    with open(os.path.join(args.dir, "verdicts.json")) as fh:
        stored = json.load(fh)
    for v in stored:
        if v["name"] == args.verdict:
            print(json.dumps(v, indent=2))
            return 0 if v["passed"] else 1
    print(f"no verdict named {args.verdict!r}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="noclock", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run one scenario")
    runp.add_argument("--scenario", required=True)
    runp.add_argument("--out", help="directory for trace/verdicts/metrics")
    runp.add_argument("--seed", type=int)
    runp.set_defaults(func=_cmd_run)

    sweepp = sub.add_parser("sweep", help="run a cross-product of overrides")
    sweepp.add_argument("--scenario", required=True)
    sweepp.add_argument("--axis", action="append",
                        help="key=v1,v2 (repeatable); e.g. seed=0,1,2")
    sweepp.set_defaults(func=_cmd_sweep)

    checkp = sub.add_parser("check-trace", help="re-evaluate a stored trace")
    checkp.add_argument("--dir", required=True)
    checkp.set_defaults(func=_cmd_check_trace)

    explainp = sub.add_parser("explain", help="show one stored verdict")
    explainp.add_argument("--dir", required=True)
    explainp.add_argument("verdict")
    explainp.set_defaults(func=_cmd_explain)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print("scenario invalid:\n  " + "\n  ".join(exc.problems),
              file=sys.stderr)
        return 2
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
