"""The benchmark reaches into noclock by name: every function it wraps in
perfbench/layers.py and every `Params` field perfbench/check.py reads must
still exist, or the benchmark breaks."""

import os
import re
import subprocess
import sys
import textwrap

from shapes import derive_pk4


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Run in a fresh interpreter: instrument() patches the imported modules.
PROBE = textwrap.dedent("""
    import importlib, sys
    sys.path[:0] = [sys.argv[1], sys.argv[2]]
    import layers
    names = ({mod for mod, *_ in layers.SPANS}
             | {m for mod, _, src, _ in layers.ALIASES for m in (mod, src)})
    mods = {m: importlib.import_module(f"noclock.{m}") for m in names}
    missing = [f"{mod}.{owner + '.' if owner else ''}{attr}"
               for mod, owner, attr, _ in layers.SPANS
               if not hasattr(getattr(mods[mod], owner) if owner else mods[mod],
                              attr)]
    missing += [f"{mod}.{attr}" for mod, attr, _, _ in layers.ALIASES
                if not hasattr(mods[mod], attr)]
    assert not missing, f"perfbench/layers.py names missing: {missing}"
    tracer = layers.Tracer()
    layers.instrument(tracer, mods)

    from noclock.scenario import Scenario
    sc = Scenario(n=4, f=1, duration="40", seed=1,
                  adversary={"byzantine": "noise", "byzantine_set": [3]},
                  script=[{"t": "6", "node": 0, "action": "initiate"}])
    root = tracer.open_root()
    mods["harness"].run(sc)
    tracer.close_root(root)
    calls, _, _ = tracer.collect()
    idle = [name for name in ("kernel.send", "node.on_deliver",
                              "node.on_threshold", "node.on_action",
                              "adversary.handlers", "rounds.join",
                              "verdicts.evaluate") if not calls.get(name)]
    assert not idle, f"traced spans never entered: {idle}"
""")


def test_layer_names_exist_and_trace_a_run():
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, os.path.join(ROOT, "perfbench"),
         os.path.join(ROOT, "src")],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_check_reads_only_params_fields():
    with open(os.path.join(ROOT, "perfbench", "check.py")) as fh:
        read = set(re.findall(r"\bp\.(\w+)", fh.read()))
    assert {"clock_modulus", "d", "d_clk", "gate_hold", "grid", "round_gap",
            "rounds", "stall_after", "theta", "trust_regain",
            "update_period"} <= read
    p = derive_pk4(4, 1, "1.1", "1")
    assert sorted(name for name in read if not hasattr(p, name)) == []
