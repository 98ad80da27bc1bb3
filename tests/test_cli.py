import hashlib
import json
import runpy
import sys

import pytest

from noclock import cli, harness, verdicts
from noclock.protocols import PROTOCOLS
from noclock.scenario import Scenario
from shapes import clean_scenario


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    clean_scenario().dump(path)
    return path


def test_run_writes_outputs_and_exits_zero(scenario_file, tmp_path, capsys):
    out = tmp_path / "results"
    rc = cli.main(["run", "--scenario", str(scenario_file), "--out", str(out)])
    assert rc == 0
    assert sorted(path.name for path in out.iterdir()) == [
        "metrics.json", "scenario.json", "trace.jsonl", "verdicts.json"]
    stored = json.loads((out / "verdicts.json").read_text())
    assert all(v["passed"] for v in stored)


def test_the_module_runs_as_a_script(scenario_file, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["noclock", "run", "--scenario",
                                      str(scenario_file)])
    monkeypatch.delitem(sys.modules, "noclock.cli")   # run it afresh
    with pytest.raises(SystemExit) as done:
        runpy.run_module("noclock.cli", run_name="__main__")
    assert done.value.code == 0
    assert capsys.readouterr().out.startswith("byzantine=[3] n=4 f=1")


# The fixture scenario's outputs, pinned before `run` shared one trace index
# between its verdicts and its metrics export.
RUN_OUTPUTS = {
    "trace.jsonl":
        "59ce1a95061276a11575e26500a30f7400f592fd110db2d853a7b8e6e0692f20",
    "verdicts.json":
        "e478716228b5377616a1db733444e39cd4ed7bfa6106bd88f008ba70234ba7f2",
    "metrics.json":
        "18548a661b17dbb7be68b39e53a4a92ce624dd400651c0fb76d131f3119a55a6",
}


def test_run_indexes_the_trace_once(scenario_file, tmp_path, capsys,
                                    monkeypatch):
    built = []
    index = verdicts._Index.__init__

    def counted(self, trace, correct):
        built.append(len(trace))
        index(self, trace, correct)
    monkeypatch.setattr(verdicts._Index, "__init__", counted)
    out = tmp_path / "results"
    assert cli.main(["run", "--scenario", str(scenario_file),
                     "--out", str(out)]) == 0
    assert len(built) == 1
    for name, digest in RUN_OUTPUTS.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
    # The shared index gives the metrics a fresh one gives.
    sc = Scenario.load(scenario_file)
    _rng, p, _byz, correct, _proto, _clocks = harness.build_env(sc)
    trace = verdicts.trace_from_jsonl((out / "trace.jsonl").read_text(), sc.n)
    fresh = json.loads(json.dumps(
        verdicts.run_metrics(verdicts._Index(trace, correct), sc, p)))
    assert len(built) == 2
    assert json.loads((out / "metrics.json").read_text()) == fresh


def test_check_trace_reevaluates(scenario_file, tmp_path, capsys):
    out = tmp_path / "results"
    assert cli.main(["run", "--scenario", str(scenario_file),
                     "--out", str(out)]) == 0
    ran = capsys.readouterr().out.splitlines()
    rc = cli.main(["check-trace", "--dir", str(out)])
    assert rc == 0
    checked = capsys.readouterr().out.splitlines()
    # The verdict lines `run` printed under its header, without the indent.
    assert checked == [line.removeprefix("  ") for line in ran[1:]]
    assert "[PASS] oracle-equivalence  {'instances_replayed': 3, " \
        "'violations': 0}" in checked


def test_explain_prints_one_verdict(scenario_file, tmp_path, capsys):
    out = tmp_path / "results"
    cli.main(["run", "--scenario", str(scenario_file), "--out", str(out)])
    capsys.readouterr()
    rc = cli.main(["explain", "--dir", str(out), "timing-windows"])
    assert rc == 0
    assert "timing-windows" in capsys.readouterr().out
    assert cli.main(["explain", "--dir", str(out), "no-such"]) == 2


@pytest.mark.parametrize("content", ['[{"name": "timing-windows",',
                                     '[{"nam": 1}]'],
                         ids=["not-json", "no-name"])
def test_explain_on_unreadable_verdicts_exits_two(scenario_file, tmp_path,
                                                  capsys, content):
    out = tmp_path / "results"
    assert cli.main(["run", "--scenario", str(scenario_file),
                     "--out", str(out)]) == 0
    capsys.readouterr()
    (out / "verdicts.json").write_text(content)
    assert cli.main(["explain", "--dir", str(out), "timing-windows"]) == 2
    assert f"{out / 'verdicts.json'}: unreadable" in capsys.readouterr().err


def test_one_plugin_per_run_and_per_check_trace(scenario_file, tmp_path,
                                                capsys, monkeypatch):
    built = []
    make = PROTOCOLS["phase-king-silent"]

    def counted(n, f):
        built.append(make(n, f))
        return built[-1]
    monkeypatch.setitem(PROTOCOLS, "phase-king-silent", counted)
    sc = Scenario.load(scenario_file)
    _rng, p, _byz, _correct, proto, _clocks = harness.build_env(sc)
    assert built == [proto]
    assert (p.rounds, p.bit_bound) == (proto.rounds, proto.bit_bound)
    del built[:]
    harness.run(sc)
    assert len(built) == 1
    out = tmp_path / "results"
    assert cli.main(["run", "--scenario", str(scenario_file),
                     "--out", str(out)]) == 0
    del built[:]
    assert cli.main(["check-trace", "--dir", str(out)]) == 0
    assert len(built) == 1


def test_invalid_scenario_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 6, "f": 2}))
    rc = cli.main(["run", "--scenario", str(bad)])
    assert rc == 2
    assert "f < n/3" in capsys.readouterr().err


NOT_JSON = [b'{"n": 4,', b"\x80\xff\x00binary\xfe"]


@pytest.mark.parametrize("content", NOT_JSON, ids=["truncated", "binary"])
def test_run_on_a_file_that_is_not_json_exits_two(tmp_path, capsys, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    assert cli.main(["run", "--scenario", str(bad)]) == 2
    out = capsys.readouterr()
    assert out.err.startswith("scenario invalid:")
    assert f"{bad}: not JSON" in out.err
    assert cli.main(["sweep", "--scenario", str(bad),
                     "--axis", "seed=1,2"]) == 2
    assert f"{bad}: not JSON" in capsys.readouterr().err


@pytest.mark.parametrize("content", ["[1, 2]", '"n"', "null", "4"])
def test_a_file_that_holds_no_json_object_exits_two(tmp_path, capsys, content):
    bad = tmp_path / "bad.json"
    bad.write_text(content)
    assert cli.main(["run", "--scenario", str(bad)]) == 2
    assert "scenario: expected a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("content", NOT_JSON, ids=["truncated", "binary"])
def test_check_trace_on_a_scenario_that_is_not_json_exits_two(
        scenario_file, tmp_path, capsys, content):
    out = tmp_path / "results"
    assert cli.main(["run", "--scenario", str(scenario_file),
                     "--out", str(out)]) == 0
    capsys.readouterr()
    (out / "scenario.json").write_bytes(content)
    assert cli.main(["check-trace", "--dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("scenario invalid:")
    assert "scenario.json: not JSON" in err


def test_unknown_strategy_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"adversary": {"byzantine": "silnt"}}))
    rc = cli.main(["run", "--scenario", str(bad)])
    assert rc == 2
    assert "unknown byzantine strategy 'silnt'" in capsys.readouterr().err


@pytest.mark.parametrize("section, key", [
    ("adversary", "byzantine"), ("adversary", "mode"), ("adversary", "delays"),
    ("clocks", "rates"), ("oracle", "kind"), ("corruption", "kind")])
def test_a_null_name_runs_as_the_default(tmp_path, capsys, section, key):
    data = Scenario(n=4, f=1, duration="30", seed=5,
                    adversary={"byzantine": "clock_skew", "byzantine_set": [3]},
                    script=[{"t": "8", "node": 0, "action": "initiate"}]
                    ).to_dict()
    data[section].pop(key, None)
    null = json.loads(json.dumps(data))
    null[section][key] = None
    traces = []
    for name, value in (("missing", data), ("null", null)):
        path, out = tmp_path / f"{name}.json", tmp_path / name
        path.write_text(json.dumps(value))
        rc = cli.main(["run", "--scenario", str(path), "--out", str(out)])
        assert rc in (0, 1)
        traces.append((out / "trace.jsonl").read_text())
    assert traces[0] == traces[1]


def test_sweep_axes(scenario_file, capsys):
    rc = cli.main(["sweep", "--scenario", str(scenario_file),
                   "--axis", "seed=3,4"])
    assert rc == 0
    assert "2/2 runs fully passed" in capsys.readouterr().out


def test_repeated_byzantine_id_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 7, "f": 2, "adversary": {
        "byzantine": "noise", "byzantine_set": [3, 3]}}))
    assert cli.main(["run", "--scenario", str(bad)]) == 2
    assert "byzantine_set repeats a node id" in capsys.readouterr().err


def test_unknown_script_action_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"script": [{"t": "8", "node": 0,
                                           "action": "initate"}]}))
    assert cli.main(["run", "--scenario", str(bad)]) == 2
    assert "unknown script action 'initate'" in capsys.readouterr().err


@pytest.mark.parametrize("data, message", [
    ({"d": "0"}, "d=0 must be positive"),
    ({"clock_update_period": "0.5"}, "clock_update_period=0.5 below d=1"),
])
def test_bad_delay_bound_or_update_period_exits_two(tmp_path, capsys, data,
                                                    message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert cli.main(["run", "--scenario", str(bad)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("data", [
    {"theta": "1/0"}, {"d": "1/0"}, {"T": "1/0"}, {"duration": "1/0"},
    {"clock_update_period": "1/0"},
    {"script": [{"t": "1/0", "node": 0, "action": "initiate"}]},
])
def test_a_zero_denominator_exits_two(tmp_path, capsys, data):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 4, "f": 1, **data}))
    assert cli.main(["run", "--scenario", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("scenario invalid:") and "'1/0'" in err
    # A number is named by its key, a script entry by the entry.
    [key] = data
    named = "malformed script entry" if key == "script" else f"{key}: '1/0'"
    assert f"\n  {named}" in err


@pytest.mark.parametrize("data, problems", [
    ({"theta": "x", "d": "0"},
     ["theta: Invalid literal for Fraction: 'x'", "d=0 must be positive"]),
    ({"d": None}, ["d: expected int/str/Fraction, got NoneType: None"]),
    ({"d": None, "T": "5"},
     ["d: expected int/str/Fraction, got NoneType: None"]),
    ({"theta": None}, ["theta: expected int/str/Fraction, got NoneType: None"]),
    ({"duration": None},
     ["duration: expected int/str/Fraction, got NoneType: None"]),
    # A number too large for a float, or a model whose least T is.
    *(({key: "1e999"}, [f"{key}: 1e999 is too large for a float"])
      for key in ("theta", "d", "T", "clock_update_period", "duration")),
    ({"theta": "1e300"},
     ["theta=1e300, d=1: 2*theta^2*d, the least T, is too large for a float"]),
    # A model that validates, but whose derived bounds overflow a float.
    ({"theta": "1e120"},
     ["theta=1e120, d=1: 3*(trust regain + d), the latest time a clock "
      "estimate may be off, is too large for a float"]),
    ({"clock_update_period": "1e306"},
     ["theta=1.1, d=1, clock_update_period=1e306: 3*(trust regain + d), the "
      "latest time a clock estimate may be off, is too large for a float"]),
])
def test_each_bad_model_number_is_reported_by_its_key(tmp_path, capsys, data,
                                                      problems):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert cli.main(["run", "--scenario", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["scenario invalid:",
                                *[f"  {p}" for p in problems]]


@pytest.mark.parametrize("command", ["sweep", "check-trace"])
def test_a_model_that_overflows_in_derive_exits_two(tmp_path, capsys,
                                                    command):
    (tmp_path / "scenario.json").write_text(json.dumps({"theta": "1e120"}))
    (tmp_path / "trace.jsonl").write_text("")
    args = {"sweep": ["sweep", "--scenario", str(tmp_path / "scenario.json"),
                      "--axis", "seed=0,1"],
            "check-trace": ["check-trace", "--dir", str(tmp_path)]}[command]
    assert cli.main(args) == 2
    out = capsys.readouterr()
    assert out.err.startswith("scenario invalid:\n  theta=1e120, d=1: "
                              "3*(trust regain + d)")
    assert out.out == ""


@pytest.mark.parametrize("command", ["run", "check-trace"])
def test_a_file_that_cannot_be_opened_exits_two(tmp_path, capsys, command):
    missing = tmp_path / "missing"
    args = {"run": ["run", "--scenario", str(missing / "scenario.json")],
            "check-trace": ["check-trace", "--dir", str(missing)]}[command]
    assert cli.main(args) == 2
    out = capsys.readouterr()
    assert "No such file or directory" in out.err
    assert str(missing / "scenario.json") in out.err and out.out == ""


def test_string_size_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": "4"}))
    assert cli.main(["run", "--scenario", str(bad)]) == 2
    assert "n: expected int, got '4'" in capsys.readouterr().err


@pytest.mark.parametrize("axis, message", [
    ("seed=3,a", "seed: expected int, got 'a'"),
    ("foo.bar=1", "sweep axis 'foo.bar'"),
    ("seed.x=1", "sweep axis 'seed.x'"),
    ("adversary.byzantin=noise", "adversary: unknown key 'byzantin'"),
])
def test_bad_sweep_axis_exits_two_before_any_run(scenario_file, capsys,
                                                 axis, message):
    rc = cli.main(["sweep", "--scenario", str(scenario_file),
                   "--axis", axis])
    assert rc == 2
    out = capsys.readouterr()
    assert message in out.err
    assert out.out == ""


def test_check_trace_rejects_a_non_envelope_name(scenario_file, tmp_path,
                                                 capsys):
    out = tmp_path / "results"
    assert cli.main(["run", "--scenario", str(scenario_file),
                     "--out", str(out)]) == 0
    capsys.readouterr()
    path = out / "trace.jsonl"
    lines = path.read_text().splitlines()
    lines[0] = json.dumps({"_t": ["send", {"_m": "Params", "v": {"_t": []}}]})
    path.write_text("\n".join(lines) + "\n")
    assert cli.main(["check-trace", "--dir", str(out)]) == 2
    assert "unknown envelope 'Params'" in capsys.readouterr().err


def test_check_trace_rejects_a_wrong_field_count(scenario_file, tmp_path,
                                                 capsys):
    out = tmp_path / "results"
    assert cli.main(["run", "--scenario", str(scenario_file),
                     "--out", str(out)]) == 0
    capsys.readouterr()
    path = out / "trace.jsonl"
    lines = path.read_text().splitlines()
    lines[0] = json.dumps({"_m": "Init", "v": {"_t": [1, 2]}})
    path.write_text("\n".join(lines) + "\n")
    assert cli.main(["check-trace", "--dir", str(out)]) == 2
    assert "trace gives Init the fields (1, 2)" in capsys.readouterr().err


@pytest.mark.parametrize("record, message", [
    ({"_t": ["init", 5, 0, {"_f": "1/0"}]}, "trace gives the fraction '1/0'"),
    (5, "trace record 5 is not a tuple led by its kind"),
    ({"_t": ["send"]}, "trace gives a send record 1 fields, not 8"),
    ({"_t": ["send", 0, [1], 1, "Init", 3, 0, None]},
     "trace gives the list [1], not a tuple"),
    ({"_t": ["init", "x", 0, {"_t": [0, 5]}]},
     "does not give a time and a node"),
    ({"_t": ["send", 1, 0, 1, "Echo", 24, 0,
             {"_m": "Init", "v": {"_t": [5]}}]},
     "has a wrongly typed field"),
    ({"_t": ["est", {"_f": "-5/1"}, 0, {"_t": [1, None, 3, 4]}]},
     "gives a time below 0 or a node outside range(4)"),
    ({"_t": ["participate", 1, 9, {"_t": [0, 5]}, 2, 1, 1]},
     "gives a time below 0 or a node outside range(4)"),
])
def test_check_trace_rejects_a_record_evaluate_cannot_read(
        scenario_file, tmp_path, capsys, record, message):
    out = tmp_path / "results"
    assert cli.main(["run", "--scenario", str(scenario_file),
                     "--out", str(out)]) == 0
    capsys.readouterr()
    path = out / "trace.jsonl"
    lines = path.read_text().splitlines()
    lines[0] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    assert cli.main(["check-trace", "--dir", str(out)]) == 2
    assert message in capsys.readouterr().err


def retype(scenario_file, tmp_path, capsys, kind, field, value):
    """The stored run's results, with `field` of its first `kind` record set
    to `value`, and the 0-based line of that record."""
    out = tmp_path / "results"
    assert cli.main(["run", "--scenario", str(scenario_file),
                     "--out", str(out)]) == 0
    capsys.readouterr()
    path = out / "trace.jsonl"
    lines = path.read_text().splitlines()
    k = next(k for k, line in enumerate(lines)
             if json.loads(line)["_t"][0] == kind)
    record = json.loads(lines[k])
    record["_t"][field] = value
    lines[k] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    return out, k


@pytest.mark.parametrize("kind, field, value", [
    ("rrcv", 5, True), ("rrcv", 5, "x"), ("remit", 5, {"_t": []}),
    ("remit", 5, True), ("output", 4, None)])
def test_check_trace_rejects_a_wrongly_typed_vector_or_output(
        scenario_file, tmp_path, capsys, kind, field, value):
    out, _ = retype(scenario_file, tmp_path, capsys, kind, field, value)
    assert cli.main(["check-trace", "--dir", str(out)]) == 2
    assert "has a wrongly typed field" in capsys.readouterr().err


# The input (field 5) and oracle value (field 6) are bits, the confidence
# (field 4) is 1 or 2.
@pytest.mark.parametrize("field, value", [
    (5, None), (5, "x"), (5, True), (4, None), (6, 7)])
def test_check_trace_rejects_a_wrongly_typed_participate_field(
        scenario_file, tmp_path, capsys, field, value):
    out, k = retype(scenario_file, tmp_path, capsys, "participate", field,
                    value)
    assert cli.main(["check-trace", "--dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"line {k + 1}: trace record ('participate'," in err
    assert "has a wrongly typed field" in err


@pytest.mark.parametrize("data, message", [
    ({"corruption": {"knd": "random"}}, "corruption: unknown key 'knd'"),
    ({"adversary": {"byzantin": "noise"}}, "adversary: unknown key 'byzantin'"),
    ({"oracle": {"kind": "const", "valeu": 0}}, "oracle: unknown key 'valeu'"),
    ({"clocks": {"rate": "fixed_max"}}, "clocks: unknown key 'rate'"),
    ({"protocol": {"name": "phase-king-silent", "f": 1}},
     "protocol: unknown key 'f'"),
    ({"script": [{"t": "8", "node": 0, "acton": "initiate"}]},
     "script entry: unknown key 'acton'"),
    ({"oracle": {"kind": "const", "value": "x"}}, "oracle value 'x' is not 0 or 1"),
    ({"oracle": {"kind": "const", "value": 2}}, "oracle value 2 is not 0 or 1"),
    ({"oracle": {"kind": "const", "value": True}},
     "oracle value True is not 0 or 1"),
    ({"oracle": {"kind": "const", "value": "0"}},
     "oracle value '0' is not 0 or 1"),
])
def test_unknown_key_or_oracle_value_exits_two_before_the_run(
        tmp_path, capsys, data, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert cli.main(["run", "--scenario", str(bad)]) == 2
    out = capsys.readouterr()
    assert message in out.err
    assert out.out == ""


def test_a_failing_run_stores_its_counterexample_and_explain_exits_one(
        tmp_path, capsys):
    # The trace matrix's corrupted-n7-noise-split run: its 300 d are too
    # short to recover, so a clock estimate is still off at the horizon.
    path = tmp_path / "scenario.json"
    Scenario(n=7, f=2, theta="1.1", duration="300", seed=11,
             adversary={"byzantine": "noise", "delays": "split"},
             corruption={"kind": "random"},
             script=[{"t": "250", "node": 0, "action": "initiate"}]).dump(path)
    out = tmp_path / "results"
    assert cli.main(["run", "--scenario", str(path), "--out", str(out)]) == 1
    stored = {v["name"]: v
              for v in json.loads((out / "verdicts.json").read_text())}
    accuracy = stored["clock-estimate-accuracy"]
    assert not accuracy["passed"]
    assert accuracy["counterexample"] == ["('bot', Fraction(25787, 86), 6, 5)"]
    capsys.readouterr()
    assert cli.main(["explain", "--dir", str(out),
                     "clock-estimate-accuracy"]) == 1
    assert json.loads(capsys.readouterr().out) == accuracy
