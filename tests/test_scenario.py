import pytest

from noclock.scenario import LOOKUPS, SECTION_KEYS, Scenario, ScenarioError


def test_roundtrip(tmp_path):
    sc = Scenario(n=7, f=2, theta="1.1", seed=9,
                  script=[{"t": "10", "node": 0, "action": "initiate"}])
    path = tmp_path / "sc.json"
    sc.dump(path)
    back = Scenario.load(path)
    assert back == sc


def test_resilience_bound_rejected():
    with pytest.raises(ScenarioError) as err:
        Scenario(n=6, f=2).validate()
    assert any("f < n/3" in p for p in err.value.problems)


def test_T_below_theorem_minimum_rejected():
    with pytest.raises(ScenarioError):
        Scenario(T="2.41").validate()       # 2 theta^2 d = 2.42


def test_floats_rejected():
    with pytest.raises(ScenarioError):
        Scenario.from_dict({"theta": 1.1})


def test_script_validation():
    with pytest.raises(ScenarioError):
        Scenario(script=[{"t": "999", "node": 0}]).validate()  # beyond run
    with pytest.raises(ScenarioError):
        Scenario(script=[{"t": "10", "node": 9}]).validate()


def test_byzantine_set_validation():
    with pytest.raises(ScenarioError):
        Scenario(adversary={"byzantine_set": [1, 2]}).validate()  # > f
    with pytest.raises(ScenarioError):
        Scenario(adversary={"byzantine_set": [7]}).validate()
    with pytest.raises(ScenarioError) as err:   # one byzantine node, not two
        Scenario(n=7, f=2, adversary={"byzantine_set": [3, 3]}).validate()
    assert err.value.problems == ["byzantine_set repeats a node id"]


def test_unknown_protocol_rejected():
    with pytest.raises(ScenarioError):
        Scenario(protocol={"name": "raft"}).validate()
    with pytest.raises(ScenarioError):       # a JSON list is no name
        Scenario(protocol={"name": ["phase-king-silent"]}).validate()
    with pytest.raises(ScenarioError) as err:   # the protocol has no default
        Scenario(protocol={"name": None}).validate()
    assert err.value.problems == ["unknown protocol None"]


def test_clock_skew_mode_typo_rejected():
    with pytest.raises(ScenarioError) as err:
        Scenario(adversary={"byzantine": "clock_skew",
                            "mode": "fastets"}).validate()
    assert err.value.problems == ["unknown clock_skew mode 'fastets'"]


@pytest.mark.parametrize("name", ["typo", ["silent"]])
@pytest.mark.parametrize("field,key", [
    ("adversary", "byzantine"), ("adversary", "delays"), ("clocks", "rates"),
    ("oracle", "kind"), ("corruption", "kind")])
def test_unknown_names_rejected(field, key, name):
    sc = Scenario()
    getattr(sc, field)[key] = name
    with pytest.raises(ScenarioError):
        sc.validate()


def test_error_lists_every_problem():
    with pytest.raises(ScenarioError) as err:
        Scenario(n=6, f=2, T="1", duration="-5").validate()
    assert len(err.value.problems) >= 3


def test_unknown_script_action_rejected():
    with pytest.raises(ScenarioError) as err:
        Scenario(script=[{"t": "10", "node": 0, "action": "initate"}]).validate()
    assert err.value.problems == ["unknown script action 'initate'"]


@pytest.mark.parametrize("data", [{"n": "4"}, {"f": "1"}, {"seed": "a"},
                                  {"seed": True}, {"n": True},
                                  {"adversary": "silent"}, {"script": {}}])
def test_mistyped_fields_rejected(data):
    key = next(iter(data))
    with pytest.raises(ScenarioError) as err:
        Scenario.from_dict(data)
    assert err.value.problems[0].startswith(f"{key}: expected ")


@pytest.mark.parametrize("key", ["theta", "d", "T", "duration"])
def test_bool_times_rejected(key):
    with pytest.raises(ScenarioError):
        Scenario.from_dict({key: True})


@pytest.mark.parametrize("byz", [["1"], [True, 2], 3])
def test_mistyped_byzantine_set_rejected(byz):
    with pytest.raises(ScenarioError) as err:
        Scenario(adversary={"byzantine_set": byz}).validate()
    assert err.value.problems == ["byzantine_set contains invalid node ids"]


@pytest.mark.parametrize("data,problem", [
    ({"d": "0"}, "d=0 must be positive"),
    ({"d": "-1"}, "d=-1 must be positive"),
    ({"clock_update_period": "x"}, "clock_update_period: "),
    ({"clock_update_period": True}, "clock_update_period: "),
    ({"clock_update_period": "0.5"}, "clock_update_period=0.5 below d=1"),
])
def test_bad_delay_bound_or_update_period_rejected(data, problem):
    with pytest.raises(ScenarioError) as err:
        Scenario.from_dict(data)
    assert len(err.value.problems) == 1
    assert err.value.problems[0].startswith(problem)


@pytest.mark.parametrize("period", ["1", "2", 3])
def test_update_period_at_or_above_d_accepted(period):
    Scenario.from_dict({"clock_update_period": period})


@pytest.mark.parametrize("data, problem", [
    ({"protocol": {"name": "phase-king-silent", "rounds": 3}},
     "protocol: unknown key 'rounds'"),
    ({"adversary": {"byzantin": "noise"}}, "adversary: unknown key 'byzantin'"),
    ({"oracle": {"kind": "const", "valeu": 0}}, "oracle: unknown key 'valeu'"),
    ({"clocks": {"rate": "fixed_max"}}, "clocks: unknown key 'rate'"),
    ({"corruption": {"knd": "random"}}, "corruption: unknown key 'knd'"),
    ({"script": [{"t": "8", "node": 0, "acton": "initiate"}]},
     "script entry: unknown key 'acton'"),
])
def test_unknown_section_key_rejected(data, problem):
    with pytest.raises(ScenarioError) as err:
        Scenario.from_dict(data)
    assert err.value.problems == [problem]


def test_unknown_top_level_key_rejected():
    with pytest.raises(ScenarioError) as err:
        Scenario.from_dict({"n": 4, "rounds": 3})
    [problem] = err.value.problems
    assert "'rounds'" in problem


def test_each_unknown_top_level_key_is_reported_with_the_other_problems():
    with pytest.raises(ScenarioError) as err:
        Scenario.from_dict({"rounds": 3, "sed": 1, "n": "x"})
    assert err.value.problems == ["unknown key 'rounds'", "unknown key 'sed'",
                                  "n: expected int, got 'x'"]
    with pytest.raises(ScenarioError) as err:
        Scenario.from_dict({"sed": 1, "oracle": {"kind": "const", "value": 2}})
    assert err.value.problems == ["unknown key 'sed'",
                                  "oracle value 2 is not 0 or 1"]


@pytest.mark.parametrize("entry", ["initiate", 8, None, ["8", 0]])
def test_a_script_entry_that_is_not_a_dict_rejected(entry):
    with pytest.raises(ScenarioError) as err:
        Scenario.from_dict({"script": [entry]})
    assert err.value.problems == [f"malformed script entry {entry!r}"]


def test_default_sections_give_the_lookup_defaults():
    # The default section dicts spell names out so that scenario dumps show
    # them; each one must be the default its LOOKUPS row gives.
    sc = Scenario()
    given = {(section, key): getattr(sc, section)[key]
             for section, key in LOOKUPS if key in getattr(sc, section)}
    assert set(given) == {("protocol", "name"), ("adversary", "byzantine"),
                          ("adversary", "delays"), ("clocks", "rates"),
                          ("oracle", "kind"), ("corruption", "kind")}
    for (section, key), (table, _, default) in LOOKUPS.items():
        if section == "protocol":
            assert default is None          # a run names its protocol
        else:
            assert default in table
            assert given.get((section, key), default) == default
            assert sc.lookup(section, key) is table[default]


@pytest.mark.parametrize("section, key", [
    (section, key) for section, key in LOOKUPS if section != "protocol"])
def test_a_missing_or_null_name_looks_up_the_default(section, key):
    table, _, default = LOOKUPS[section, key]
    for value in ({}, {key: None}):
        sc = Scenario(**{section: value})
        sc.validate()
        assert sc.lookup(section, key) is table[default]


def test_section_keys_are_the_keys_a_run_reads():
    assert SECTION_KEYS == {
        "protocol": {"name"},
        "adversary": {"byzantine", "mode", "delays", "byzantine_set"},
        "oracle": {"kind", "value"}, "clocks": {"rates"},
        "corruption": {"kind"}}


@pytest.mark.parametrize("value", ["x", 2, True, "0"])
def test_const_oracle_value_must_be_a_bit(value):
    with pytest.raises(ScenarioError) as err:
        Scenario.from_dict({"oracle": {"kind": "const", "value": value}})
    assert err.value.problems == [f"oracle value {value!r} is not 0 or 1"]
