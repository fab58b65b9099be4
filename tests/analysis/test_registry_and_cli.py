"""Rule registry semantics, the ``repro check`` CLI, and the acceptance gate."""

import json
import re
from pathlib import Path

import pytest

from repro.analysis import (
    Finding,
    Project,
    RuleNotFoundError,
    check_project,
    get_rule,
    register_rule,
    rule_names,
    rule_registry,
)
from repro.analysis.registry import _REGISTRY
from repro.cli import main

BUILTIN_RULES = ("async-safety", "determinism", "exception-flow",
                 "lock-discipline", "lock-order",
                 "registry-discipline", "serialization",
                 "vectorization-discipline")

#: always-on ids with no registry entry
META_RULES = ("parse-error", "unused-suppression")

ROOT = Path(__file__).resolve().parents[2]


def test_builtin_rules_registered():
    assert rule_names() == BUILTIN_RULES


def test_get_rule_instantiates_and_unknown_raises():
    rule = get_rule("determinism")
    assert rule.rule_id == "determinism"
    with pytest.raises(RuleNotFoundError):
        get_rule("no-such-rule")


def test_register_rule_duplicate_rejected_and_overwrite():
    @register_rule("tmp-rule")
    class TmpRule:
        def check(self, project):
            return []

    try:
        with pytest.raises(ValueError):
            @register_rule("tmp-rule")
            class OtherRule:
                def check(self, project):
                    return []

        @register_rule("tmp-rule", overwrite=True)
        class ReplacementRule:
            def check(self, project):
                return []

        assert rule_registry()["tmp-rule"] is ReplacementRule
    finally:
        _REGISTRY.pop("tmp-rule", None)


def test_custom_rule_runs_through_check_project():
    @register_rule("tmp-every-module")
    class EveryModuleRule:
        def check(self, project):
            return [Finding(rule="tmp-every-module", path=m.path, line=1,
                            message="seen") for m in project.modules]

    try:
        project = Project.from_sources({"a.py": "x = 1\n"})
        result = check_project(project, rules=["tmp-every-module"])
        assert [f.rule for f in result.findings] == ["tmp-every-module"]
    finally:
        _REGISTRY.pop("tmp-every-module", None)


def test_finding_round_trip_and_format():
    finding = Finding(rule="determinism", path="a.py", line=3,
                      message="msg", hint="fix it")
    assert Finding.from_dict(finding.to_dict()) == finding
    text = finding.format()
    assert "a.py:3" in text and "[determinism]" in text and "fix it" in text


# -- CLI -------------------------------------------------------------------

def test_cli_check_clean_tree_exits_zero(tmp_path, capsys):
    target = tmp_path / "clean.py"
    target.write_text("def f():\n    return 1\n")
    assert main(["check", str(target)]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_cli_check_findings_exit_one(tmp_path, capsys):
    target = tmp_path / "bad.py"
    target.write_text(
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class S:\n"
        "    a: int = 0\n"
        "    def to_dict(self):\n"
        "        return {'a': self.a}\n"
    )
    assert main(["check", str(target)]) == 1
    out = capsys.readouterr().out
    assert "[serialization]" in out and "no from_dict" in out


def test_cli_check_rule_filter_and_json(tmp_path, capsys):
    target = tmp_path / "bad.py"
    target.write_text(
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class S:\n"
        "    a: int = 0\n"
        "    def to_dict(self):\n"
        "        return {'a': self.a}\n"
    )
    # the violating rule filtered out: clean
    assert main(["check", "--rule", "determinism", str(target)]) == 0
    capsys.readouterr()
    # json format carries the structured findings
    assert main(["check", "--format", "json", str(target)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    assert payload["findings"][0]["rule"] == "serialization"
    assert payload["findings"][0]["path"].endswith("bad.py")


def test_cli_check_unknown_rule_exits_two(tmp_path, capsys):
    assert main(["check", "--rule", "nope", str(tmp_path)]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_cli_check_removed_rule_exits_two_naming_known_rules(tmp_path,
                                                            capsys):
    # fingerprint-taint was folded into determinism: no alias remains
    assert main(["check", "--rule", "fingerprint-taint",
                 str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "unknown rule 'fingerprint-taint'" in err
    for name in BUILTIN_RULES:
        assert name in err


def test_cli_check_unknown_rule_among_known_still_exits_two(tmp_path,
                                                            capsys):
    # a typo must not silently degrade to "run the rules that parsed"
    assert main(["check", "--rule", "determinism", "--rule", "determinsm",
                 str(tmp_path)]) == 2
    assert "determinsm" in capsys.readouterr().err


def test_cli_check_nonexistent_path_exits_two(tmp_path, capsys):
    missing = tmp_path / "no-such-dir"
    assert main(["check", str(missing)]) == 2
    err = capsys.readouterr().err
    assert "no such path" in err and "no-such-dir" in err


def test_cli_check_list_rules(capsys):
    assert main(["check", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for name in BUILTIN_RULES:
        assert name in out


def test_checks_doc_has_one_section_per_rule():
    headings = [line for line in
                (ROOT / "docs" / "CHECKS.md").read_text().splitlines()
                if line.startswith("### ")]
    documented = [rule for line in headings
                  for rule in re.findall(r"`([a-z-]+)`", line)]
    assert sorted(documented) == sorted(rule_names() + META_RULES)


# -- acceptance: the shipped tree stays clean ------------------------------

@pytest.fixture(scope="module")
def src_project():
    return Project.from_paths([ROOT / "src"])


def test_repro_check_src_is_clean(src_project):
    """Acceptance gate: ``repro check src/`` exits 0 on the shipped tree."""
    result = check_project(src_project)
    assert result.findings == (), "\n" + "\n".join(
        f.format() for f in result.findings)
    assert result.module_count > 50


#: every finding on ``src/`` before suppressions, as ``(path, line)``
#: under ``src/repro/`` (``"flow"`` marks determinism's flow finding)
RAW_DETERMINISM = sorted([
    ("campaigns/manifest.py", 84), ("campaigns/manifest.py", 213),
    ("campaigns/manifest.py", 213, "flow"),
    *(("service/state.py", line)
      for line in (61, 75, 121, 132, 142, 153, 184, 201, 319)),
])
RAW_LOCK_DISCIPLINE = [("service/server.py", line)
                       for line in (314, 322, 339, 348, 362)]
RAW_COUNTS = {"async-safety": 0, "exception-flow": 0,
              "registry-discipline": 9, "serialization": 4,
              "vectorization-discipline": 8}


def test_raw_findings_on_src_match_golden(src_project):
    """Every rule on ``src/`` without suppressions: known findings only."""
    raw = {name: get_rule(name).check(src_project) for name in rule_names()}

    def located(findings):
        out = []
        for f in findings:
            path = f.path.replace("\\", "/").split("src/repro/", 1)[1]
            flow = ("flow",) if "flows into" in f.message else ()
            out.append((path, f.line, *flow))
        return sorted(out)

    assert located(raw["determinism"]) == RAW_DETERMINISM
    assert located(raw["lock-discipline"]) == RAW_LOCK_DISCIPLINE
    assert raw["lock-order"] == []
    assert {name: len(raw[name]) for name in RAW_COUNTS} == RAW_COUNTS
