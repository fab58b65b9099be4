"""Differential: the engine-ported determinism rule ⊇ the PR 6 rule.

The port must never lose a finding the old per-statement matcher
produced — legacy findings are emitted verbatim and flow findings are
additive. This test runs both over the fixture corpus (the rule-suite
fixtures plus flow shapes only the engine can see) and asserts the
superset relation, plus that the delta is non-empty where laundering
is involved.
"""

from repro.analysis import CheckConfig, Project
from repro.analysis.rules.determinism import (
    DeterminismRule,
    flow_findings,
    legacy_findings,
)

from test_rules import DET_CLEAN, DET_VIOLATION

CONFIG = CheckConfig(determinism_paths=("pkg/det.py",))

#: invisible to the legacy matcher: the clock is laundered through a
#: local before reaching the serialization sink
LAUNDERED = """\
import json
import time

def snapshot(payload):
    stamp = time.time()  # repro: allow[determinism] measured elsewhere
    meta = {"at": stamp}
    return json.dumps({"payload": payload, "meta": meta}, sort_keys=True)
"""

CORPUS = {
    "violation": DET_VIOLATION,
    "clean": DET_CLEAN,
    "laundered": LAUNDERED,
    "empty": "",
}


def both(source):
    project = Project.from_sources({"pkg/det.py": source}, config=CONFIG)
    old = {f.sort_key() for f in legacy_findings(project)}
    new = {f.sort_key() for f in DeterminismRule().check(project)}
    return old, new


def test_ported_rule_is_superset_on_every_corpus_entry():
    for name, source in CORPUS.items():
        old, new = both(source)
        assert old <= new, (
            f"corpus[{name}]: ported rule lost legacy findings: "
            f"{sorted(old - new)}")


def test_rule_reports_every_flow_finding():
    for name, source in CORPUS.items():
        project = Project.from_sources({"pkg/det.py": source},
                                       config=CONFIG)
        flows = {f.sort_key() for f in flow_findings(project)}
        _, new = both(source)
        assert flows <= new, (
            f"corpus[{name}]: rule lost flow findings: "
            f"{sorted(flows - new)}")


def test_ported_rule_strictly_exceeds_on_laundered_flows():
    old, new = both(LAUNDERED)
    extra = new - old
    assert extra, "the engine should see the laundered clock flow"
    assert any("flows into json.dumps" in key[3] for key in extra)


def test_ported_rule_adds_nothing_on_clean_fixture():
    old, new = both(DET_CLEAN)
    assert old == new == set()
