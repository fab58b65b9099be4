"""determinism rule, flow half: laundered nondeterminism reaching key sinks.

The per-statement half also fires on a fixture whose source line
pattern-matches (``stamp = time.time()``); each test pins those
findings separately from the flow findings it is about.
"""

from repro.analysis import CheckConfig, Project, check_project

CONFIG = CheckConfig(determinism_paths=("pkg/fp.py",))


def run_on(sources, config=CONFIG):
    project = Project.from_sources(sources, config=config)
    return check_project(project, rules=["determinism"]).findings


def split(findings):
    """``(flow findings, lines of the per-statement findings)``."""
    flows = [f for f in findings if "flows into" in f.message]
    return flows, [f.line for f in findings if f not in flows]


#: the ISSUE's seeded fixture: wall-clock -> intermediate -> fingerprint
TAINT_VIOLATION = """\
import time

def fingerprint(payload):
    return hash(payload)

def build_key(job):
    stamp = time.time()
    salted = {"job": job, "at": stamp}
    return fingerprint(salted)
"""

#: identical flow shape, but the only taint is hash-order and the
#: intermediate passes through sorted(): laundered, no finding
TAINT_SANITIZED = """\
def fingerprint(payload):
    return hash(payload)

def build_key(job, tags):
    order = sorted(set(tags))
    salted = {"job": job, "tags": order}
    return fingerprint(salted)
"""

TAINT_CLEAN = """\
import json

def fingerprint(payload):
    return hash(payload)

def build_key(job):
    salted = {"job": job, "version": 3}
    return fingerprint(json.dumps(salted, sort_keys=True))
"""


def test_wall_clock_through_local_into_fingerprint_is_caught():
    findings, statement_lines = split(run_on({"pkg/fp.py": TAINT_VIOLATION}))
    assert statement_lines == [7]  # the time.time() reference itself
    assert len(findings) == 1
    (finding,) = findings
    assert finding.rule == "determinism"
    assert "wall-clock" in finding.message
    assert "fingerprint" in finding.message
    assert finding.line == 9  # the fingerprint(salted) call site


def test_sorted_sanitized_flow_is_not_caught():
    assert run_on({"pkg/fp.py": TAINT_SANITIZED}) == ()


def test_clean_fixture_passes():
    assert run_on({"pkg/fp.py": TAINT_CLEAN}) == ()


def test_unsanitized_set_order_is_caught():
    source = TAINT_SANITIZED.replace("sorted(set(tags))", "list(set(tags))")
    findings, statement_lines = split(run_on({"pkg/fp.py": source}))
    assert statement_lines == [5]  # list(set(...)) itself
    assert len(findings) == 1
    assert "hash-order" in findings[0].message


def test_entropy_flow_through_fstring_is_caught():
    source = (
        "import uuid\n"
        "def fingerprint(payload):\n"
        "    return hash(payload)\n"
        "def build_key(job):\n"
        "    run_id = uuid.uuid4().hex\n"
        "    label = f'{job}-{run_id}'\n"
        "    return fingerprint(label)\n")
    findings, statement_lines = split(run_on({"pkg/fp.py": source}))
    assert statement_lines == [5]  # the uuid.uuid4 reference itself
    assert len(findings) == 1
    assert "entropy" in findings[0].message


def test_one_level_call_graph_propagation():
    # the source is inside a helper in ANOTHER module; its return value
    # feeds the fingerprint call one level up
    helper = (
        "import time\n"
        "def now_ms():\n"
        "    return int(time.time() * 1000)\n")
    user = (
        "from pkg.helper import now_ms\n"
        "def fingerprint(payload):\n"
        "    return hash(payload)\n"
        "def build_key(job):\n"
        "    stamp = now_ms()\n"
        "    return fingerprint((job, stamp))\n")
    findings = run_on({"pkg/helper.py": helper, "pkg/fp.py": user})
    assert len(findings) == 1
    assert "via now_ms()" in findings[0].message
    assert findings[0].path == "pkg/fp.py"


def test_json_dumps_and_memo_sinks():
    source = (
        "import json, time\n"
        "def serialize(payload, memo):\n"
        "    stamp = time.time()\n"
        "    blob = json.dumps({'at': stamp}, sort_keys=True)\n"
        "    memo.store(stamp, payload)\n"
        "    return blob\n")
    findings, statement_lines = split(run_on({"pkg/fp.py": source}))
    assert statement_lines == [3]
    sinks = {f.message.split("flows into ")[1] for f in findings}
    assert sinks == {"json.dumps()", "memo.store()"}


def test_duration_clocks_are_flow_only_sources():
    # reading a monotonic/perf counter is fine; keying on one is not
    for clock in ("time.monotonic", "time.perf_counter"):
        source = (
            "import time\n"
            "def fingerprint(payload):\n"
            "    return hash(payload)\n"
            "def build_key(job):\n"
            f"    started = {clock}()\n"
            "    return fingerprint((job, started))\n")
        findings, statement_lines = split(run_on({"pkg/fp.py": source}))
        assert statement_lines == []
        assert len(findings) == 1
        assert f"wall-clock value from {clock} (line 5)" \
            in findings[0].message


def test_suppression_silences_a_deliberate_flow():
    # a duration clock is a flow-only source: the sink line is the
    # only finding, and the allow on it silences it
    source = (
        "import time\n"
        "def fingerprint(payload):\n"
        "    return hash(payload)\n"
        "def build_key(job):\n"
        "    stamp = time.monotonic()\n"
        "    return fingerprint(stamp)  "
        "# repro: allow[determinism] test fixture\n")
    project = Project.from_sources({"pkg/fp.py": source}, config=CONFIG)
    result = check_project(project, rules=["determinism"])
    assert result.findings == ()
    assert result.suppression_count == 1
