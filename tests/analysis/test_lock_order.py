"""lock-order rule: cycles, re-acquisition, await-under-lock."""

from repro.analysis import Project, check_project


def run_on(sources):
    project = Project.from_sources(sources)
    return check_project(project, rules=["lock-order"]).findings


CYCLE = """\
import threading

class Store:
    def __init__(self):
        self._a = threading.Lock()
        self._b = threading.Lock()

    def forward(self):
        with self._a:
            with self._b:
                pass

    def backward(self):
        with self._b:
            with self._a:
                pass
"""

CONSISTENT = """\
import threading

class Store:
    def __init__(self):
        self._a = threading.Lock()
        self._b = threading.Lock()

    def forward(self):
        with self._a:
            with self._b:
                pass

    def also_forward(self):
        with self._a:
            with self._b:
                pass
"""

CALL_CYCLE = """\
import threading

class Metrics:
    def __init__(self):
        self._mlock = threading.Lock()
        self.count = 0

    def inc(self, store):
        with self._mlock:
            store.snapshot()

class Store:
    def __init__(self):
        self._slock = threading.Lock()
        self.metrics = Metrics()

    def add(self):
        with self._slock:
            self.metrics.inc(self)

    def snapshot(self):
        with self._slock:
            return self.metrics.count
"""

REACQUIRE = """\
import threading

class Store:
    def __init__(self):
        self._lock = threading.Lock()

    def outer(self):
        with self._lock:
            with self._lock:
                pass
"""

AWAIT_UNDER_LOCK = """\
import threading

class Service:
    def __init__(self):
        self._lock = threading.Lock()

    async def handle(self, job):
        with self._lock:
            return await self.dispatch(job)

    async def dispatch(self, job):
        return job
"""

ASYNC_LOCK_CLEAN = """\
import asyncio
import threading

class Service:
    def __init__(self):
        self._lock = threading.Lock()
        self._alock = asyncio.Lock()

    async def handle(self, job):
        async with self._alock:
            return await self.dispatch(job)

    async def dispatch(self, job):
        return job
"""


def test_lexical_cycle_is_flagged():
    findings = run_on({"pkg/locked.py": CYCLE})
    cycle = [f for f in findings if "cycle" in f.message]
    assert len(cycle) == 2  # one finding per edge in the cycle
    chains = {f.message.split(":")[0] for f in cycle}
    assert chains == {"lock-order cycle Store._a -> Store._b -> Store._a"}


def test_consistent_order_is_clean():
    assert run_on({"pkg/locked.py": CONSISTENT}) == ()


def test_cycle_through_method_calls_is_flagged():
    findings = run_on({"pkg/locked.py": CALL_CYCLE})
    assert any("cycle" in f.message for f in findings)
    joined = " ".join(f.message for f in findings)
    assert "Metrics._mlock" in joined and "Store._slock" in joined


def test_reacquisition_of_nonreentrant_lock():
    findings = run_on({"pkg/locked.py": REACQUIRE})
    assert len(findings) == 1
    assert "not reentrant" in findings[0].message


def test_await_while_holding_threading_lock():
    findings = run_on({"pkg/locked.py": AWAIT_UNDER_LOCK})
    assert len(findings) == 1
    assert "await while holding threading lock" in findings[0].message
    assert "Service._lock" in findings[0].message


def test_asyncio_lock_is_not_a_threading_lock():
    # async with on an asyncio.Lock must not count as holding a
    # thread mutex (asyncio.Lock is not in the lock factory set)
    assert run_on({"pkg/locked.py": ASYNC_LOCK_CLEAN}) == ()


def test_every_module_joins_the_lock_graph():
    # no path scoping: the two halves of a cycle in different modules
    # still close it
    forward, backward = CYCLE.split("    def backward(self):")
    other = (
        "from pkg.locked import Store\n\n"
        "def backward(store):\n"
        "    with store._b:\n"
        "        with store._a:\n"
        "            pass\n")
    findings = run_on({"pkg/locked.py": forward, "pkg/other.py": other})
    assert {f.path for f in findings} == {"pkg/locked.py", "pkg/other.py"}
    assert all("Store._a -> Store._b -> Store._a" in f.message
               for f in findings)
