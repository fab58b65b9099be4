"""The shared lock model: lock-discipline and lock-order on one index.

Each fixture runs both rules under the default configuration. The
lock-discipline results are the ones the rule gave when it kept its
own class/module walker; lock-order now indexes every module and every
class, however nested.
"""

from repro.analysis import Project, check_project


def run_on(path, source, rule):
    project = Project.from_sources({path: source})
    return [(f.line, f.message)
            for f in check_project(project, rules=[rule]).findings]


#: ``async with`` holds the lock for discipline, but blocks no thread,
#: so it is no acquisition for order (the await under it is fine)
ASYNC_WITH = """\
import threading

class Queue:
    def __init__(self):
        self._lock = threading.Lock()
        self._items = []

    async def push(self, item):
        async with self._lock:
            self._items.append(item)
            await self._flush()

    async def peek(self):
        return self._items[-1]

    async def _flush(self):
        return None
"""

#: a closure or lambda is judged by the locks held where it appears
CLOSURE = """\
import threading

class Pool:
    def __init__(self):
        self._lock = threading.Lock()
        self._jobs = {}

    def submit(self, key, run):
        with self._lock:
            def record(result):
                self._jobs[key] = result
            run(record)
            run(lambda result: self._jobs.pop(key))

    def later(self, key, run):
        def record(result):
            self._jobs[key] = result
        with self._lock:
            run(record)
        run(lambda result: self._jobs.pop(key))
"""

#: classes nested in a class or a function are indexed like top-level
NESTED_CLASS = """\
import threading

class Outer:
    class Inner:
        def __init__(self):
            self._lock = threading.Lock()
            self._seen = set()

        def add(self, item):
            self._seen.add(item)

        def forward(self, other):
            with self._lock:
                with other._glock:
                    pass


def build():
    class Local:
        def __init__(self):
            self._glock = threading.Lock()

        def back(self, inner):
            with self._glock:
                with inner._lock:
                    pass

    return Local
"""

#: a module-level lock guards module-level containers in any package
MODULE_LOCK = """\
import threading

_LOCK = threading.Lock()
_CACHE = {}

def get(key):
    with _LOCK:
        return _CACHE.get(key)

def put(key, value):
    _CACHE[key] = value

def reenter():
    with _LOCK:
        with _LOCK:
            pass
"""


def test_async_with_holds_for_discipline_not_for_order():
    path = "src/repro/service/queue.py"
    assert run_on(path, ASYNC_WITH, "lock-discipline") == [
        (14, "self._items accessed outside 'with <lock>' in Queue.peek")]
    assert run_on(path, ASYNC_WITH, "lock-order") == []


def test_closure_judged_by_locks_held_where_defined():
    path = "src/repro/service/pool.py"
    assert run_on(path, CLOSURE, "lock-discipline") == [
        (17, "self._jobs accessed outside 'with <lock>' in Pool.later"),
        (20, "self._jobs accessed outside 'with <lock>' in Pool.later"),
    ]
    assert run_on(path, CLOSURE, "lock-order") == []


def test_nested_classes_are_indexed():
    path = "src/repro/service/nest.py"
    assert run_on(path, NESTED_CLASS, "lock-discipline") == [
        (10, "self._seen accessed outside 'with <lock>' in Inner.add")]
    chain = "lock-order cycle Inner._lock -> Local._glock -> Inner._lock"
    assert run_on(path, NESTED_CLASS, "lock-order") == [
        (14, f"{chain}: Outer.Inner.forward() acquires Local._glock "
             "while holding Inner._lock"),
        (25, f"{chain}: build.Local.back() acquires Inner._lock "
             "while holding Local._glock"),
    ]


def test_module_level_lock_outside_the_service():
    path = "src/repro/core/cachemod.py"
    assert run_on(path, MODULE_LOCK, "lock-discipline") == [
        (11, "module-level _CACHE accessed outside 'with <lock>' in put()")]
    assert run_on(path, MODULE_LOCK, "lock-order") == [
        (15, "reenter() acquires cachemod._LOCK while already holding "
             "it; threading.Lock is not reentrant")]
