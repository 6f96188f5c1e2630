"""Tests for the interprocedural concurrency rules R006–R008.

Same fixture style as ``test_staticcheck.py``: tmp trees mimicking the
``src/repro`` layout, exact rule-id + ``file:line`` anchors for the
violating snippets, and a *clean counterpart* for every detection so the
rules are pinned from both sides — they must fire on the bug and stay
silent on the fix.  The issue's required demonstrations are here: the
two-lock ordering cycle and await-under-sync-lock (R008), and the
cross-domain unguarded write (R007).
"""

from repro.staticcheck import run_checks


def make_tree(root, files):
    for relpath, source in files.items():
        path = root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return root


def hits(result, rule_id):
    return [v for v in result.violations if v.rule_id == rule_id]


def anchors(result, rule_id):
    return [(v.path, v.line) for v in hits(result, rule_id)]


# ---------------------------------------------------------------------------
# R006 — blocking-in-async


class TestBlockingInAsync:
    def test_flags_sleep_inside_coroutine(self, tmp_path):
        root = make_tree(tmp_path, {"service/mod.py": (
            "import time\n"
            "async def handler():\n"
            "    time.sleep(1)\n"       # line 3: blocks the loop
        )})
        result = run_checks(root, select=["R006"])
        assert anchors(result, "R006") == [("service/mod.py", 3)]
        assert "blocks the event loop" in hits(result, "R006")[0].message

    def test_flags_blocking_call_reachable_from_coroutine(self, tmp_path):
        root = make_tree(tmp_path, {"service/mod.py": (
            "import subprocess\n"
            "async def handler():\n"
            "    return helper()\n"
            "def helper():\n"
            "    subprocess.run(['true'])\n"   # line 5: loop-reachable
        )})
        result = run_checks(root, select=["R006"])
        assert anchors(result, "R006") == [("service/mod.py", 5)]

    def test_open_and_socket_io_are_blocking(self, tmp_path):
        root = make_tree(tmp_path, {"service/mod.py": (
            "import socket\n"
            "async def handler(path):\n"
            "    sock = socket.create_connection(('h', 1))\n"  # line 3
            "    sock.sendall(b'x')\n"                         # line 4
            "    with open(path) as fh:\n"                     # line 5
            "        return fh.read()\n"
        )})
        result = run_checks(root, select=["R006"])
        assert anchors(result, "R006") == [
            ("service/mod.py", 3), ("service/mod.py", 4),
            ("service/mod.py", 5)]

    def test_clean_counterpart_offloaded_work_passes(self, tmp_path):
        # The same blocking primitive is fine on a thread: to_thread /
        # run_in_executor re-domain the callee, and a plain main-thread
        # function may sleep all it wants.
        root = make_tree(tmp_path, {"service/mod.py": (
            "import asyncio\n"
            "import time\n"
            "def blocking_io():\n"
            "    time.sleep(1)\n"
            "async def handler():\n"
            "    await asyncio.to_thread(blocking_io)\n"
            "def main():\n"
            "    time.sleep(1)\n"
        )})
        assert run_checks(root, select=["R006"]).ok

    def test_asyncio_sleep_is_not_blocking(self, tmp_path):
        root = make_tree(tmp_path, {"service/mod.py": (
            "import asyncio\n"
            "async def handler():\n"
            "    await asyncio.sleep(1)\n"
        )})
        assert run_checks(root, select=["R006"]).ok


# ---------------------------------------------------------------------------
# R007 — domain confinement


class TestDomainConfinement:
    def test_cross_domain_unguarded_write_is_flagged(self, tmp_path):
        # The issue's required demonstration: a module-level dict written
        # from the event loop (via an async handler's sync callee) and
        # from the main thread, with no lock anywhere.
        root = make_tree(tmp_path, {"service/mod.py": (
            "CACHE = {}\n"
            "async def handler(key):\n"
            "    record(key)\n"
            "def record(key):\n"
            "    CACHE[key] = 1\n"      # line 5: loop + main, no lock
            "def campaign():\n"
            "    record('x')\n"
        )})
        result = run_checks(root, select=["R007"])
        assert anchors(result, "R007") == [("service/mod.py", 5)]
        message = hits(result, "R007")[0].message
        assert "event-loop" in message and "main" in message

    def test_clean_counterpart_lock_guarded_write_passes(self, tmp_path):
        root = make_tree(tmp_path, {"service/mod.py": (
            "import threading\n"
            "CACHE = {}\n"
            "_LOCK = threading.Lock()\n"
            "async def handler(key):\n"
            "    record(key)\n"
            "def record(key):\n"
            "    with _LOCK:\n"
            "        CACHE[key] = 1\n"
            "def campaign():\n"
            "    record('x')\n"
        )})
        assert run_checks(root, select=["R007"]).ok

    def test_single_domain_writes_are_confined_and_clean(self, tmp_path):
        # Same unguarded write, but nothing routes it off the main
        # thread: confinement, not a race.
        root = make_tree(tmp_path, {"analysis/mod.py": (
            "CACHE = {}\n"
            "def record(key):\n"
            "    CACHE[key] = 1\n"
            "def campaign():\n"
            "    record('x')\n"
        )})
        assert run_checks(root, select=["R007"]).ok

    def test_worker_domain_folds_to_main_per_process(self, tmp_path):
        # Workers own a per-process copy of the module global — writing
        # it from campaign code and from pool workers is not sharing.
        root = make_tree(tmp_path, {"analysis/mod.py": (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "CACHE = {}\n"
            "def job(key):\n"
            "    CACHE[key] = 1\n"
            "def campaign():\n"
            "    CACHE['seed'] = 0\n"
            "    pool = ProcessPoolExecutor()\n"
            "    list(pool.map(job, ['a', 'b']))\n"
        )})
        assert run_checks(root, select=["R007"]).ok

    def test_self_locking_project_class_is_recognised(self, tmp_path):
        # The LRUCache pattern: writes go through methods that take the
        # instance's own lock, so cross-domain use is synchronised.
        locked_cache = (
            "import threading\n"
            "class Cache:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.RLock()\n"
            "        self._data = {}\n"
            "    def put(self, k, v):\n"
            "        with self._lock:\n"
            "            self._data[k] = v\n"
        )
        root = make_tree(tmp_path, {
            "util/cache.py": locked_cache,
            "service/mod.py": (
                "from ..util.cache import Cache\n"
                "CACHE = Cache()\n"
                "async def handler(k):\n"
                "    record(k)\n"
                "def record(k):\n"
                "    CACHE.put(k, 1)\n"
                "def campaign():\n"
                "    record('x')\n"
            ),
        })
        assert run_checks(root, select=["R007"]).ok

    def test_unlocked_project_class_method_is_flagged(self, tmp_path):
        # Identical shape minus the lock: the same .put() write fires.
        root = make_tree(tmp_path, {
            "util/cache.py": (
                "class Cache:\n"
                "    def __init__(self):\n"
                "        self._data = {}\n"
                "    def put(self, k, v):\n"
                "        self._data[k] = v\n"
            ),
            "service/mod.py": (
                "from ..util.cache import Cache\n"
                "CACHE = Cache()\n"
                "async def handler(k):\n"
                "    record(k)\n"
                "def record(k):\n"
                "    CACHE.put(k, 1)\n"    # line 6
                "def campaign():\n"
                "    record('x')\n"
            ),
        })
        result = run_checks(root, select=["R007"])
        assert anchors(result, "R007") == [("service/mod.py", 6)]

    def test_read_only_cross_domain_use_is_clean(self, tmp_path):
        root = make_tree(tmp_path, {"service/mod.py": (
            "TABLE = {'a': 1}\n"
            "async def handler(k):\n"
            "    return TABLE.get(k)\n"
            "def campaign(k):\n"
            "    return TABLE.get(k)\n"
        )})
        assert run_checks(root, select=["R007"]).ok


# ---------------------------------------------------------------------------
# R008 — lock discipline


class TestLockDiscipline:
    def test_two_lock_ordering_cycle_is_detected(self, tmp_path):
        # The issue's required demonstration: thread A takes LOCK_A then
        # LOCK_B, thread B takes LOCK_B then LOCK_A — classic deadlock.
        root = make_tree(tmp_path, {"sync/mod.py": (
            "import threading\n"
            "LOCK_A = threading.Lock()\n"
            "LOCK_B = threading.Lock()\n"
            "def forwards():\n"
            "    with LOCK_A:\n"
            "        with LOCK_B:\n"
            "            pass\n"
            "def backwards():\n"
            "    with LOCK_B:\n"
            "        with LOCK_A:\n"
            "            pass\n"
        )})
        result = run_checks(root, select=["R008"])
        messages = [v.message for v in hits(result, "R008")]
        assert any("lock-order cycle" in m for m in messages)
        cycle = next(m for m in messages if "lock-order cycle" in m)
        assert "LOCK_A" in cycle and "LOCK_B" in cycle

    def test_consistent_order_is_clean(self, tmp_path):
        root = make_tree(tmp_path, {"sync/mod.py": (
            "import threading\n"
            "LOCK_A = threading.Lock()\n"
            "LOCK_B = threading.Lock()\n"
            "def one():\n"
            "    with LOCK_A:\n"
            "        with LOCK_B:\n"
            "            pass\n"
            "def two():\n"
            "    with LOCK_A:\n"
            "        with LOCK_B:\n"
            "            pass\n"
        )})
        assert run_checks(root, select=["R008"]).ok

    def test_interprocedural_cycle_through_a_call_is_detected(self, tmp_path):
        # The second edge of the cycle is hidden behind a function call:
        # lexical with-nesting alone cannot see it.
        root = make_tree(tmp_path, {"sync/mod.py": (
            "import threading\n"
            "LOCK_A = threading.Lock()\n"
            "LOCK_B = threading.Lock()\n"
            "def take_a():\n"
            "    with LOCK_A:\n"
            "        pass\n"
            "def forwards():\n"
            "    with LOCK_A:\n"
            "        with LOCK_B:\n"
            "            pass\n"
            "def backwards():\n"
            "    with LOCK_B:\n"
            "        take_a()\n"
        )})
        result = run_checks(root, select=["R008"])
        assert any("lock-order cycle" in v.message
                   for v in hits(result, "R008"))

    def test_await_under_sync_lock_is_flagged(self, tmp_path):
        # The issue's second required demonstration.
        root = make_tree(tmp_path, {"service/mod.py": (
            "import asyncio\n"
            "import threading\n"
            "LOCK = threading.Lock()\n"
            "async def handler():\n"
            "    with LOCK:\n"
            "        await asyncio.sleep(0)\n"   # line 6
        )})
        result = run_checks(root, select=["R008"])
        assert ("service/mod.py", 6) in anchors(result, "R008")
        assert any("await while holding sync lock" in v.message
                   for v in hits(result, "R008"))

    def test_await_under_async_lock_is_clean(self, tmp_path):
        root = make_tree(tmp_path, {"service/mod.py": (
            "import asyncio\n"
            "LOCK = asyncio.Lock()\n"
            "async def handler():\n"
            "    async with LOCK:\n"
            "        await asyncio.sleep(0)\n"
        )})
        assert run_checks(root, select=["R008"]).ok

    def test_bare_acquire_is_flagged_try_finally_is_not(self, tmp_path):
        root = make_tree(tmp_path, {"sync/mod.py": (
            "import threading\n"
            "LOCK = threading.Lock()\n"
            "def leaky():\n"
            "    LOCK.acquire()\n"        # line 4: leaks on exception
            "    LOCK.release()\n"
            "def careful():\n"
            "    LOCK.acquire()\n"        # released in finally: fine
            "    try:\n"
            "        pass\n"
            "    finally:\n"
            "        LOCK.release()\n"
        )})
        result = run_checks(root, select=["R008"])
        assert anchors(result, "R008") == [("sync/mod.py", 4)]
        assert "outside with/try-finally" in hits(result, "R008")[0].message

    def test_reacquiring_non_reentrant_lock_is_flagged(self, tmp_path):
        root = make_tree(tmp_path, {"sync/mod.py": (
            "import threading\n"
            "LOCK = threading.Lock()\n"
            "RLOCK = threading.RLock()\n"
            "def deadlocks():\n"
            "    with LOCK:\n"
            "        with LOCK:\n"       # line 6: self-deadlock
            "            pass\n"
            "def reentrant_is_fine():\n"
            "    with RLOCK:\n"
            "        with RLOCK:\n"
            "            pass\n"
        )})
        result = run_checks(root, select=["R008"])
        assert anchors(result, "R008") == [("sync/mod.py", 6)]

    def test_instance_attr_locks_participate(self, tmp_path):
        root = make_tree(tmp_path, {"service/mod.py": (
            "import threading\n"
            "class Worker:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "    async def step(self):\n"
            "        with self._lock:\n"
            "            await self.flush()\n"   # line 7
            "    async def flush(self):\n"
            "        pass\n"
        )})
        result = run_checks(root, select=["R008"])
        assert ("service/mod.py", 7) in anchors(result, "R008")


# ---------------------------------------------------------------------------
# Integration: pragmas and rule filtering apply to the new rules too


class TestIntegration:
    def test_pragma_suppresses_concurrency_rule(self, tmp_path):
        root = make_tree(tmp_path, {"service/mod.py": (
            "import time\n"
            "async def handler():\n"
            "    time.sleep(0)  # staticcheck: allow[R006] — test stub\n"
        )})
        result = run_checks(root, select=["R006"])
        assert result.ok
        assert result.suppressed == 1

    def test_rule_filtering_applies_to_concurrency_rules(self, tmp_path):
        root = make_tree(tmp_path, {"service/mod.py": (
            "import time\n"
            "CACHE = {}\n"
            "async def handler(k):\n"
            "    time.sleep(0)\n"
            "    CACHE[k] = 1\n"
            "def campaign(k):\n"
            "    CACHE[k] = 2\n"
        )})
        all_ids = {v.rule_id for v in run_checks(root).violations}
        assert {"R006", "R007"} <= all_ids
        only_6 = {v.rule_id
                  for v in run_checks(root, select=["R006"]).violations}
        assert only_6 == {"R006"}
        without_6 = {v.rule_id
                     for v in run_checks(root, ignore=["R006"]).violations}
        assert "R006" not in without_6 and "R007" in without_6
