"""LOCK1xx: thread-backend lock hygiene over synthetic local backends."""

from repro.analysis import SimLintConfig
from repro.analysis.lock_rules import LOCK_RULES

LOCK_CONFIG = SimLintConfig(lock_modules=("exec/local.py",))


def lint_local(lint_project, source, config=LOCK_CONFIG):
    return lint_project({"exec/local.py": source}, rules=LOCK_RULES, config=config)


def test_clean_backend_has_no_lock_findings(lint_project):
    findings = lint_local(
        lint_project,
        """
        class LocalServices:
            def __init__(self, lock, q):
                self._lock = lock
                self._q = q

            def snapshot(self):
                with self._lock:
                    items = list(self._q.queue)
                return items

            def next_message(self):
                return self._q.get(timeout=5.0)

            def shutdown(self, thread):
                thread.join(timeout=2.0)
        """,
    )
    assert findings == []


def test_lock_rules_ignore_modules_outside_lock_set(lint_project):
    findings = lint_project(
        {"exec/other.py": "def f(q, lock):\n    with lock:\n        q.get()\n"},
        rules=LOCK_RULES,
        config=LOCK_CONFIG,
    )
    assert findings == []


# -- LOCK101 -----------------------------------------------------------------


def test_lock101_flags_direct_blocking_under_lock(lint_project):
    findings = lint_local(
        lint_project,
        """
        class LocalServices:
            def fetch(self):
                with self._lock:
                    return self._q.get(timeout=5.0)
        """,
    )
    assert [f.rule for f in findings] == ["LOCK101"]
    assert "LocalServices._lock" in findings[0].message


def test_lock101_flags_transitive_blocking_through_helper(lint_project):
    findings = lint_local(
        lint_project,
        """
        class LocalServices:
            def _drain_one(self):
                return self._q.get(timeout=1.0)

            def fetch(self):
                with self._lock:
                    return self._drain_one()
        """,
    )
    assert [f.rule for f in findings] == ["LOCK101"]
    assert "_drain_one" in findings[0].message
    assert "transitively" in findings[0].message


def test_lock101_blocking_after_region_is_fine(lint_project):
    findings = lint_local(
        lint_project,
        """
        class LocalServices:
            def fetch(self):
                with self._lock:
                    wanted = self._pending.copy()
                return self._q.get(timeout=5.0)
        """,
    )
    assert findings == []


def test_lock101_dict_get_and_str_join_are_not_blocking(lint_project):
    findings = lint_local(
        lint_project,
        """
        class LocalServices:
            def lookup(self, key):
                with self._lock:
                    name = ",".join(self._parts)
                    return self._table.get(key, name)
        """,
    )
    assert findings == []


# -- LOCK102 -----------------------------------------------------------------


def test_lock102_flags_abba_cycle(lint_project):
    findings = lint_local(
        lint_project,
        """
        class LocalServices:
            def publish(self):
                with self._topics_lock:
                    with self._queues_lock:
                        pass

            def unbind(self):
                with self._queues_lock:
                    with self._topics_lock:
                        pass
        """,
    )
    assert [f.rule for f in findings] == ["LOCK102"]
    assert "_topics_lock -> " in findings[0].message


def test_lock102_consistent_order_is_fine(lint_project):
    findings = lint_local(
        lint_project,
        """
        class LocalServices:
            def publish(self):
                with self._topics_lock:
                    with self._queues_lock:
                        pass

            def unbind(self):
                with self._topics_lock:
                    with self._queues_lock:
                        pass
        """,
    )
    assert findings == []


def test_lock102_cycle_through_helper_call(lint_project):
    findings = lint_local(
        lint_project,
        """
        class LocalServices:
            def _bump(self):
                with self._stats_lock:
                    pass

            def publish(self):
                with self._queues_lock:
                    self._bump()

            def report(self):
                with self._stats_lock:
                    with self._queues_lock:
                        pass
        """,
    )
    assert [f.rule for f in findings] == ["LOCK102"]


def test_lock102_reentrant_double_acquire_is_a_self_cycle(lint_project):
    findings = lint_local(
        lint_project,
        """
        class LocalServices:
            def fetch(self):
                with self._lock:
                    with self._lock:
                        pass
        """,
    )
    assert [f.rule for f in findings] == ["LOCK102"]


# -- LOCK103 -----------------------------------------------------------------


def test_lock103_flags_unbounded_get_join_wait(lint_project):
    findings = lint_local(
        lint_project,
        """
        class LocalServices:
            def run(self, thread, event):
                item = self._q.get()
                thread.join()
                event.wait()
                return item
        """,
    )
    assert [f.rule for f in findings] == ["LOCK103", "LOCK103", "LOCK103"]
    labels = sorted(f.message.split("`")[3] for f in findings)
    assert labels == ["get(...)", "join(...)", "wait(...)"]


def test_lock103_timeout_kwarg_bounds_the_call(lint_project):
    findings = lint_local(
        lint_project,
        """
        class LocalServices:
            def run(self, thread, event):
                item = self._q.get(timeout=5.0)
                thread.join(timeout=1.0)
                event.wait(timeout=0.5)
                return item
        """,
    )
    assert findings == []


def test_lock103_explicit_none_timeout_is_still_unbounded(lint_project):
    findings = lint_local(
        lint_project,
        """
        class LocalServices:
            def run(self):
                return self._q.get(timeout=None)
        """,
    )
    assert [f.rule for f in findings] == ["LOCK103"]


def test_lock103_consume_calls_are_internally_bounded(lint_project):
    # mq consume goes through the deadline-bounded service helper: never
    # LOCK103 — but still blocking, so LOCK101 fires under a lock
    findings = lint_local(
        lint_project,
        """
        class LocalServices:
            def pull(self):
                return self._mq.consume("q")

            def bad_pull(self):
                with self._lock:
                    return self._mq.consume("q")
        """,
    )
    assert [f.rule for f in findings] == ["LOCK101"]
