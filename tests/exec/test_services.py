"""The one ``Services`` class against a recording fake transport.

Every backend hands ``Services`` its own handles, so the class itself
must do exactly one thing per verb: return a thunk that, when called,
calls the matching handle method with the same arguments — and nothing
before that, because the simulator relies on a token being inert until
``drive`` resolves it.
"""

import pytest

from repro.exec.protocols import Services


class Recorder:
    """A handle whose every method records ``(handle, method, args, kwargs)``."""

    def __init__(self, name, log):
        self._name = name
        self._log = log

    def __getattr__(self, method):
        def call(*args, **kwargs):
            self._log.append((self._name, method, args, kwargs))
            return (self._name, method)

        return call


@pytest.fixture
def recorded():
    log = []
    handles = {name: Recorder(name, log) for name in ("cos", "kv", "mq", "exchange")}
    accounting = Recorder("ctx", log)
    services = Services(
        handles["cos"], handles["kv"], handles["mq"], handles["exchange"],
        accounting.compute, accounting.sleep,
    )
    return services, log


MESSAGE = {"kind": "m"}

#: verb, its arguments -> the one handle call it must make
YIELDED_VERBS = [
    ("cos_get", ("bucket", "key"), {}, ("cos", "get", ("bucket", "key"), {})),
    ("kv_set", ("k", 7), {}, ("kv", "set", ("k", 7), {})),
    ("kv_get", ("k",), {}, ("kv", "get", ("k",), {})),
    ("kv_get_or_none", ("k",), {}, ("kv", "get_or_none", ("k",), {})),
    ("kv_delete", ("k",), {}, ("kv", "delete", ("k",), {})),
    ("kv_exists", ("k",), {}, ("kv", "exists", ("k",), {})),
    ("mq_publish", ("q", MESSAGE), {}, ("mq", "publish", ("q", MESSAGE), {})),
    ("mq_consume", ("q",), {}, ("mq", "consume", ("q",), {})),
    (
        "mq_consume_with_timeout", ("q", 1.5), {},
        ("mq", "consume_with_timeout", ("q", 1.5), {}),
    ),
    ("mq_drain", ("q",), {}, ("mq", "drain", ("q",), {})),
    (
        "broadcast", (MESSAGE,), {"exclude": "q"},
        ("exchange", "publish", (MESSAGE,), {"exclude": "q"}),
    ),
    ("compute", (0.25,), {}, ("ctx", "compute", (0.25,), {})),
    ("sleep", (2.0,), {}, ("ctx", "sleep", (2.0,), {})),
]


@pytest.mark.parametrize(
    "verb, args, kwargs, expected", YIELDED_VERBS, ids=[v[0] for v in YIELDED_VERBS]
)
def test_verb_is_an_inert_thunk_over_the_matching_handle_method(
    recorded, verb, args, kwargs, expected
):
    services, log = recorded
    token = getattr(services, verb)(*args, **kwargs)
    assert log == []  # minting a token runs nothing
    result = token()
    assert log == [expected]  # exactly one call, same arguments
    assert result == expected[:2]  # and the handle's return value is the token's


def test_broadcast_excludes_nobody_by_default(recorded):
    services, log = recorded
    services.broadcast(MESSAGE)()
    assert log == [("exchange", "publish", (MESSAGE,), {"exclude": ""})]


def test_unbind_is_a_plain_synchronous_call(recorded):
    services, log = recorded
    assert services.unbind("q") is None
    assert log == [("exchange", "unbind", ("q",), {})]


def test_the_table_above_covers_every_verb():
    verbs = {name for name in vars(Services) if not name.startswith("_")}
    verbs -= set(Services.__slots__)
    assert verbs == {v[0] for v in YIELDED_VERBS} | {"unbind"}
    assert len(verbs) == 14
