"""Shared fixtures: small InterEdge federations in common shapes.

Also the counter-ledger session check: on a full, green tier-1 session
(every test under ``testpaths`` collected and run, nothing deselected),
every numeric field of every ``repro`` ``*Stats`` dataclass must have been
set to a non-zero value by ``src/repro`` code at least once. A counter the
program never moves is dead or untested, and both are findings. Writes
made by tests themselves (a test poking a counter by hand) do not count.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import os
import pkgutil

import pytest

import repro
from repro import InterEdge
from repro.services import standard_registry


def stats_classes() -> dict[str, type]:
    """Every ``*Stats`` dataclass defined in ``repro``, by class name."""
    found = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if (
                name.endswith("Stats")
                and dataclasses.is_dataclass(obj)
                and isinstance(obj, type)
                and obj.__module__ == info.name
            ):
                found[name] = obj
    return found


def counter_fields(cls: type) -> list[str]:
    """The numeric (int or float, not bool) fields of a stats dataclass."""
    return [
        f.name
        for f in dataclasses.fields(cls)
        if isinstance(f.default, (int, float)) and not isinstance(f.default, bool)
    ]


_PACKAGE = os.path.dirname(repro.__file__) + os.sep
_TESTS = os.path.dirname(os.path.abspath(__file__)) + os.sep


def _written_by_program() -> bool:
    """Is the innermost project frame above the caller in ``src/repro``?"""
    frame = inspect.currentframe()
    frame = frame.f_back.f_back if frame and frame.f_back else None
    while frame is not None:
        filename = frame.f_code.co_filename
        if filename.startswith(_PACKAGE):
            return True
        if filename.startswith(_TESTS):
            return False
        frame = frame.f_back  # dataclass __init__, stdlib helpers
    return False


class _CounterLedger:
    """Which ``*Stats`` counters ``src/repro`` has set non-zero.

    Every counter starts behind a property that notes its first non-zero
    program write and then puts the class's own attribute back, so a
    counter costs nothing extra once the program has moved it.
    """

    def __init__(self) -> None:
        #: class -> counters the program has not yet set non-zero
        self.unseen = {cls: set(counter_fields(cls)) for cls in stats_classes().values()}
        self.tests_run = 0
        self.deselected = False
        for cls, names in self.unseen.items():
            for name in names:
                self._watch(cls, name, names)

    @staticmethod
    def _watch(cls: type, name: str, unseen: set[str]) -> None:
        # A slot's member descriptor, or the default of a plain dataclass
        # field (then the value lives in the instance __dict__).
        original = vars(cls)[name]
        slot = hasattr(original, "__set__")

        def get(instance):
            if slot:
                return original.__get__(instance, cls)
            return vars(instance).get(name, original)

        def put(instance, value) -> None:
            if slot:
                original.__set__(instance, value)
            else:
                vars(instance)[name] = value
            if value and _written_by_program():
                unseen.discard(name)
                setattr(cls, name, original)

        setattr(cls, name, property(get, put))

    def never_moved(self) -> list[str]:
        return sorted(
            f"{cls.__name__}.{name}" for cls, names in self.unseen.items() for name in names
        )

    def judged(self, session: pytest.Session) -> bool:
        """Is this a full, green tier-1 session?"""
        config = session.config
        testpaths = {(config.rootpath / p).resolve() for p in config.getini("testpaths")}
        here = config.invocation_params.dir
        return (
            session.exitstatus == pytest.ExitCode.OK
            and not self.deselected
            and {(here / arg).resolve() for arg in config.args} == testpaths
            and self.tests_run == session.testscollected > 0
        )


_LEDGER = _CounterLedger()


def pytest_deselected(items) -> None:
    if items:
        _LEDGER.deselected = True


def pytest_runtest_logfinish(nodeid, location) -> None:
    _LEDGER.tests_run += 1


def pytest_sessionfinish(session: pytest.Session) -> None:
    never_moved = _LEDGER.never_moved()
    if not never_moved or not _LEDGER.judged(session):
        return
    reporter = session.config.pluginmanager.get_plugin("terminalreporter")
    if reporter is not None:
        reporter.write_sep("=", "counters the program never moved", red=True)
        for name in never_moved:
            reporter.write_line(f"{name}: no src/repro write set it non-zero in any test")
    session.exitstatus = pytest.ExitCode.TESTS_FAILED


@pytest.fixture
def net() -> InterEdge:
    """An empty federation with the standard service catalog."""
    return InterEdge(registry=standard_registry())


@pytest.fixture
def two_edomain_net() -> InterEdge:
    """Two edomains, two SNs each, fully peered, all services deployed.

    Layout::

        west: sn[0] (border), sn[1]       east: sn[2] (border), sn[3]
    """
    net = InterEdge(registry=standard_registry())
    net.create_edomain("west")
    net.create_edomain("east")
    net.add_sn("west", name="sn-w0")
    net.add_sn("west", name="sn-w1")
    net.add_sn("east", name="sn-e0")
    net.add_sn("east", name="sn-e1")
    net.peer_all()
    net.deploy_required_services()
    return net


def sns_of(net: InterEdge, edomain: str):
    return [net.edomains[edomain].sns[a] for a in net.edomains[edomain].sn_addresses()]


@pytest.fixture
def single_sn_net() -> InterEdge:
    """One edomain, one SN, services deployed — the minimal deployment."""
    net = InterEdge(registry=standard_registry())
    net.create_edomain("solo")
    net.add_sn("solo", name="sn0")
    net.peer_all()
    net.deploy_required_services()
    return net


def open_group(net: InterEdge, owner_host, name: str) -> None:
    """Register ``name`` as an open group for every multipoint service."""
    for prefix in ("pubsub", "multicast", "anycast"):
        group = f"{prefix}:{name}"
        net.lookup.register_group(group, owner_host.keypair)
        net.lookup.post_open_group(group, owner_host.keypair)
