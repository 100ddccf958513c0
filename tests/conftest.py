"""Shared fixtures for the repro test suite."""

import faulthandler
import os

import numpy as np
import pytest

from repro import sanitize
from repro.sanitize import schedules


#: stderr duplicate the hang fallback dumps to (absent: fallback inactive)
_HANG_FD = pytest.StashKey[int]()


def pytest_addoption(parser, pluginmanager):
    """Without pytest-timeout, register its ``timeout`` ini key so the
    ``pyproject.toml`` cap still reaches the faulthandler fallback."""
    if not pluginmanager.hasplugin("timeout"):
        parser.addini("timeout", "per-test cap in seconds; without "
                      "pytest-timeout a hang dumps every thread's stack "
                      "and exits the run", default="0")


def pytest_configure(config):
    if (not config.pluginmanager.hasplugin("timeout")
            and float(config.getini("timeout") or 0) > 0):
        # output capture is suspended during configure, so fd 2 is the
        # real stderr here; a dump into a capture file would be lost
        config.stash[_HANG_FD] = os.dup(2)


def pytest_unconfigure(config):
    fd = config.stash.get(_HANG_FD, None)
    if fd is not None:
        os.close(fd)
        del config.stash[_HANG_FD]


@pytest.hookimpl(wrapper=True)
def pytest_runtest_protocol(item, nextitem):
    """Fallback per-test cap: a test running past ``timeout`` seconds
    dumps all thread stacks to stderr and exits the run non-zero."""
    fd = item.config.stash.get(_HANG_FD, None)
    if fd is None:
        return (yield)
    faulthandler.dump_traceback_later(float(item.config.getini("timeout")),
                                      exit=True, file=fd)
    try:
        return (yield)
    finally:
        faulthandler.cancel_dump_traceback_later()


@pytest.fixture
def rng():
    return np.random.default_rng(0xBEEF)


@pytest.fixture(autouse=True, scope="session")
def _schedule_explorer():
    """Honour ``REPRO_SCHEDULE_SEED``: run the whole suite under one
    adversarial-but-replayable schedule.

    Inert when the variable is unset; with it, every instrumented
    scheduling point (task post, steal scan, channel set, parcel
    delivery, transport flush) draws seeded perturbations, so the
    bit-identity tests double as a schedule-fuzz smoke — CI sweeps 25
    seeds, a failure replays locally from the printed seed alone.
    """
    exp = schedules.install_from_env()
    yield exp
    if exp is not None:
        schedules.uninstall()


@pytest.fixture
def san():
    """Sanitizers enabled with pristine graphs; restores prior state.

    Objects built inside the test (futures, locks, leases) are
    instrumented; tests inject hazards inside ``sanitize.scope()`` so the
    global findings list — asserted empty by ``_sanitize_guard`` — stays
    clean.
    """
    was_enabled = sanitize.enabled()
    sanitize.enable()
    sanitize.reset_graphs()
    yield sanitize
    sanitize.reset_graphs()
    if not was_enabled:
        sanitize.disable()


@pytest.fixture(autouse=True)
def _sanitize_guard(request):
    """Fail any test that leaks *global* sanitizer findings.

    Under ``REPRO_SANITIZE=1`` the whole suite doubles as a sanitizer
    run: a finding recorded outside a ``sanitize.scope()`` means either a
    real runtime hazard or an adversarial test missing the
    ``sanitize_tolerated`` marker.  Inert when the sanitizers are off.
    """
    before = sanitize.finding_count()
    yield
    if request.node.get_closest_marker("sanitize_tolerated"):
        sanitize.clear()
        return
    leaked = sanitize.findings()[before:]
    assert not leaked, (
        "test leaked sanitizer findings (wrap injected hazards in "
        "sanitize.scope() or mark the test sanitize_tolerated):\n"
        + "\n".join(f"  {f}" for f in leaked))
