"""Serve-suite fixtures: optional durable variant of every serve test.

Setting ``REPRO_SERVE_DATA_DIR=1`` re-runs the whole serve suite with a
durable store attached: every ``ServeConfig`` constructed without an
explicit ``data_dir`` gets a fresh temporary directory (fsync=never, so
the suite's timing assumptions hold). CI runs the suite both ways; the
tests themselves don't change.

Under ``python -X dev`` (asyncio debug mode; CI runs the suite once that
way with warnings as errors) anything asyncio reports through its
logger — a future exception nobody retrieved, an exception escaping a
callback or a transport — fails the test that produced it.
"""

import dataclasses
import logging
import os
import shutil
import sys
import tempfile

import pytest


def served(builder, name: str):
    """One ``serve.*`` series of a bare builder's registry (a builder
    has no ``stats()``; ``RpcServer.stats`` is the view of the same)."""
    return builder.metrics.value("serve." + name)


@pytest.fixture(autouse=True)
def serve_data_dir_variant(monkeypatch):
    if not os.environ.get("REPRO_SERVE_DATA_DIR"):
        yield None
        return

    from repro.serve import config as serve_config

    created: list[str] = []
    original_post_init = serve_config.ServeConfig.__post_init__

    def durable_post_init(self):
        if self.data_dir is None:
            self.data_dir = tempfile.mkdtemp(prefix="repro-serve-t1-")
            self.storage = dataclasses.replace(self.storage, fsync="never")
            created.append(self.data_dir)
        original_post_init(self)

    monkeypatch.setattr(
        serve_config.ServeConfig, "__post_init__", durable_post_init
    )
    yield created
    for path in created:
        shutil.rmtree(path, ignore_errors=True)


@pytest.fixture(autouse=True)
def asyncio_errors_fail_under_dev_mode(caplog):
    yield
    if not sys.flags.dev_mode:
        return
    errors = [
        record.getMessage()
        for phase in ("setup", "call", "teardown")
        for record in caplog.get_records(phase)
        if record.name == "asyncio" and record.levelno >= logging.ERROR
    ]
    assert not errors, errors
