"""The drill runner's contract (``python -m repro.drill``).

The scenarios themselves are CI jobs (real processes, real SIGKILLs);
what tier-1 holds is the part every one of them leans on: the process
handle cannot wedge or leak, the table cannot rot, and the runner turns
failures, exceptions and typos into the right exit code.
"""

from __future__ import annotations

import inspect
import json
import time

import pytest

from repro import drill
from repro.drill import SCENARIOS, ReproProcess, main, parse_overrides


# -- the process handle --------------------------------------------------------
@pytest.fixture
def spawned(monkeypatch):
    """Every ``Popen`` the handle makes — the constructor raises in these
    tests, so the child is not reachable through a handle."""
    children = []
    popen = drill.subprocess.Popen

    def recording_popen(*args, **kwargs):
        children.append(popen(*args, **kwargs))
        return children[-1]

    monkeypatch.setattr(drill.subprocess, "Popen", recording_popen)
    return children


def test_boot_deadline_holds_while_the_child_is_alive_and_silent(spawned):
    """A writer without ``--replication-port`` announces once and then
    says nothing; waiting for a second announcement has to end at the
    deadline (a blocking ``readline`` never looks at it), child reaped."""
    started = time.monotonic()
    with pytest.raises(RuntimeError, match="silent past its boot deadline"):
        ReproProcess(
            ["serve", "--host", "127.0.0.1", "--port", "0"],
            announcements=2, boot_timeout=1.0,
        )
    assert time.monotonic() - started < 10.0
    assert spawned[0].poll() is not None


def test_a_child_that_exits_before_announcing_fails_the_boot_at_once(spawned):
    started = time.monotonic()
    with pytest.raises(RuntimeError, match="invalid choice"):  # its stderr
        ReproProcess(["no-such-subcommand"])
    assert time.monotonic() - started < 30.0  # not the 60 s deadline
    assert spawned[0].poll() is not None


def test_kill_and_stop_are_idempotent_and_keep_stderr():
    with ReproProcess(["serve", "--host", "127.0.0.1", "--port", "0"]) as proc:
        assert proc.port > 0
        assert any("listening on" in line for line in proc.stderr_lines)
        assert proc.stop() == 0
        assert any("served" in line for line in proc.stderr_lines)
        proc.kill()
        assert proc.stop() == 0


# -- the table -----------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_row_binds_to_its_scenario(name):
    scenario, row = SCENARIOS[name]
    inspect.signature(scenario).bind(**row)


def test_overrides_are_typed_by_the_row():
    scenario, row = SCENARIOS["packing"]
    assert parse_overrides(scenario, row, [
        "transactions=64", "min_tps=10", "workload=transfer",
        "max_blocks=9", "min_parallelism=2", "packing_lane_depth=none",
    ]) == {
        "transactions": 64, "min_tps": 10.0, "workload": "transfer",
        "max_blocks": 9, "min_parallelism": 2.0, "packing_lane_depth": None,
    }
    scenario, row = SCENARIOS["serve"]
    # None-defaulted, no value in this row: int, then float, then str.
    assert parse_overrides(scenario, row, [
        "max_blocks=9", "min_parallelism=1.5",
    ]) == {"max_blocks": 9, "min_parallelism": 1.5}
    scenario, row = SCENARIOS["replication"]
    assert parse_overrides(scenario, row, ["divergence=false"]) == {
        "divergence": False
    }
    for bad in ("divergence=maybe", "transactions=many", "nosuch=1", "bare"):
        with pytest.raises(ValueError):
            parse_overrides(scenario, row, [bad])


# -- the runner ----------------------------------------------------------------
def test_unknown_name_and_unknown_key_exit_2(capsys):
    assert main(["nosuch"]) == 2
    assert "serve-mtpu" in capsys.readouterr().err  # the names are listed
    assert main([]) == 2
    assert main(["serve", "nosuch=1"]) == 2
    assert "nosuch" in capsys.readouterr().err
    assert main(["serve", "transactions=many"]) == 2


def test_failures_exit_1_each_on_stderr(monkeypatch, capsys):
    def scenario(*, depth):
        return {"depth": depth, "summary": "unused",
                "failures": ["first gate", "second gate"]}

    monkeypatch.setitem(SCENARIOS, "stub", (scenario, dict(depth=1)))
    assert main(["stub", "depth=3"]) == 1
    out, err = capsys.readouterr()
    assert json.loads(out)["depth"] == 3
    assert "stub FAILED: first gate; second gate" in err


def test_a_scenario_that_raises_fails_typed_and_leaves_no_process(
    monkeypatch, capsys
):
    started = []

    def scenario():
        with ReproProcess(["serve", "--host", "127.0.0.1", "--port", "0"]) as proc:
            started.append(proc)
            raise LookupError("the drill itself broke")

    monkeypatch.setitem(SCENARIOS, "stub", (scenario, {}))
    assert main(["stub"]) == 1
    assert "stub FAILED: LookupError: the drill itself broke" in (
        capsys.readouterr().err
    )
    assert started and started[0].proc.poll() is not None


def test_serve_row_passes_in_process(capsys):
    assert main(["serve", "transactions=64"]) == 0
    out, err = capsys.readouterr()
    result = json.loads(out)
    assert result["failures"] == []
    assert result["load"]["ok"] == 64
    assert "serve ok:" in err


def test_serve_row_fails_by_its_floor(capsys):
    assert main(["serve", "transactions=64", "min_tps=1000000000"]) == 1
    assert "< floor 1000000000" in capsys.readouterr().err
