"""The validator examples run end to end, in-process."""

import importlib.util
import pathlib

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name, capsys):
    path = EXAMPLES / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    return capsys.readouterr().out


def test_validator_chain_profiles_the_traffic(capsys):
    out = run_example("validator_chain", capsys)
    assert "chain height 5" in out
    assert "CryptoCat" in out and "TetherToken" in out


def test_fault_drill_ends_identical_to_the_honest_node(capsys):
    out = run_example("fault_drill", capsys)
    assert "dag_faults_detected=1" in out
    assert "pu_failures_detected=1" in out
    assert "pu_stalls_detected=1" in out
    assert "stale_plans=" in out
    assert "state identical to honest sequential node: True" in out
