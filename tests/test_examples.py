"""Every example runs end to end, in-process. Their output is
deterministic; the cycle, speedup and utilization lines are pinned (a
change to them is a change to the model)."""

import importlib.util
import pathlib
import sys

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name, capsys):
    path = EXAMPLES / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    argv, sys.argv = sys.argv, [str(path)]  # as if run with no arguments
    try:
        module.main()
    finally:
        sys.argv = argv
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


def assert_lines(out, pinned):
    lines = out.splitlines()
    for line in pinned:
        assert line in lines, line


def test_quickstart_times_one_block_three_ways(capsys):
    out = run_example("quickstart", capsys)
    assert_lines(out, [
        "  sequential 1 PU     :    20779 cycles (baseline)",
        "  synchronous 4 PUs   :    14507 cycles (1.43x)",
        "  spatio-temporal 4 PU:    10259 cycles (2.03x, utilization 63%,"
        " redundant picks 53%)",
        "all receipts identical across schedules — serializability holds.",
    ])


def test_scheduler_comparison_sweeps_the_dependency_ratio(capsys):
    out = run_example("scheduler_comparison", capsys)
    assert_lines(out, [
        " 0.00     1 |  3.81  3.93   5.67   9.29 |      97%",
        " 0.17     9 |  3.76  3.88   5.39   8.89 |      95%",
        " 0.35    18 |  2.63  2.77   5.66   7.66 |      78%",
        " 0.48    24 |  2.01  2.07   4.30   5.83 |      59%",
        " 0.81    40 |  1.20  1.20   2.62   3.52 |      33%",
        " 0.98    48 |  1.00  0.99   2.11   2.84 |      25%",
    ])


def test_token_exchange_block_speeds_up_the_validator(capsys):
    out = run_example("token_exchange_block", capsys)
    assert_lines(out, [
        "receipts: 59/59 succeeded, 102 events",
        "  plain sequential core :    39874 cycles = 133us -> ~22,195 TPS"
        " sustainable",
        "  MTPU (full co-design) :     9476 cycles = 32us -> ~93,394 TPS"
        " sustainable",
        "co-design speedup: 4.21x (more transactions per block at the same"
        " interval)",
    ])


def test_hotspot_tuning_ablates_each_optimization(capsys):
    out = run_example("hotspot_tuning", capsys)
    assert_lines(out, [
        "  no hotspot optimization         :    6993 cycles (1.00x)",
        "  chunk pre-execution only        :    5656 cycles (1.24x)",
        "  + chunked bytecode loading      :    5593 cycles (1.25x)",
        "  + data prefetching              :    4553 cycles (1.54x)",
        "  + constant elimination (full)   :    4142 cycles (1.69x)",
    ])
