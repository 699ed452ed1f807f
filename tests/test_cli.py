"""CLI: listing, selection, output files, error handling."""

import importlib.util
import pathlib
import sys

import pytest

from repro.chain.node import Node
from repro.cli import EXPERIMENTS, build_parser, main, serve_config
from repro.experiments import ExperimentResult
from repro.serve import ServeConfig
from repro.serve.batcher import BlockBuilder
from repro.storage import StorageConfig


@pytest.fixture()
def fake_experiments(monkeypatch):
    calls = []

    def make(name):
        def fn():
            calls.append(name)
            return ExperimentResult(
                experiment_id=name, title="t",
                headers=["a"], rows=[[1]],
            )
        fn.__doc__ = f"{name} docstring."
        return fn

    fakes = {name: make(name) for name in ("fig12", "table7")}
    monkeypatch.setattr("repro.cli.EXPERIMENTS", fakes)
    return calls


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_requires_names(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])

    def test_all_experiments_registered(self):
        # Every paper table/figure plus the five ablations.
        assert len(EXPERIMENTS) == 19
        assert "headline" in EXPERIMENTS
        assert "ablation-window" in EXPERIMENTS


class TestMain:
    def test_list_exits_zero(self, fake_experiments, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig12" in out

    def test_run_selected(self, fake_experiments, capsys):
        assert main(["run", "fig12"]) == 0
        assert fake_experiments == ["fig12"]
        assert "fig12" in capsys.readouterr().out

    def test_run_all(self, fake_experiments):
        assert main(["run", "all"]) == 0
        assert sorted(fake_experiments) == ["fig12", "table7"]

    def test_unknown_experiment_errors(self, fake_experiments, capsys):
        assert main(["run", "nope"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_out_directory_written(self, fake_experiments, tmp_path):
        out = tmp_path / "results"
        assert main(["run", "fig12", "--out", str(out)]) == 0
        assert (out / "fig12.txt").exists()
        assert "fig12" in (out / "fig12.txt").read_text()


# -- the served settings --------------------------------------------------
def load_bench_workloads():
    """``bench/workloads.py`` by path: read only, stdlib imports only."""
    path = pathlib.Path(__file__).parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve it by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def parse_serve(*flags):
    return serve_config(build_parser().parse_args(["serve", *flags]))


class TestServeConfig:
    def test_unset_flags_keep_the_dataclass_defaults(self):
        assert parse_serve() == ServeConfig()

    def test_given_flags_reach_their_fields(self, tmp_path):
        config = parse_serve(
            "--port", "0", "--workers", "8", "--block-size", "16",
            "--interval-ms", "10", "--data-dir", str(tmp_path),
            "--fsync", "interval", "--snapshot-interval", "4",
        )
        assert (config.port, config.num_workers, config.block_size_target,
                config.block_interval_ms, config.data_dir) == (
            0, 8, 16, 10.0, str(tmp_path))
        assert config.storage == StorageConfig(
            fsync="interval", snapshot_interval_blocks=4
        )

    @pytest.mark.parametrize("flags", [
        ("--workers", "0"), ("--workers", "-2"), ("--block-size", "0"),
    ])
    def test_refused_values_fail_before_serving(self, flags):
        with pytest.raises(ValueError):
            parse_serve(*flags)

    @pytest.mark.parametrize("name", [
        "transfer", "contracts", "hotburst_packed", "reads_beside_writes",
    ])
    def test_the_benchmark_server_argv_parses(self, name, tmp_path):
        """The benchmark boots ``repro serve --port 0 --data-dir D`` with
        its common and per-workload flags: a pruned flag fails here."""
        workloads = load_bench_workloads()
        workload = workloads.WORKLOADS[name]
        config = parse_serve(
            "--port", "0", "--data-dir", str(tmp_path),
            *workloads.COMMON_FLAGS, *workload.server_flags,
        )
        assert config.storage.fsync == "always"
        assert config.data_dir == str(tmp_path) and config.port == 0
        if name != "hotburst_packed":
            return
        assert (config.executor, config.packing, config.num_workers) == (
            "parallel", "conflict_aware", 2)
        policy = BlockBuilder(Node(), config).packing_policy
        assert policy.lane_depth == 64
