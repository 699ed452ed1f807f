#!/usr/bin/env python3
"""Inside the hotspot optimizer: what the idle slice buys you.

Profiles TetherToken the way the MTPU does during the block interval
(paper section 3.4), prints the collected Contract Table entry for
``transfer`` — chunk boundaries, constant instructions, prefetchable
accesses, on-path bytecode fraction — then ablates each optimization to
show its individual contribution to execution cycles.

Run:  python examples/hotspot_tuning.py
"""

from repro import build_deployment
from repro.chain.dag import discover_access_sets
from repro.core.hotspot import HotspotOptimizer, find_chunks
from repro.core.mtpu import MTPUExecutor, PUConfig
from repro.crypto import selector
from repro.evm import EVM, Tracer
from repro.workload import all_entry_function_calls


def cycles_with(artifacts, optimizer=None) -> int:
    executor = MTPUExecutor(
        artifacts, num_pus=1, pu_config=PUConfig(),
        hotspot_optimizer=optimizer,
    )
    pu = executor.pus[0]
    return sum(
        executor.time_on(pu, index).cycles
        for index in range(len(artifacts))
    )


def build_optimizer(deployment, samples, **toggles) -> HotspotOptimizer:
    optimizer = HotspotOptimizer(deployment.state, **toggles)
    optimizer.optimize_contract(
        deployment.address_of("TetherToken"), samples
    )
    return optimizer


def main() -> None:
    deployment = build_deployment()
    address = deployment.address_of("TetherToken")
    samples = all_entry_function_calls(deployment, "TetherToken", seed=3)
    workload = all_entry_function_calls(
        deployment, "TetherToken", seed=4, per_function=4
    )

    print("== profiling TetherToken in the idle slice ==")
    optimizer = build_optimizer(deployment, samples)
    transfer_selector = selector("transfer(address,uint256)")
    profile = optimizer.contract_table.get(address, transfer_selector)
    print(f"contract table entries: {len(optimizer.contract_table)}")
    print("\nContract Table entry (TetherToken, transfer):")
    print(f"  samples profiled        : {profile.samples}")
    print(f"  on-path bytecode        : {profile.on_path_fraction:.1%} "
          "(paper: 8.2% for Tether.transfer)")
    print(f"  constant instructions   : "
          f"{len(profile.analysis.eliminable_pcs)} eliminated pcs")
    print(f"  constants table         : "
          f"{len(profile.analysis.constants)} separated operands")
    print(f"  prefetchable accesses   : "
          f"{len(profile.analysis.prefetch_pcs)} "
          "(fixed-key SLOAD/BALANCE)")

    # Show the chunk structure on a live trace (paper Fig. 10b).
    tx = workload[-1]
    tracer = Tracer()
    EVM(deployment.state.copy(), tracer=tracer).execute_transaction(tx)
    spans = find_chunks(tracer.steps, address)
    print("\nchunk boundaries on a live trace "
          f"({tx.tags['signature']}):")
    print(f"  Compare chunk: steps 0..{spans.compare_end} "
          "(selector dispatch — pre-executable)")
    if spans.check_end > spans.compare_end:
        print(f"  Check chunk  : steps {spans.compare_end + 1}.."
              f"{spans.check_end} (CALLVALUE guard — pre-executable)")
    print(f"  Execute/End  : steps {spans.preexec_end + 1}.."
          f"{len(tracer.steps) - 1}")

    print("\n== ablation: cycles for a 4x-per-function batch ==")
    artifacts = discover_access_sets(
        workload, deployment.state.copy(), trace=True
    )
    plain = cycles_with(artifacts)
    rows = [("no hotspot optimization", plain, None)]
    configs = [
        ("chunk pre-execution only", dict(enable_elimination=False,
                                          enable_prefetch=False,
                                          enable_chunk_loading=False)),
        ("+ chunked bytecode loading", dict(enable_elimination=False,
                                            enable_prefetch=False)),
        ("+ data prefetching", dict(enable_elimination=False)),
        ("+ constant elimination (full)", dict()),
    ]
    for label, toggles in configs:
        optimizer = build_optimizer(deployment, samples, **toggles)
        rows.append((label, cycles_with(artifacts, optimizer), None))
    for label, cycles, _ in rows:
        print(f"  {label:32s}: {cycles:>7} cycles "
              f"({plain / cycles:.2f}x)")


if __name__ == "__main__":
    main()
