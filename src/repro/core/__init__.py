"""The paper's contribution: MTPU microarchitecture, spatio-temporal
scheduling, and hotspot contract optimization. The verifying node that
wires them together is the ``mtpu`` engine of
:meth:`repro.chain.node.Node.execute_block`."""
