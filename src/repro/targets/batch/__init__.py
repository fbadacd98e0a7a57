"""Vectorized batch simulation kernels (opt-in ``run_batch`` capability).

``repro.targets.batch`` advances N injection runs in lockstep over numpy
arrays instead of N sequential Python tick loops: plant state, controller
state and monitor references live as ``(N,)`` tensors, bit flips are
applied as per-row XOR masks at per-row injection ticks, and the EA
checks evaluate as vectorized comparisons producing per-row detection
latencies.  The serial tick loop remains the oracle — the batch kernels
are pinned run-for-run against it by the differential harness in
``tests/targets/test_batch_equivalence.py``.

Nothing imports this package's ``__init__`` by name (each target
adapter imports its own kernel module, ``repro.targets.batch.arrestor``
or ``repro.targets.batch.tanklevel``, inside a method), so it is in no
target's import closure and neither target's run key hashes the
other's kernel (:mod:`repro.closure`).
"""
