"""Critical-window structure of random graphs with constrained degrees.

The Python API is the modules, one per pipeline stage, and importing the
package loads none of them: ``degset`` (degree sets), ``critical`` (critical
point and window constants), ``asymptotics`` (window predictions),
``sampler`` (exact uniform sampling), ``graph`` and ``stats`` (kernel
decomposition and complex-part statistics), ``harness`` (seeded sweeps and
their comparison with theory), ``verify`` (invariant suite), ``cli`` (the
``degwin`` command) and ``errors``.
"""
