"""The benchmark's workloads: fixed CLI invocations, each run in a fresh
interpreter.

Each invocation has an id that names its reference CSV under
``reference/``.  Every workload leaves ``--jobs`` and ``--tol`` at their
defaults, so it does not depend on flags that may be removed later.
README.md in this directory says why each workload was chosen.
"""

WORKLOADS = {
    # About 90% of the time is mk.expand_mk; no quadrature, no eigen-solve.
    "mk-sweep": (
        ("sign-ghz-m16", ("sign-ghz", "--m", "16")),
        ("noise-sweep-m3-14", ("noise-sweep", "--m", "3:14:1", "--p", "0:0.12:0.01")),
        ("root-max-m14", ("root-max", "--m-max", "14")),
    ),
    # About 70% of the time is numerics.integrate_segments: many segments per
    # call in psi3-curve, one segment per call in cat-vw.  The cat-vw grid is
    # finer than the README's so that its time can be resolved.
    "root-curves": (
        ("psi3-curve-a0.5-3", ("psi3-curve", "--alpha", "0.5:3.0:0.05")),
        ("cat-vw-a0.5-6", ("cat-vw", "--alpha", "0.5:6:0.05")),
        ("prep-fidelity-a1-4", ("prep-fidelity", "--alpha", "1:4:1")),
    ),
    # Non-negative projected ascent and bell_matrix: the cold g-table at
    # d = 200, the MK tuple loop at m = 10.  No quadrature.
    "optimizer": (
        ("sign-optimize-m2-d30-nonneg", ("sign-optimize", "--m", "2", "--d", "30", "--constraint", "nonneg")),
        ("sign-optimize-m3-d60-nonneg", ("sign-optimize", "--m", "3", "--d", "60", "--constraint", "nonneg")),
        ("sign-optimize-m3-d200", ("sign-optimize", "--m", "3", "--d", "200")),
        ("sign-optimize-m10-d60", ("sign-optimize", "--m", "10", "--d", "60")),
    ),
}

# CLI commands in workload order, for the per-command times.
COMMANDS = tuple(dict.fromkeys(argv[0] for runs in WORKLOADS.values() for _, argv in runs))
