"""The benchmark's workloads and the scales they run at.

Pure data, shared by the orchestrator (``run.py``, which never imports
the simulator) and the per-iteration child (``child.py``).
"""

SPREAD_MIXES = ("mix0", "mix3", "mix6")

#: Every workload is one client that submits a figure grid and waits
#: for it.  ``figures`` are run in order through the named figure
#: specs; ``jobs`` is the grid's worker count; ``observe`` turns stall
#: accounting on (``repro figref --emit-stats``).
WORKLOADS = {
    "figref-observed": dict(kind="cold", figures=("figref",), jobs=1,
                            observe=True),
    "fig13-jobs2": dict(kind="cold", figures=("fig13",), jobs=2,
                        observe=False),
    "store-warm": dict(kind="warm",
                       figures=("fig12", "fig13", "fig14", "fig15",
                                "fig16", "figref"),
                       jobs=1, fill_jobs=2, observe=False),
}

#: store-warm starts this many warm interpreters in turn over the
#: run's one filled store; ``setup_s`` is the median of their start-ups.
WARM_SETUPS = 7

#: Per-scale inputs: (accesses per core, mixes).  ``bench`` is what the
#: benchmark measures; ``tiny`` only exercises the plumbing (self-test).
#: The cold grids run below the CLI's 1500 accesses/core: their in-loop
#: layers keep their share of the time within 3 points (README, Scale).
#: A stored result's read-latency histogram grows with the accesses, and
#: with it the share of store reads in a warm pass, so store-warm uses
#: 400 accesses/core on one mix to keep its fill affordable.
SCALES = {
    "bench": {
        "figref-observed": (100, SPREAD_MIXES),
        "fig13-jobs2": (160, SPREAD_MIXES),
        "store-warm": (400, ("mix0",)),
    },
    "tiny": {
        "figref-observed": (40, ("mix0",)),
        "fig13-jobs2": (40, ("mix0",)),
        "store-warm": (20, ("mix0",)),
    },
}

#: Environment per scale.  The tiny grids fall under run_grid's
#: serial-fallback cost gate, so the self-test opens it to keep the
#: pool path covered; at bench scale fig13-jobs2 passes the default gate.
SCALE_ENV = {"bench": {}, "tiny": {"REPRO_GRID_MIN_COST": "0"}}

#: ``--seed n`` simulates trace seed ``n``.  These seeds have pinned
#: output digests in ``pins.json``; any other seed's outputs are checked
#: for equality across the run's iterations and, through the
#: cross-check at ``pinned_settings()``, against the repository's pins.
PINNED_SEEDS = (0, 1, 2)
