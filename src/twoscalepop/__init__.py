"""Two-time-scale stage-structured metapopulations: reduction and analysis.

The package builds discrete population models in which dispersal acts k
times for every demographic step, reduces them to aggregated models via
the Perron projections of the dispersal matrices, and verifies how the
complete and reduced dynamics relate (trapping regions, attraction,
instability, spectral links).  Survival can act at the slow time scale
or be rescaled onto the fast one; the two choices are exposed as model
variants and can disagree about persistence.

Import what you use from its submodule (``twoscalepop.threestage``,
``twoscalepop.aggregation``, ...); the package root re-exports nothing.
"""

__version__ = "0.1.0"
