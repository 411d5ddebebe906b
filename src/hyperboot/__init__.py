"""Bootstrap percolation laboratory for random hypergraphs.

Structure, sampling and closure of r-uniform hypergraphs, built through one
constructor, Hypergraph.from_rows; the randomized revelation processes that
drive infection rounds; configuration censuses; the closed-form trajectory
and threshold layer; and a reproducible experiment harness with a command
line front end.
"""

__version__ = "0.1.0"

from .hypergraph import Hypergraph, check_well_behaved

__all__ = ["Hypergraph", "check_well_behaved", "__version__"]
