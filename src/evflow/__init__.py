"""Event-aware interprocedural dataflow analysis.

Builds a supergraph with an event-loop node for programs in the EVL
mini-language, solves a client dataflow problem once as a two-phase
value propagation whose lattice tracks per-handler event state, reads
the plain exploded-supergraph reachability result off the same solve,
and filters out facts that are only reachable along impossible handler
orderings.
"""

__version__ = "0.1.0"

from .eventmodel import EventModel
from .lang import parse, parse_files
from .transform import analyze_event_aware

__all__ = ["EventModel", "analyze_event_aware", "parse", "parse_files",
           "__version__"]
