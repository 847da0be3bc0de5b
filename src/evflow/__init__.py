"""Event-aware interprocedural dataflow analysis.

Builds a supergraph with an event-loop node for programs in the EVL
mini-language, solves a client dataflow problem once as a two-phase
value propagation whose lattice tracks per-handler event state, reads
the plain exploded-supergraph reachability result off the same solve,
and filters out facts that are only reachable along impossible handler
orderings.
"""
