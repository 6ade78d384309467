package hierarchy

import (
	"topocmp/internal/graph"
)

// TraversalSetSizes computes, for every edge, the number of distinct node
// pairs whose shortest-path traffic crosses it (each unordered pair counted
// once per direction swept). The paper rejects this "most natural measure"
// of hierarchy because access links score N-1 — near the top — even though
// removing a single node voids their whole set; TestAccessLinkParadox
// demonstrates exactly that, and the weighted vertex cover of LinkValues is
// the fix. Exposed for completeness and for that demonstration.
//
// It runs LinkValues' sweeps and counts each edge's entries instead of
// covering them: the walk emits an edge at most once per pair.
func TraversalSetSizes(g *graph.Graph, opts Options) []int {
	opts.defaults()
	sources := sampleSources(g.NumNodes(), opts)
	run := sweepLinks(g, sources, &opts)
	defer run.release()
	return run.groupSizes(g.NumEdges())
}
