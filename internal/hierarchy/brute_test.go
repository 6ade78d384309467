package hierarchy

import (
	"math"
	"math/rand"
	"testing"

	"topocmp/internal/gen/canonical"
	"topocmp/internal/graph"
)

// bruteLinkValues recomputes link values by explicit pair enumeration: for
// every ordered pair (u,t) and edge (a,b) on u's shortest-path DAG toward
// t, the fraction of u→t shortest paths through the edge is
// sigma_u(a)*sigma_t(b)/sigma_u(t). This is an independent reference for
// the sweep implementation and its entry store.
func bruteLinkValues(g *graph.Graph) *Result {
	edges := g.Edges()
	ix := graph.NewEdgeIndex(g)
	n := g.NumNodes()
	dists := make([][]int32, n)
	sigmas := make([][]float64, n)
	for v := int32(0); v < int32(n); v++ {
		dists[v], sigmas[v], _ = g.BFSCounts(v)
	}
	var entries []pairEntry
	for u := int32(0); u < int32(n); u++ {
		for t := int32(0); t < int32(n); t++ {
			if u == t || dists[u][t] == graph.Unreached {
				continue
			}
			for _, e := range edges {
				for _, dir := range [2][2]int32{{e.U, e.V}, {e.V, e.U}} {
					a, b := dir[0], dir[1]
					if dists[u][a]+1+dists[t][b] == dists[u][t] &&
						dists[u][a]+1 == dists[u][b] {
						w := sigmas[u][a] * sigmas[t][b] / sigmas[u][t]
						entries = append(entries, pairEntry{
							edge: uint32(ix.ID(a, b)), u: u, t: t, w: w,
						})
					}
				}
			}
		}
	}
	return &Result{Edges: edges, Values: bruteCoverValues(len(edges), n, entries), N: n}
}

// pairEntry is one (source, target) pair crossing an edge, with the edge
// named explicitly and node ids for the endpoints.
type pairEntry struct {
	edge uint32
	u, t int32
	w    float64
}

// bruteCoverValues groups a (u, t)-ascending entry list by edge with one
// global stable counting sort — so every group lands in canonical (edge,
// u, t) order — and covers each group with the production edgeCover. This
// is the design the bucketed entry store replaced, kept as its oracle.
func bruteCoverValues(numEdges, numNodes int, entries []pairEntry) []float64 {
	off := make([]int, numEdges+1)
	for _, p := range entries {
		off[p.edge+1]++
	}
	for e := 0; e < numEdges; e++ {
		off[e+1] += off[e]
	}
	cur := append([]int(nil), off[:numEdges]...)
	sorted := make([]coverEntry, len(entries))
	for _, p := range entries {
		sorted[cur[p.edge]] = coverEntry{u: p.u, t: p.t, w: p.w}
		cur[p.edge]++
	}
	cs := &coverScratch{}
	cs.ensure(numNodes)
	values := make([]float64, numEdges)
	for e := 0; e < numEdges; e++ {
		if group := sorted[off[e]:off[e+1]]; len(group) > 0 {
			values[e] = edgeCover(group, cs)
		}
	}
	return values
}

func TestSweepMatchesBruteForce(t *testing.T) {
	cases := []*graph.Graph{
		canonical.Linear(7),
		canonical.Mesh(4, 5),
		canonical.Tree(2, 3),
		canonical.Complete(5),
		canonical.Random(rand.New(rand.NewSource(1)), 25, 0.2),
	}
	for ci, g := range cases {
		want := bruteLinkValues(g)
		got := LinkValues(g, Options{})
		for i := range want.Values {
			if math.Abs(want.Values[i]-got.Values[i]) > 1e-6 {
				t.Fatalf("case %d edge %v: sweep %v vs brute %v",
					ci, want.Edges[i], got.Values[i], want.Values[i])
			}
		}
	}
}
