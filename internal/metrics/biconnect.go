package metrics

import (
	"math/rand"

	"topocmp/internal/ball"
	"topocmp/internal/graph"
	"topocmp/internal/stats"
)

// BiconnectedComponents counts the biconnected components of g with an
// iterative Hopcroft–Tarjan edge-stack algorithm. Isolated nodes contribute
// no component; a bridge edge is its own component.
func BiconnectedComponents(g *graph.Graph) int {
	n := g.NumNodes()
	disc := make([]int32, n)
	low := make([]int32, n)
	parent := make([]int32, n)
	childIdx := make([]int, n)
	for i := range disc {
		disc[i] = -1
		parent[i] = -1
	}
	count := 0
	timer := int32(0)
	var stack []int32
	for s := int32(0); s < int32(n); s++ {
		if disc[s] != -1 || g.Degree(s) == 0 {
			continue
		}
		stack = stack[:0]
		stack = append(stack, s)
		disc[s] = timer
		low[s] = timer
		timer++
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			nb := g.Neighbors(u)
			if childIdx[u] < len(nb) {
				v := nb[childIdx[u]]
				childIdx[u]++
				if disc[v] == -1 {
					parent[v] = u
					disc[v] = timer
					low[v] = timer
					timer++
					stack = append(stack, v)
				} else if v != parent[u] && disc[v] < disc[u] {
					if disc[v] < low[u] {
						low[u] = disc[v]
					}
				}
			} else {
				stack = stack[:len(stack)-1]
				if p := parent[u]; p != -1 {
					if low[u] < low[p] {
						low[p] = low[u]
					}
					if low[u] >= disc[p] {
						// u's subtree hangs off articulation point p: one
						// biconnected component.
						count++
					}
				}
			}
		}
	}
	return count
}

// BiconnectivityCurveWith computes the number of biconnected components
// within ball subgraphs as a function of ball size (Figure 8(d-f)). Balls
// grow on the engine's worker pool and their subgraphs come from the shared
// ball cache.
func BiconnectivityCurveWith(e *ball.Engine, cfg ball.Config) stats.Series {
	if cfg.MinBallSize == 0 {
		cfg.MinBallSize = 2
	}
	raw := e.BallPoints(cfg, 0, func(sub *graph.Graph, _ *rand.Rand) (float64, bool) {
		return float64(BiconnectedComponents(sub)), true
	})
	s := stats.Bucketize(raw, bucketRatio)
	s.Name = "biconnectivity"
	return s
}
