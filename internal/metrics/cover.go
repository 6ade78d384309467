package metrics

import (
	"math/rand"

	"topocmp/internal/ball"
	"topocmp/internal/graph"
	"topocmp/internal/stats"
)

// VertexCover returns an approximate minimum vertex cover of g: the better
// of the maximal-matching 2-approximation and a greedy max-degree cover.
// The size of this set is the paper's vertex-cover metric (Figure 8(a-c)).
func VertexCover(g *graph.Graph) []int32 {
	m := matchingCover(g)
	gr := greedyCover(g)
	if len(gr) < len(m) {
		return gr
	}
	return m
}

// VertexCoverCurveWith computes the vertex-cover size of ball subgraphs as
// a function of ball size, the ball-growing form used in Figure 8(a-c).
// Balls grow on the engine's worker pool and their subgraphs come from the
// shared ball cache.
func VertexCoverCurveWith(e *ball.Engine, cfg ball.Config) stats.Series {
	if cfg.MinBallSize == 0 {
		cfg.MinBallSize = 2
	}
	raw := e.BallPoints(cfg, 0, func(sub *graph.Graph, _ *rand.Rand) (float64, bool) {
		return float64(len(VertexCover(sub))), true
	})
	s := stats.Bucketize(raw, bucketRatio)
	s.Name = "vertexcover"
	return s
}

// matchingCover takes both endpoints of a greedily built maximal matching —
// the classical 2-approximation.
func matchingCover(g *graph.Graph) []int32 {
	n := g.NumNodes()
	used := make([]bool, n)
	var cover []int32
	for u := int32(0); u < int32(n); u++ {
		if used[u] {
			continue
		}
		for _, v := range g.Neighbors(u) {
			if !used[v] && v != u {
				used[u] = true
				used[v] = true
				cover = append(cover, u, v)
				break
			}
		}
	}
	return cover
}

// greedyCover repeatedly takes the node with the most uncovered incident
// edges, using a lazily updated max-heap. The heap is a typed port of
// container/heap's sift order (same Init / Push / Pop element movement), so
// the cover comes out byte-identical to the historical boxed version while
// the hot loop stays free of per-element interface allocations.
func greedyCover(g *graph.Graph) []int32 {
	n := g.NumNodes()
	uncov := make([]int, n) // uncovered incident edges per node
	inCover := make([]bool, n)
	h := make([]coverCand, 0, n)
	for v := int32(0); v < int32(n); v++ {
		uncov[v] = g.Degree(v)
		if uncov[v] > 0 {
			h = append(h, coverCand{v, uncov[v]})
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		coverDown(h, i, len(h))
	}
	var cover []int32
	for len(h) > 0 {
		last := len(h) - 1
		h[0], h[last] = h[last], h[0]
		coverDown(h, 0, last)
		c := h[last]
		h = h[:last]
		u := c.v
		if inCover[u] || c.count != uncov[u] {
			continue // stale entry
		}
		if uncov[u] == 0 {
			break
		}
		inCover[u] = true
		cover = append(cover, u)
		uncov[u] = 0
		for _, v := range g.Neighbors(u) {
			if !inCover[v] && uncov[v] > 0 {
				uncov[v]--
				if uncov[v] > 0 {
					h = append(h, coverCand{v, uncov[v]})
					coverUp(h, len(h)-1)
				}
			}
		}
	}
	return cover
}

type coverCand struct {
	v     int32
	count int
}

// coverLess orders candidates by uncovered count descending, node id
// ascending — a strict total order, so heap pops are fully deterministic.
func coverLess(a, b coverCand) bool {
	if a.count != b.count {
		return a.count > b.count
	}
	return a.v < b.v
}

func coverUp(h []coverCand, j int) {
	for j > 0 {
		i := (j - 1) / 2
		if !coverLess(h[j], h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func coverDown(h []coverCand, i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && coverLess(h[j2], h[j1]) {
			j = j2
		}
		if !coverLess(h[j], h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// WeightedVertexCover computes a 2-approximate minimum weighted vertex
// cover of the pair graph given as edges over nodes with weights, using the
// local-ratio (primal-dual) rule: for each uncovered pair, pay the smaller
// residual weight on both endpoints; a node whose residual hits zero joins
// the cover. It returns the total original weight of the cover. This is the
// subroutine behind the paper's link values (§5).
func WeightedVertexCover(pairs [][2]int32, weight map[int32]float64) float64 {
	residual := make(map[int32]float64, len(weight))
	for v, w := range weight {
		residual[v] = w
	}
	inCover := make(map[int32]bool)
	for _, p := range pairs {
		u, v := p[0], p[1]
		if inCover[u] || inCover[v] {
			continue
		}
		ru, rv := residual[u], residual[v]
		m := ru
		if rv < m {
			m = rv
		}
		residual[u] = ru - m
		residual[v] = rv - m
		if residual[u] <= 1e-12 {
			inCover[u] = true
		}
		if residual[v] <= 1e-12 && v != u {
			inCover[v] = true
		}
	}
	total := 0.0
	for v := range inCover {
		total += weight[v]
	}
	return total
}
