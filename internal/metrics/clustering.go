package metrics

import (
	"math/rand"

	"topocmp/internal/ball"
	"topocmp/internal/graph"
	"topocmp/internal/stats"
)

// ClusteringCoefficient computes the Watts–Strogatz clustering coefficient
// used by Bu and Towsley: the average over nodes of degree >= 2 of the
// fraction of neighbor pairs that are themselves linked.
func ClusteringCoefficient(g *graph.Graph) float64 {
	n := g.NumNodes()
	total, counted := 0.0, 0
	for v := int32(0); v < int32(n); v++ {
		nb := g.Neighbors(v)
		d := len(nb)
		if d < 2 {
			continue
		}
		links := 0
		for i := 0; i < d; i++ {
			for j := i + 1; j < d; j++ {
				if g.HasEdge(nb[i], nb[j]) {
					links++
				}
			}
		}
		total += 2 * float64(links) / float64(d*(d-1))
		counted++
	}
	if counted == 0 {
		return 0
	}
	return total / float64(counted)
}

// ClusteringCurveWith computes the clustering coefficient of ball subgraphs
// as a function of ball size, the ball-growing form of the clustering
// metric the paper reports in Figure 10 and §4.4. Balls grow on the
// engine's worker pool and their subgraphs come from the shared ball cache.
func ClusteringCurveWith(e *ball.Engine, cfg ball.Config) stats.Series {
	if cfg.MinBallSize == 0 {
		cfg.MinBallSize = 3
	}
	raw := e.BallPoints(cfg, 0, func(sub *graph.Graph, _ *rand.Rand) (float64, bool) {
		return ClusteringCoefficient(sub), true
	})
	s := stats.Bucketize(raw, bucketRatio)
	s.Name = "clustering"
	return s
}
