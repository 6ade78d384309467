package metrics

import (
	"math/rand"

	"topocmp/internal/ball"
	"topocmp/internal/graph"
	"topocmp/internal/stats"
)

// The paper's footnote 22 lists two further metrics the authors computed
// ("the average path length between any two nodes in a ball of size n, and
// the expected max-flow between the center of a ball of size n and any node
// on the surface of the ball") that "do not contradict our findings but do
// not add to them either". Both are implemented here for completeness and
// for the ablation benches.

// BallPathLengthCurveWith computes the average pairwise shortest-path
// length of ball subgraphs as a function of ball size, sampling up to 24
// sources per ball. Balls grow on the engine's worker pool and their
// subgraphs come from the shared ball cache; the per-ball value does not
// depend on the center RNG, so the series is the same at every parallelism.
func BallPathLengthCurveWith(e *ball.Engine, cfg ball.Config) stats.Series {
	if cfg.MinBallSize == 0 {
		cfg.MinBallSize = 3
	}
	raw := e.BallPoints(cfg, 0, func(sub *graph.Graph, _ *rand.Rand) (float64, bool) {
		return AveragePathLength(sub, min(sub.NumNodes(), 24)), true
	})
	s := stats.Bucketize(raw, bucketRatio)
	s.Name = "ballpathlength"
	return s
}

// SurfaceMaxFlowCurveWith computes the expected unit-capacity max flow from
// a ball's center to nodes on its surface (nodes at exactly the ball
// radius), as a function of ball size, sampling flowSamples surface targets
// per ball (flowSamples <= 0 means 8). Balls, subgraphs and BFS passes come
// from the engine's shared caches, the Dinic solver and surface buffer come
// from the pooled per-worker kernel bundle, and each center samples surface
// targets with an RNG derived from seed+centerIndex, so the series is
// bit-identical at every engine parallelism.
func SurfaceMaxFlowCurveWith(e *ball.Engine, cfg ball.Config, flowSamples int, seed int64) stats.Series {
	if cfg.MinBallSize == 0 {
		cfg.MinBallSize = 3
	}
	if flowSamples <= 0 {
		flowSamples = 8
	}
	raw := e.BallPointsKernels(cfg, seed,
		func(sub *graph.Graph, radius int, rng *rand.Rand, k *ball.Kernels) (float64, bool) {
			k.BFS.BFS(sub, 0)
			k.Ints = k.Ints[:0]
			for v := int32(0); v < int32(sub.NumNodes()); v++ {
				if int(k.BFS.Dist(v)) == radius {
					k.Ints = append(k.Ints, v)
				}
			}
			surface := k.Ints
			if len(surface) == 0 {
				return 0, false
			}
			k.Flow.Reset(sub)
			total, samples := 0.0, 0
			for i := 0; i < flowSamples && i < len(surface); i++ {
				t := surface[rng.Intn(len(surface))]
				total += float64(k.Flow.MaxFlow(0, t))
				samples++
			}
			return total / float64(samples), true
		})
	s := stats.Bucketize(raw, bucketRatio)
	s.Name = "surfacemaxflow"
	return s
}
