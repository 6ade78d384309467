package metrics

import (
	"math/rand"

	"topocmp/internal/ball"
	"topocmp/internal/graph"
	"topocmp/internal/partition"
	"topocmp/internal/stats"
)

// ResilienceWith computes R(n) over an engine: the average minimum cut-set
// size of a balanced bipartition of the subgraph inside an n-node ball
// (§3.2.1). The metric is keyed by ball *size*, not radius, to factor out
// expansion differences. Raw (size, cut) samples are averaged into geometric
// buckets.
//
// Seed contract: each center partitions its balls with an RNG derived from
// seed+centerIndex (popts.Rand is ignored), which keeps the series
// bit-identical at every engine parallelism. A caller that holds an RNG
// rather than a seed draws the seed from it once (rng.Int63()); the fixed
// seed 1 is the historical default. Cut computations run on the engine's
// pooled per-worker partition workspaces, so steady-state partitioning does
// not allocate.
func ResilienceWith(e *ball.Engine, cfg ball.Config, popts partition.Options, seed int64) stats.Series {
	if cfg.MinBallSize == 0 {
		cfg.MinBallSize = 2
	}
	raw := e.BallPointsKernels(cfg, seed,
		func(sub *graph.Graph, _ int, rng *rand.Rand, k *ball.Kernels) (float64, bool) {
			o := popts
			o.Rand = rng
			return float64(k.Part.CutSize(sub, o)), true
		})
	s := stats.Bucketize(raw, bucketRatio)
	s.Name = "resilience"
	return s
}

// bucketRatio groups ball sizes into geometric buckets roughly matching the
// paper's log-scale sampling of ball sizes.
const bucketRatio = 1.45
