package metrics

import (
	"topocmp/internal/ball"
	"topocmp/internal/graph"
)

// SubgraphDistortionScalar and SubgraphDistortionBitParallel force the
// center election's betweenness route, so external tests can pin the two
// routes byte-identical; production calls route by the diameter probe.
func SubgraphDistortionScalar(sub *graph.Graph, roots int, k *ball.Kernels) float64 {
	return subgraphDistortion(sub, roots, betweennessScalar, k)
}

func SubgraphDistortionBitParallel(sub *graph.Graph, roots int, k *ball.Kernels) float64 {
	return subgraphDistortion(sub, roots, betweennessBitParallel, k)
}
