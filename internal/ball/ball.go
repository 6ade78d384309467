// Package ball implements the paper's ball-growing technique (§3.2.1): all
// metrics other than expansion are computed on the subgraphs induced by
// balls of increasing radius around (sampled) nodes, so that graphs of very
// different sizes can be compared at the same scale.
package ball

import (
	"math/rand"
	"sort"

	"topocmp/internal/graph"
)

// Config controls how balls are grown.
type Config struct {
	// MaxSources caps how many ball centers are sampled; 0 means every
	// node. The paper samples centers for large graphs to keep computation
	// times reasonable (its footnotes 12 and 14).
	MaxSources int
	// MaxRadius stops growing at this radius; 0 grows to the center's
	// eccentricity.
	MaxRadius int
	// MaxBallSize skips balls larger than this (0 = unlimited); expensive
	// per-ball metrics use it to bound their cost.
	MaxBallSize int
	// MinBallSize skips balls smaller than this; avoids noise from trivial
	// subgraphs in per-ball metrics.
	MinBallSize int
	// Rand drives center sampling; nil uses a fixed seed.
	Rand *rand.Rand
}

func (c *Config) defaults() {
	if c.Rand == nil {
		c.Rand = rand.New(rand.NewSource(1))
	}
}

// Centers returns the sampled ball centers for the configuration.
func Centers(g *graph.Graph, cfg *Config) []int32 {
	cfg.defaults()
	n := g.NumNodes()
	if cfg.MaxSources <= 0 || cfg.MaxSources >= n {
		all := make([]int32, n)
		for i := range all {
			all[i] = int32(i)
		}
		return all
	}
	perm := cfg.Rand.Perm(n)
	out := make([]int32, cfg.MaxSources)
	for i := range out {
		out[i] = int32(perm[i])
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
