// Package metrics implements the paper's eight topology metrics: the three
// basic discriminators (expansion, resilience, distortion — §3.2.1) and the
// five auxiliary metrics of Appendix B (eigenvalue spectrum, node-diameter
// distribution, vertex cover, biconnectivity, attack/error tolerance), plus
// the Bu–Towsley clustering coefficient used in §4.4 and footnote 22's ball
// path length and surface max-flow.
//
// Every ball-based metric follows the paper's ball-growing technique and
// has exactly one entry point, an …With function over a *ball.Engine: the
// engine grows the balls on its worker pool, caches each center's profile
// and each ball's induced subgraph for every metric that asks, and leases
// pooled per-worker kernels (partition workspaces, Dinic solvers, Brandes
// strips). A caller that wants a one-off series builds ball.NewEngine(g, 1)
// and passes it; a suite shares one engine across all metrics. Whole-graph
// metrics (eigenvalues, tolerance, clustering coefficient, path length)
// take the graph directly.
package metrics

import (
	"topocmp/internal/ball"
	"topocmp/internal/stats"
)

// ExpansionWith computes E(h) over an engine: the average fraction of the
// graph's nodes that fall within a ball of radius h, averaged over (sampled)
// centers. This is the reachability-style metric of Phillips et al.
// normalized by graph size so that differently sized graphs are comparable
// (§3.2.1). Expansion only needs ball sizes, so the per-center passes run
// through the engine's bit-parallel distance kernel (up to 64 centers per
// CSR sweep) and land in its cum profile cache, where metrics sampling the
// same centers reuse them. Cached full profiles satisfy the request
// directly; the series is byte-identical to the scalar per-center path.
func ExpansionWith(e *ball.Engine, cfg ball.Config) stats.Series {
	g := e.Graph()
	n := g.NumNodes()
	out := stats.Series{Name: "expansion"}
	if n == 0 {
		return out
	}
	centers := ball.Centers(g, &cfg)
	profiles := e.CumProfiles(centers)
	maxEcc := 0
	for _, p := range profiles {
		if ecc := p.Eccentricity(); ecc > maxEcc {
			maxEcc = ecc
		}
	}
	// Sum |ball(center, h)| over centers (in center order, so the float
	// accumulation is deterministic), saturating centers of smaller
	// eccentricity. Each E(h) is the mean over sampled centers of the
	// per-center reach fraction, so it carries a finite-population-corrected
	// standard error over those per-center fractions: zero when every node
	// served as a center, shrinking as the sample budget grows.
	total := float64(n)
	fracs := make([]float64, len(profiles))
	for h := 0; h <= maxEcc; h++ {
		sum := 0.0
		for i, p := range profiles {
			f := float64(p.Size(h))
			sum += f
			fracs[i] = f / total
		}
		out.AddWithErr(float64(h), sum/float64(len(profiles))/total,
			stats.MeanStdErrFPC(fracs, n))
	}
	return out
}
