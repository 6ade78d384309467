package experiments

import (
	"math/rand"

	"topocmp/internal/ball"
	"topocmp/internal/bgp"
	"topocmp/internal/internetsim"
	"topocmp/internal/metrics"
	"topocmp/internal/stats"
)

// ExtrasNames are the networks the beyond-the-paper artifacts sample: one
// per category plus the PLRG.
var ExtrasNames = []string{"AS", "PLRG", "Mesh", "Tree"}

// ExtrasRow is one network's line of the extras table: small-world
// coefficients and the Weibull tail fit of its degree CCDF.
type ExtrasRow struct {
	Name       string
	Sigma      float64
	Clustering float64
	PathLength float64
	WeibullK   float64
	WeibullR2  float64
}

// ExtrasData holds the beyond-the-paper artifacts: footnote 22's two
// metrics (ball path length, surface max-flow), hop plots, the small-world
// and Weibull-tail table, the AS size/degree coupling and the BGP
// vantage-coverage curve. Everything is series and scalars, so the whole
// struct cabins in one cache entry and a warm run renders it graph-free.
type ExtrasData struct {
	PathLength []stats.Series
	MaxFlow    []stats.Series
	Hop        []stats.Series
	Rows       []ExtrasRow
	// SizeDegreeCorrelation is the AS size/degree coupling of
	// Tangmunarunkit et al. 2001 on the ground-truth networks.
	SizeDegreeCorrelation float64
	// Coverage is the BGP vantage-coverage curve (Chang et al. 2002).
	Coverage stats.Series
}

// Extras computes (or restores) the beyond-the-paper artifacts.
func (r *Runner) Extras() ExtrasData {
	return cachedArtifact(r, "extras", r.computeExtras)
}

func (r *Runner) computeExtras() ExtrasData {
	var e ExtrasData
	seed := r.Cfg.Suite.Seed
	for _, name := range ExtrasNames {
		g := r.Network(name).Graph
		eng := ball.NewEngine(g, 1)
		cfg := func() ball.Config {
			return ball.Config{MaxSources: r.Cfg.Suite.Sources,
				MaxBallSize: r.Cfg.Suite.MaxBallSize,
				Rand:        rand.New(rand.NewSource(seed))}
		}
		s := metrics.BallPathLengthCurveWith(eng, cfg())
		s.Name = name
		e.PathLength = append(e.PathLength, s)
		f := metrics.SurfaceMaxFlowCurveWith(eng, cfg(), 6, seed)
		f.Name = name
		e.MaxFlow = append(e.MaxFlow, f)
		h := metrics.HopPlot(g, 4*r.Cfg.Suite.Sources, rand.New(rand.NewSource(seed)))
		h.Name = name
		e.Hop = append(e.Hop, h)
	}
	for _, name := range ExtrasNames {
		g := r.Network(name).Graph
		sw := metrics.SmallWorldness(g, 2*r.Cfg.Suite.Sources)
		wb := stats.FitWeibullTail(stats.CCDF(g.Degrees()))
		e.Rows = append(e.Rows, ExtrasRow{
			Name: name, Sigma: sw.Sigma, Clustering: sw.Clustering,
			PathLength: sw.PathLength, WeibullK: wb.K, WeibullR2: wb.R2,
		})
	}
	ms := r.Measured()
	e.SizeDegreeCorrelation = internetsim.SizeDegreeData(ms.TruthAS, ms.TruthRL).Correlation()
	vantages := bgp.PickVantages(ms.TruthAS.Graph, 12, rand.New(rand.NewSource(seed)))
	e.Coverage = bgp.CoverageCurve(ms.TruthAS.Annotated, vantages)
	return e
}
