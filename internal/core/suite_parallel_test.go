package core

import (
	"math"
	"reflect"
	"runtime"
	"testing"
)

// TestRunSuiteParallelMatchesSequential is the ball-engine determinism
// contract: a parallel suite run must be bit-identical to the sequential
// one, because centers are assembled in order and every per-center RNG is
// derived from seed+index rather than from a shared stream.
func TestRunSuiteParallelMatchesSequential(t *testing.T) {
	ms := BuildMeasured(smallSet()) // AS carries policy annotations: covers every stage
	seqOpts := quickOpts()
	seqOpts.Parallelism = 1
	parOpts := quickOpts()
	parOpts.Parallelism = runtime.NumCPU()
	if parOpts.Parallelism < 4 {
		// Even on small machines, exercise real interleaving.
		parOpts.Parallelism = 4
	}
	seq := RunSuite(ms.AS, seqOpts)
	par := RunSuite(ms.AS, parOpts)

	for _, c := range []struct {
		name     string
		seq, par any
	}{
		{"Expansion", seq.Expansion, par.Expansion},
		{"Resilience", seq.Resilience, par.Resilience},
		{"Distortion", seq.Distortion, par.Distortion},
		{"Eigenvalues", seq.Eigenvalues, par.Eigenvalues},
		{"Eccentricity", seq.Eccentricity, par.Eccentricity},
		{"VertexCover", seq.VertexCover, par.VertexCover},
		{"Biconnectivity", seq.Biconnectivity, par.Biconnectivity},
		{"Attack", seq.Attack, par.Attack},
		{"Error", seq.Error, par.Error},
		{"Clustering", seq.Clustering, par.Clustering},
		{"WholeGraphClustering", seq.WholeGraphClustering, par.WholeGraphClustering},
		{"LinkValues", seq.LinkValues, par.LinkValues},
		{"PolicyExpansion", seq.PolicyExpansion, par.PolicyExpansion},
		{"PolicyResilience", seq.PolicyResilience, par.PolicyResilience},
		{"PolicyDistortion", seq.PolicyDistortion, par.PolicyDistortion},
		{"PolicyLinkValues", seq.PolicyLinkValues, par.PolicyLinkValues},
	} {
		if !reflect.DeepEqual(c.seq, c.par) {
			t.Errorf("%s differs between Parallelism=1 and Parallelism=%d",
				c.name, parOpts.Parallelism)
		}
	}
}

// TestRunSuiteRaceShort is a deliberately small full-suite run meant for the
// tier-2 `go test -race ./internal/core ./internal/ball` check: it pushes a
// policy-annotated network through every concurrent stage at Parallelism 4
// so the race detector sees the engine's profile and subgraph caches under
// contention.
func TestRunSuiteRaceShort(t *testing.T) {
	set := smallSet()
	set.Scale = 0.06
	ms := BuildMeasured(set)
	opts := SuiteOptions{
		Sources:     6,
		MaxBallSize: 400,
		EigenRank:   8,
		LinkSources: 96,
		Seed:        1,
		Parallelism: 4,
	}
	res := RunSuite(ms.AS, opts)
	if res.Expansion.Len() == 0 || res.LinkValues == nil {
		t.Fatal("race-mode suite produced empty results")
	}
}

// TestSuiteOptionsValidate pins the tolerance-fraction range check that
// keeps a malformed request from reaching the removal curves.
func TestSuiteOptionsValidate(t *testing.T) {
	for _, fr := range [][]float64{nil, {0, 0.5, 1}} {
		if err := (SuiteOptions{ToleranceFractions: fr}).Validate(); err != nil {
			t.Errorf("%v: unexpected error %v", fr, err)
		}
	}
	for _, bad := range []float64{1.5, -0.1, math.NaN(), math.Inf(1)} {
		if err := (SuiteOptions{ToleranceFractions: []float64{0, bad}}).Validate(); err == nil {
			t.Errorf("%v: accepted", bad)
		}
	}
}
