package hierarchy_test

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"topocmp/internal/gen/plrg"
	"topocmp/internal/hierarchy"
)

// TestLinkValueRaceShort is the tier-2 race target for the sigma-batched
// link-value reroute: four sweep workers lease MSBFS workspaces from the
// shared pool and fill their entry stores concurrently, while sibling
// goroutines drive more LinkValues and TraversalSetSizes calls through the
// same pool. Every parallel result must stay bit-identical to the
// sequential scalar reference — the cover's per-bucket merge of the
// workers' entry chains is what makes that deterministic, and the race
// detector checks the leases and the shared chunk free list.
func TestLinkValueRaceShort(t *testing.T) {
	g := plrg.MustGenerate(rand.New(rand.NewSource(41)), plrg.Params{N: 900, Beta: 2.246})
	opts := func(mode hierarchy.SigmaMode, parallel int) hierarchy.Options {
		return hierarchy.Options{
			MaxSources:  96,
			Rand:        rand.New(rand.NewSource(9)),
			Parallelism: parallel,
			Sigma:       mode,
		}
	}
	want := hierarchy.LinkValues(g, opts(hierarchy.SigmaScalar, 1))
	wantTS := hierarchy.TraversalSetSizes(g, opts(hierarchy.SigmaScalar, 1))

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		mode := hierarchy.SigmaBatched
		if w%2 == 1 {
			mode = hierarchy.SigmaScalar
		}
		wg.Add(1)
		go func(mode hierarchy.SigmaMode) {
			defer wg.Done()
			for k := 0; k < 3; k++ {
				got := hierarchy.LinkValues(g, opts(mode, 4))
				if !reflect.DeepEqual(got.Values, want.Values) {
					t.Errorf("mode=%d: parallel link values differ from sequential scalar", mode)
					return
				}
			}
		}(mode)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < 3; k++ {
			got := hierarchy.TraversalSetSizes(g, opts(hierarchy.SigmaBatched, 1))
			if !reflect.DeepEqual(got, wantTS) {
				t.Error("batched traversal-set sizes differ from scalar under load")
				return
			}
		}
	}()
	wg.Wait()
}
