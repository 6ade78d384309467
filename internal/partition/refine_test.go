package partition

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"topocmp/internal/gen/canonical"
	"topocmp/internal/gen/plrg"
	"topocmp/internal/graph"
	"topocmp/internal/internetsim"
)

// star returns a star with the given number of leaves, the hub at id 0.
func star(leaves int) *graph.Graph {
	b := graph.NewBuilder(leaves + 1)
	for v := 1; v <= leaves; v++ {
		b.AddEdge(0, int32(v))
	}
	return b.Graph()
}

// hubBall returns the induced ball of radius h around g's highest-degree
// node: the hub balls that make the resilience metric coarsen deeply.
func hubBall(g *graph.Graph, h int) *graph.Graph {
	hub := int32(0)
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		if g.Degree(v) > g.Degree(hub) {
			hub = v
		}
	}
	return g.Subgraph(g.Ball(hub, h))
}

// checkSortedRuns fails unless every adjacency run of l is strictly
// increasing in target id, the order coarsen's transpose must produce.
func checkSortedRuns(t testing.TB, l *level, depth int) {
	t.Helper()
	for v := int32(0); v < int32(l.numNodes()); v++ {
		run := l.edgesOf(v)
		for i := 1; i < len(run); i++ {
			if run[i-1].to >= run[i].to {
				t.Fatalf("level %d: run of node %d not strictly increasing: %v", depth, v, run)
			}
		}
	}
}

// compareRefiners runs bisect's phases on g and, at every level from the
// coarsest to the finest, refines the projected sides with both refine and
// heapRefine, failing at the first level where the sides or cuts differ.
// It returns the number of levels compared.
func compareRefiners(t testing.TB, g *graph.Graph, opts Options) int {
	t.Helper()
	opts.defaults()
	ws := NewWorkspace()
	l0 := ws.level0()
	l0.fromGraph(g)
	depth := 0
	cur := l0
	for cur.numNodes() > 48 {
		next := ws.levelAt(depth + 1)
		ws.coarsen(cur, next, opts.Rand)
		if next.numNodes() >= cur.numNodes() {
			break
		}
		depth++
		cur = next
		checkSortedRuns(t, cur, depth)
	}
	cur.side = growBool(cur.side, cur.numNodes())
	ws.initialBisection(cur, cur.side, &opts)
	for i := depth; i >= 0; i-- {
		lv := ws.levels[i]
		if i < depth {
			lv.side = growBool(lv.side, lv.numNodes())
			for v := range lv.side {
				lv.side[v] = ws.levels[i+1].side[lv.cmap[v]]
			}
		}
		compareLevel(t, ws, lv, &opts, fmt.Sprintf("level %d", i))
	}
	return depth + 1
}

// compareLevel refines l's current sides with both refiners and fails
// unless they agree; l.side is left holding the refined sides.
func compareLevel(t testing.TB, ws *Workspace, l *level, opts *Options, where string) {
	t.Helper()
	want := slices.Clone(l.side)
	heapRefine(l, want, opts)
	ws.refine(l, l.side, opts)
	if !slices.Equal(l.side, want) {
		t.Fatalf("%s (%d nodes, balance %.2f, %d refinements): bucket sides differ from heap sides",
			where, l.numNodes(), opts.Balance, opts.Refinements)
	}
	if got, exp := cutOf(l, l.side), cutOf(l, want); got != exp {
		t.Fatalf("%s: bucket cut %d != heap cut %d", where, got, exp)
	}
}

// randomLevel builds a symmetric weighted level — node weights 1..maxNodeW,
// edge weights 1..maxEdgeW, no self loops or repeated targets — with a
// random side assignment, the shape of a deep coarse level.
func randomLevel(r *rand.Rand, n, edges, maxNodeW, maxEdgeW int) *level {
	w := make(map[[2]int32]int32)
	for i := 0; i < edges; i++ {
		u, v := int32(r.Intn(n)), int32(r.Intn(n))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		w[[2]int32{u, v}] += int32(1 + r.Intn(maxEdgeW))
	}
	runs := make([][]wedge, n)
	for uv, x := range w {
		runs[uv[0]] = append(runs[uv[0]], wedge{uv[1], x})
		runs[uv[1]] = append(runs[uv[1]], wedge{uv[0], x})
	}
	l := &level{nodeW: make([]int32, n), off: make([]int32, n+1), side: make([]bool, n)}
	for v := range runs {
		slices.SortFunc(runs[v], func(a, b wedge) int { return int(a.to) - int(b.to) })
		l.off[v] = int32(len(l.adj))
		l.adj = append(l.adj, runs[v]...)
		l.nodeW[v] = int32(1 + r.Intn(maxNodeW))
		l.side[v] = r.Intn(2) == 0
	}
	l.off[n] = int32(len(l.adj))
	for v := int32(0); v < int32(n); v++ {
		s := 0
		for _, e := range l.edgesOf(v) {
			s += int(e.w)
		}
		l.maxWDeg = max(l.maxWDeg, s)
	}
	return l
}

// TestBucketRefineMatchesHeap holds the gain-bucket refine to the
// historical lazy-heap refine level by level: random graphs, PLRG and
// AS-like hub balls, a 1,500-leaf star and random weighted levels, at
// balances from 0.50 (where balance refusals are frequent) to 0.55 and at
// 1–6 refinement passes.
func TestBucketRefineMatchesHeap(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	p := plrg.MustGenerate(rand.New(rand.NewSource(3)), plrg.Params{N: 3000, Beta: 2.246})
	as := internetsim.MustGenerateAS(rand.New(rand.NewSource(5)), internetsim.ASParams{NumAS: 2500}).Graph
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"random200", canonical.Random(r, 200, 0.03)},
		{"random700", canonical.Random(r, 700, 0.008)},
		{"mesh", canonical.Mesh(20, 20)},
		{"plrg-hub1", hubBall(p, 1)},
		{"plrg-hub2", hubBall(p, 2)},
		{"as-hub1", hubBall(as, 1)},
		{"as-hub2", hubBall(as, 2)},
		{"tiny", canonical.Linear(3)},
	}
	for _, gc := range graphs {
		for _, balance := range []float64{0.50, 0.52, 0.55} {
			for ref := 1; ref <= 6; ref++ {
				opts := Options{Balance: balance, Refinements: ref, Rand: rand.New(rand.NewSource(int64(ref)))}
				compareRefiners(t, gc.g, opts)
			}
		}
	}
	// The star coarsens by about one node per level, so it runs at the
	// two balance extremes only.
	s := star(1500)
	for _, balance := range []float64{0.50, 0.55} {
		if levels := compareRefiners(t, s, Options{Balance: balance, Rand: rand.New(rand.NewSource(1))}); levels < 100 {
			t.Fatalf("star compared at %d levels, want a deep hierarchy", levels)
		}
	}
	for i := 0; i < 60; i++ {
		l := randomLevel(r, 2+r.Intn(300), r.Intn(1200), 1+r.Intn(20), 1+r.Intn(40))
		opts := Options{Balance: 0.50 + 0.01*float64(i%6), Refinements: 1 + i%6}
		compareLevel(t, NewWorkspace(), l, &opts, fmt.Sprintf("random level %d", i))
	}
}

// FuzzRefineMatchesHeap drives both refiners over small random weighted
// levels and whole bisections of small random graphs.
func FuzzRefineMatchesHeap(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(40), uint8(3), uint8(5), uint8(0), uint8(4))
	f.Add(int64(7), uint8(200), uint8(255), uint8(1), uint8(1), uint8(5), uint8(1))
	f.Add(int64(3), uint8(2), uint8(1), uint8(9), uint8(30), uint8(2), uint8(6))
	f.Fuzz(func(t *testing.T, seed int64, n, edges, maxNodeW, maxEdgeW, balance, refinements uint8) {
		r := rand.New(rand.NewSource(seed))
		opts := Options{
			Balance:     0.50 + 0.01*float64(balance%6),
			Refinements: 1 + int(refinements%6),
			Rand:        rand.New(rand.NewSource(seed)),
		}
		nodes := 2 + int(n)
		l := randomLevel(r, nodes, 4*int(edges), 1+int(maxNodeW%16), 1+int(maxEdgeW%64))
		compareLevel(t, NewWorkspace(), l, &opts, "level")
		b := graph.NewBuilder(nodes)
		for i := 0; i < 2*int(edges); i++ {
			u, v := int32(r.Intn(nodes)), int32(r.Intn(nodes))
			if u != v {
				b.AddEdge(u, v)
			}
		}
		compareRefiners(t, b.Graph(), opts)
	})
}

// TestWarmBisectAllocFree bisects a mixed sequence on one warm workspace
// — a mesh, a PLRG hub ball, a 1,500-leaf star and a 3-node path — and
// requires zero allocations per call: the gain queue's storage is reused,
// never re-made, across levels, passes and calls.
func TestWarmBisectAllocFree(t *testing.T) {
	p := plrg.MustGenerate(rand.New(rand.NewSource(3)), plrg.Params{N: 3000, Beta: 2.246})
	seq := []*graph.Graph{canonical.Mesh(30, 30), hubBall(p, 2), star(1500), canonical.Linear(3)}
	ws := NewWorkspace()
	rng := rand.New(rand.NewSource(1))
	run := func() {
		for _, g := range seq {
			rng.Seed(1)
			ws.CutSize(g, Options{Rand: rng})
		}
	}
	run()
	if allocs := testing.AllocsPerRun(5, run); allocs != 0 {
		t.Fatalf("warm workspace allocates %.1f times per sequence, want 0", allocs)
	}
}

// TestGainQueueStorageBound bisects a 1,500-leaf star, whose hub gives the
// widest gain range a 1,501-node graph can have, and bounds the gain
// queue's storage by the widest level's (2·D+1)·⌈n/64⌉ words.
func TestGainQueueStorageBound(t *testing.T) {
	g := star(1500)
	ws := NewWorkspace()
	ws.CutSize(g, Options{Rand: rand.New(rand.NewSource(1))})
	widest := 0
	for _, l := range ws.levels {
		b, w := l.gainBounds()
		widest = max(widest, b*w)
	}
	if want := (2*1500 + 1) * ((1501 + 63) / 64); widest != want {
		t.Fatalf("widest level needs %d words, want %d (the finest level)", widest, want)
	}
	if got := cap(ws.moves.bits); got > widest {
		t.Fatalf("gain queue holds %d words, more than the widest level's %d", got, widest)
	}
	for i, w := range ws.moves.bits[:cap(ws.moves.bits)] {
		if w != 0 {
			t.Fatalf("gain queue word %d is %#x after the call, want all zero", i, w)
		}
	}
}
