package ball

import (
	"math/rand"
	"testing"

	"topocmp/internal/gen/canonical"
	"topocmp/internal/graph"
)

// grownBall is one ball the engine handed to a per-ball metric.
type grownBall struct{ radius, size int }

// engineBalls lists every ball a sequential engine grows per cfg, in
// (center, radius) order.
func engineBalls(g *graph.Graph, cfg Config) []grownBall {
	var out []grownBall
	NewEngine(g, 1).BallPointsKernels(cfg, 0,
		func(sub *graph.Graph, radius int, _ *rand.Rand, _ *Kernels) (float64, bool) {
			out = append(out, grownBall{radius, sub.NumNodes()})
			return 0, false
		})
	return out
}

func TestVisitPathBallSizes(t *testing.T) {
	g := canonical.Linear(11)
	p := NewEngine(g, 1).Profile(5)
	for h, want := range map[int]int{1: 3, 2: 5, 5: 11} {
		if got := p.Size(h); got != want {
			t.Fatalf("radius %d size = %d, want %d", h, got, want)
		}
	}
}

func TestVisitRespectsMaxRadius(t *testing.T) {
	maxSeen := 0
	for _, b := range engineBalls(canonical.Linear(30), Config{MaxRadius: 3}) {
		maxSeen = max(maxSeen, b.radius)
	}
	if maxSeen != 3 {
		t.Fatalf("max radius = %d, want 3", maxSeen)
	}
}

func TestVisitRespectsMaxBallSize(t *testing.T) {
	for _, b := range engineBalls(canonical.Tree(3, 5), Config{MaxBallSize: 40}) {
		if b.size > 40 {
			t.Fatalf("ball size %d exceeds cap", b.size)
		}
	}
}

func TestVisitRespectsMinBallSize(t *testing.T) {
	for _, b := range engineBalls(canonical.Mesh(6, 6), Config{MinBallSize: 5}) {
		if b.size < 5 {
			t.Fatalf("ball size %d below floor", b.size)
		}
	}
}

func TestCentersSampling(t *testing.T) {
	g := canonical.Mesh(10, 10)
	cfg := Config{MaxSources: 7, Rand: rand.New(rand.NewSource(1))}
	cs := Centers(g, &cfg)
	if len(cs) != 7 {
		t.Fatalf("centers = %d, want 7", len(cs))
	}
	seen := map[int32]bool{}
	for _, c := range cs {
		if seen[c] {
			t.Fatal("duplicate center")
		}
		seen[c] = true
	}
	cfgAll := Config{}
	if got := len(Centers(g, &cfgAll)); got != 100 {
		t.Fatalf("all centers = %d, want 100", got)
	}
}

func TestBallNodesAreWithinRadius(t *testing.T) {
	g := canonical.Mesh(8, 8)
	e := NewEngine(g, 1)
	cfg := Config{MaxSources: 5}
	for _, c := range Centers(g, &cfg) {
		p := e.Profile(c)
		dist, _ := g.BFS(c)
		for h := 1; h <= p.Eccentricity(); h++ {
			nodes := p.BallAt(h)
			for _, v := range nodes {
				if int(dist[v]) > h {
					t.Fatalf("node %d at distance %d in radius-%d ball", v, dist[v], h)
				}
			}
			// Completeness: every node within radius is present.
			count := 0
			for v := int32(0); v < int32(g.NumNodes()); v++ {
				if int(dist[v]) <= h {
					count++
				}
			}
			if count != len(nodes) {
				t.Fatalf("ball has %d nodes, want %d", len(nodes), count)
			}
		}
	}
}

func TestSubgraphMatchesBall(t *testing.T) {
	g := canonical.Tree(2, 5)
	e := NewEngine(g, 1)
	cfg := Config{MaxSources: 3}
	checked := false
	for _, c := range Centers(g, &cfg) {
		p := e.Profile(c)
		for h := 1; h <= p.Eccentricity(); h++ {
			sub := e.BallSubgraph(p, h)
			if sub.NumNodes() != len(p.BallAt(h)) {
				t.Fatalf("subgraph nodes = %d, want %d", sub.NumNodes(), len(p.BallAt(h)))
			}
			if !sub.IsConnected() {
				t.Fatal("ball subgraph must be connected")
			}
			checked = true
		}
	}
	if !checked {
		t.Fatal("no balls grown")
	}
}
