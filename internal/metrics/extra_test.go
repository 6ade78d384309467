package metrics

import (
	"math"
	"math/rand"
	"testing"

	"topocmp/internal/ball"
	"topocmp/internal/gen/canonical"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestBallPathLengthCurveGrows(t *testing.T) {
	g := canonical.Mesh(20, 20)
	s := BallPathLengthCurveWith(ball.NewEngine(g, 1), defaultCfg(8))
	if s.Len() < 3 {
		t.Fatalf("points = %d", s.Len())
	}
	if s.Points[s.Len()-1].Y <= s.Points[0].Y {
		t.Fatal("mesh ball path length should grow with ball size")
	}
}

func TestBallPathLengthCompleteIsOne(t *testing.T) {
	g := canonical.Complete(40)
	s := BallPathLengthCurveWith(ball.NewEngine(g, 1), defaultCfg(5))
	for _, p := range s.Points {
		if math.Abs(p.Y-1) > 1e-9 {
			t.Fatalf("complete ball APL = %v at size %v", p.Y, p.X)
		}
	}
}

func TestSurfaceMaxFlowTreeIsOne(t *testing.T) {
	// In a tree there is exactly one path from the center to any surface
	// node.
	g := canonical.Tree(3, 5)
	s := SurfaceMaxFlowCurveWith(ball.NewEngine(g, 1), defaultCfg(8), 4, 29)
	for _, p := range s.Points {
		if math.Abs(p.Y-1) > 1e-9 {
			t.Fatalf("tree surface flow = %v at size %v, want 1", p.Y, p.X)
		}
	}
}

func TestSurfaceMaxFlowRandomExceedsTree(t *testing.T) {
	// Random graphs offer multiple disjoint routes outward.
	r := defaultCfg(6)
	random := canonical.Random(newRand(3), 800, 0.008) // avg degree ~6.4
	s := SurfaceMaxFlowCurveWith(ball.NewEngine(random, 1), r, 6, 29)
	if s.Len() == 0 {
		t.Fatal("no points")
	}
	last := s.Points[s.Len()-1]
	if last.Y < 1.5 {
		t.Fatalf("random surface flow = %v, want > 1.5", last.Y)
	}
}
