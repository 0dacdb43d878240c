package dse

import (
	"math/rand"
	"testing"
)

// TestDominatesAllocFree pins the dominance comparison at zero
// allocations — a Frontier runs it once per front member for every
// point a sweep adds.
func TestDominatesAllocFree(t *testing.T) {
	objs := DefaultObjectives()
	a := []float64{2, 100, 5}
	b := []float64{1, 200, 9}
	allocs := testing.AllocsPerRun(1000, func() {
		if !Dominates(a, b, objs) {
			t.Fatal("a must dominate b")
		}
	})
	if allocs != 0 {
		t.Errorf("Dominates allocates %.1f per call, want 0", allocs)
	}
}

func benchPoints(n int) []Point {
	rng := rand.New(rand.NewSource(7))
	points := make([]Point, n)
	for i := range points {
		points[i] = Point{
			Cell:   Cell{Index: i},
			Values: []float64{rng.Float64(), float64(rng.Intn(8)), float64(rng.Intn(8))},
		}
	}
	return points
}

func BenchmarkDominates(b *testing.B) {
	objs := DefaultObjectives()
	x := []float64{2, 100, 5}
	y := []float64{1, 200, 9}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Dominates(x, y, objs)
	}
}

func BenchmarkFront(b *testing.B) {
	objs := DefaultObjectives()
	points := benchPoints(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Front(points, objs)
	}
}

func BenchmarkExpand(b *testing.B) {
	s := Spec{Seeds: []uint64{1, 2, 3, 4}} // 7 policies × 14 workloads × 4 seeds = 392 cells
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Expand(); err != nil {
			b.Fatal(err)
		}
	}
}
