package geo

import (
	"math/rand"
	"testing"
)

func randomPoints(rng *rand.Rand, n int, bounds Rect) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Pt(
			bounds.Min.X+rng.Float64()*bounds.Width(),
			bounds.Min.Y+rng.Float64()*bounds.Height(),
		)
	}
	return pts
}

func TestNewGridIndexRejectsBadInput(t *testing.T) {
	if _, err := NewGridIndex(Rect{Min: Pt(1, 1), Max: Pt(0, 0)}, 10, nil); err == nil {
		t.Error("invalid bounds accepted")
	}
	if _, err := NewGridIndex(Square(100), 0, nil); err == nil {
		t.Error("zero cell size accepted")
	}
	if _, err := NewGridIndex(Square(100), -5, nil); err == nil {
		t.Error("negative cell size accepted")
	}
}

func TestGridIndexCountWithinMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	bounds := Square(3000)
	pts := randomPoints(rng, 500, bounds)
	g, err := NewGridIndex(bounds, 500, pts)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 100; trial++ {
		center := Pt(rng.Float64()*3000, rng.Float64()*3000)
		r := rng.Float64() * 1000
		got := g.CountWithin(center, r)
		want := CountWithinBrute(pts, center, r)
		if got != want {
			t.Fatalf("CountWithin(%v, %v) = %d, want %d", center, r, got, want)
		}
	}
}

func TestGridIndexCountWithinStrictBoundary(t *testing.T) {
	pts := []Point{Pt(0, 0), Pt(10, 0)}
	g, err := NewGridIndex(Square(100), 10, pts)
	if err != nil {
		t.Fatal(err)
	}
	// Point at distance exactly 10 must NOT count (paper: distance < R).
	if got := g.CountWithin(Pt(0, 0), 10); got != 1 {
		t.Errorf("CountWithin strict boundary = %d, want 1", got)
	}
	if got := g.CountWithin(Pt(0, 0), 10.001); got != 2 {
		t.Errorf("CountWithin just past boundary = %d, want 2", got)
	}
}

func TestGridIndexWithin(t *testing.T) {
	pts := []Point{Pt(1, 1), Pt(50, 50), Pt(2, 2)}
	g, err := NewGridIndex(Square(100), 25, pts)
	if err != nil {
		t.Fatal(err)
	}
	got := g.Within(Pt(0, 0), 5)
	if len(got) != 2 {
		t.Fatalf("Within = %v, want 2 hits", got)
	}
	seen := map[int]bool{}
	for _, i := range got {
		seen[i] = true
	}
	if !seen[0] || !seen[2] {
		t.Errorf("Within = %v, want indices 0 and 2", got)
	}
}

func TestGridIndexPointsOutsideBounds(t *testing.T) {
	// Points outside the declared bounds must still be findable.
	pts := []Point{Pt(-50, -50), Pt(150, 150)}
	g, err := NewGridIndex(Square(100), 20, pts)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.CountWithin(Pt(-50, -50), 1); got != 1 {
		t.Errorf("outside point not found: %d", got)
	}
	if got := g.CountWithin(Pt(0, 0), 1000); got != 2 {
		t.Errorf("CountWithin big radius = %d, want 2", got)
	}
}

func TestGridIndexLen(t *testing.T) {
	g, err := NewGridIndex(Square(100), 10, []Point{Pt(1, 1), Pt(2, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 2 {
		t.Errorf("Len = %d, want 2", g.Len())
	}
}

func TestGridIndexTinyCells(t *testing.T) {
	// Cell size much smaller than the area must not explode or miss.
	pts := []Point{Pt(0.5, 0.5), Pt(99.5, 99.5)}
	g, err := NewGridIndex(Square(100), 1, pts)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.CountWithin(Pt(0, 0), 2); got != 1 {
		t.Errorf("CountWithin = %d", got)
	}
}

func TestGridIndexCopiesInput(t *testing.T) {
	pts := []Point{Pt(1, 1)}
	g, err := NewGridIndex(Square(100), 10, pts)
	if err != nil {
		t.Fatal(err)
	}
	pts[0] = Pt(99, 99)
	if got := g.CountWithin(Pt(1, 1), 1); got != 1 {
		t.Error("index aliased caller's slice")
	}
}

// TestGridIndexResetReuse pins the in-place reuse contract: one index
// Reset over changing point sets, cell sizes, and bounds must answer
// exactly like a fresh index each time, including shrinking below a
// previous size, and must not allocate once grown.
func TestGridIndexResetReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := &GridIndex{}
	for trial := 0; trial < 20; trial++ {
		side := 500 + rng.Float64()*2500
		bounds := Square(side)
		cell := 50 + rng.Float64()*500
		n := rng.Intn(300) // occasionally far smaller than the last trial
		pts := randomPoints(rng, n, bounds)
		if err := g.Reset(bounds, cell, pts); err != nil {
			t.Fatal(err)
		}
		fresh, err := NewGridIndex(bounds, cell, pts)
		if err != nil {
			t.Fatal(err)
		}
		if g.Len() != fresh.Len() {
			t.Fatalf("trial %d: Len = %d, want %d", trial, g.Len(), fresh.Len())
		}
		for q := 0; q < 50; q++ {
			center := Pt(rng.Float64()*side, rng.Float64()*side)
			r := rng.Float64() * side / 2
			if got, want := g.CountWithin(center, r), fresh.CountWithin(center, r); got != want {
				t.Fatalf("trial %d: CountWithin(%v, %v) = %d, want %d", trial, center, r, got, want)
			}
		}
	}
}

func TestGridIndexResetRejectsBadInput(t *testing.T) {
	g := &GridIndex{}
	if err := g.Reset(Rect{Min: Pt(1, 1), Max: Pt(0, 0)}, 10, nil); err == nil {
		t.Error("invalid bounds accepted")
	}
	if err := g.Reset(Square(100), 0, nil); err == nil {
		t.Error("zero cell size accepted")
	}
}

func TestGridIndexWithinIntoMatchesWithin(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	bounds := Square(2000)
	pts := randomPoints(rng, 400, bounds)
	g, err := NewGridIndex(bounds, 250, pts)
	if err != nil {
		t.Fatal(err)
	}
	var buf []int
	for trial := 0; trial < 100; trial++ {
		center := Pt(rng.Float64()*2000, rng.Float64()*2000)
		r := rng.Float64() * 800
		want := g.Within(center, r)
		buf = g.WithinInto(buf, center, r)
		if len(buf) != len(want) {
			t.Fatalf("WithinInto(%v, %v) found %d, Within found %d", center, r, len(buf), len(want))
		}
		for i := range buf {
			if buf[i] != want[i] {
				t.Fatalf("WithinInto(%v, %v)[%d] = %d, Within = %d", center, r, i, buf[i], want[i])
			}
		}
	}
}

func TestGridIndexWithinIntoReusesCapacity(t *testing.T) {
	pts := []Point{Pt(1, 1), Pt(2, 2), Pt(3, 3)}
	g, err := NewGridIndex(Square(100), 10, pts)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]int, 0, 8)
	got := g.WithinInto(buf, Pt(0, 0), 10)
	if len(got) != 3 {
		t.Fatalf("WithinInto = %v, want 3 hits", got)
	}
	if &got[:1][0] != &buf[:1][0] {
		t.Error("WithinInto reallocated despite sufficient capacity")
	}
}

func TestGridIndexWithinIntoSteadyStateAllocs(t *testing.T) {
	bounds := Square(1000)
	rng := rand.New(rand.NewSource(5))
	pts := randomPoints(rng, 300, bounds)
	g, err := NewGridIndex(bounds, 100, pts)
	if err != nil {
		t.Fatal(err)
	}
	var buf []int
	buf = g.WithinInto(buf, Pt(500, 500), 400) // grow once
	allocs := testing.AllocsPerRun(100, func() {
		buf = g.WithinInto(buf, Pt(500, 500), 400)
	})
	if allocs > 0 {
		t.Errorf("steady-state WithinInto allocates %v objects/op, want 0", allocs)
	}
}

func TestGridIndexResetSteadyStateAllocs(t *testing.T) {
	bounds := Square(1000)
	rng := rand.New(rand.NewSource(3))
	pts := randomPoints(rng, 200, bounds)
	g := &GridIndex{}
	if err := g.Reset(bounds, 100, pts); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := g.Reset(bounds, 100, pts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("steady-state Reset allocates %v objects/op, want 0", allocs)
	}
}
