package geo

import (
	"math"
	"math/rand"
	"testing"
)

func TestPathLength(t *testing.T) {
	tests := []struct {
		name string
		path Path
		want float64
	}{
		{"empty", nil, 0},
		{"single", Path{Pt(1, 1)}, 0},
		{"straight", Path{Pt(0, 0), Pt(3, 4)}, 5},
		{"two segments", Path{Pt(0, 0), Pt(3, 4), Pt(3, 10)}, 11},
		{"backtrack", Path{Pt(0, 0), Pt(10, 0), Pt(0, 0)}, 20},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.path.Length(); got != tt.want {
				t.Errorf("Length = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestPathEnd(t *testing.T) {
	if _, ok := (Path{}).End(); ok {
		t.Error("empty path reported an end")
	}
	p := Path{Pt(0, 0), Pt(1, 1)}
	end, ok := p.End()
	if !ok || !end.Equal(Pt(1, 1)) {
		t.Errorf("End = %v, %v", end, ok)
	}
}

func TestPathClone(t *testing.T) {
	p := Path{Pt(0, 0), Pt(1, 1)}
	c := p.Clone()
	c[0] = Pt(9, 9)
	if p[0].Equal(Pt(9, 9)) {
		t.Error("Clone aliased the original")
	}
	if (Path)(nil).Clone() != nil {
		t.Error("Clone(nil) != nil")
	}
}

func TestPathAt(t *testing.T) {
	p := Path{Pt(0, 0), Pt(10, 0), Pt(10, 10)}
	tests := []struct {
		dist float64
		want Point
	}{
		{-1, Pt(0, 0)},
		{0, Pt(0, 0)},
		{5, Pt(5, 0)},
		{10, Pt(10, 0)},
		{15, Pt(10, 5)},
		{20, Pt(10, 10)},
		{100, Pt(10, 10)},
	}
	for _, tt := range tests {
		if got := p.At(tt.dist); !got.AlmostEqual(tt.want, 1e-9) {
			t.Errorf("At(%v) = %v, want %v", tt.dist, got, tt.want)
		}
	}
}

func TestPathTruncate(t *testing.T) {
	p := Path{Pt(0, 0), Pt(10, 0), Pt(10, 10)}
	got := p.Truncate(15)
	if len(got) != 3 || !got[2].AlmostEqual(Pt(10, 5), 1e-9) {
		t.Errorf("Truncate(15) = %v", got)
	}
	if got := p.Truncate(0); len(got) != 1 {
		t.Errorf("Truncate(0) = %v", got)
	}
	if got := p.Truncate(1000); got.Length() != p.Length() {
		t.Errorf("Truncate beyond length shortened path: %v", got)
	}
	if (Path)(nil).Truncate(5) != nil {
		t.Error("Truncate(nil) != nil")
	}
}

func TestPathTruncateLengthProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(8)
		p := make(Path, n)
		for i := range p {
			p[i] = Pt(rng.Float64()*100, rng.Float64()*100)
		}
		maxDist := rng.Float64() * 300
		tr := p.Truncate(maxDist)
		if tr.Length() > maxDist+1e-9 {
			t.Fatalf("truncated length %v exceeds budget %v", tr.Length(), maxDist)
		}
		want := math.Min(maxDist, p.Length())
		if math.Abs(tr.Length()-want) > 1e-6 {
			t.Fatalf("truncated length %v, want %v", tr.Length(), want)
		}
	}
}
