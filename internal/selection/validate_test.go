package selection

import (
	"errors"
	"strings"
	"testing"

	"paydemand/internal/geo"
	"paydemand/internal/stats"
	"paydemand/internal/task"
)

// dupProblem builds a problem with m candidates carrying distinct ids
// 1..m at distinct locations.
func dupProblem(m int) Problem {
	p := Problem{Start: geo.Pt(0, 0)}
	for i := 0; i < m; i++ {
		p.Candidates = append(p.Candidates, Candidate{
			ID: task.ID(i + 1), Location: geo.Pt(float64(i), 0), Reward: 1,
		})
	}
	return p
}

// TestValidateDuplicates covers both duplicate-detection paths — the
// allocation-free quadratic scan up to the threshold and the map fallback
// above it — pinning the boundary itself: threshold-1, the threshold
// (last instance on the quadratic path), and threshold+1 (first on the
// map path). Each size checks both the clean path and a duplicate
// spanning the first and last candidates, the pair a boundary off-by-one
// would miss first.
func TestValidateDuplicates(t *testing.T) {
	for _, m := range []int{5, dupScanThreshold - 1, dupScanThreshold, dupScanThreshold + 1, dupScanThreshold + 10} {
		p := dupProblem(m)
		if err := p.Validate(); err != nil {
			t.Fatalf("m=%d distinct ids rejected: %v", m, err)
		}
		p.Candidates[m-1].ID = p.Candidates[0].ID
		if err := p.Validate(); !errors.Is(err, ErrDuplicateCandidate) {
			t.Errorf("m=%d duplicate err = %v, want ErrDuplicateCandidate", m, err)
		}
	}
}

// TestValidateDupScanBoundaryAllocs pins the allocation contract at the
// path switch: the quadratic scan at exactly dupScanThreshold candidates
// allocates nothing, and the map fallback one past it is the only thing
// that allocates.
func TestValidateDupScanBoundaryAllocs(t *testing.T) {
	at := dupProblem(dupScanThreshold)
	if n := testing.AllocsPerRun(100, func() {
		if err := at.Validate(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Validate at m=%d allocates %v times per run, want 0 (quadratic path)", dupScanThreshold, n)
	}
	over := dupProblem(dupScanThreshold + 1)
	if n := testing.AllocsPerRun(100, func() {
		if err := over.Validate(); err != nil {
			t.Fatal(err)
		}
	}); n == 0 {
		t.Logf("Validate at m=%d no longer allocates; map fallback gone?", dupScanThreshold+1)
	}
}

// TestValidateAllocFree pins the hot-loop property Validate is built
// for: validating a small instance allocates nothing.
func TestValidateAllocFree(t *testing.T) {
	rng := stats.NewRNG(77)
	p := randomProblem(rng, 12)
	for len(p.Candidates) == 0 {
		p = randomProblem(rng, 12)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Validate allocates %v times per run, want 0", n)
	}
}

// TestDPMaxTasksHardCap is the regression test for the silent-overflow
// bug: a huge configured MaxTasks used to send the solver toward 1<<m
// overflow (m >= 63) and int8 parent truncation (m > 127) instead of
// erroring. The cap is now clamped and oversized instances are rejected
// loudly.
func TestDPMaxTasksHardCap(t *testing.T) {
	problem := func(m int) Problem {
		p := Problem{Start: geo.Pt(0, 0), MaxDistance: 1e9, CostPerMeter: 1e-6}
		for i := 0; i < m; i++ {
			p.Candidates = append(p.Candidates, Candidate{
				ID: task.ID(i + 1), Location: geo.Pt(float64(i+1), 0), Reward: 1,
			})
		}
		return p
	}

	// Oversized configured cap + instance beyond the hard cap: loud error,
	// no attempt to allocate a 2^130-entry table.
	d := &DP{MaxTasks: 200}
	_, err := d.Select(problem(DPHardMaxTasks + 4))
	if !errors.Is(err, ErrTooManyTasks) {
		t.Fatalf("err = %v, want ErrTooManyTasks", err)
	}
	if !strings.Contains(err.Error(), "hard cap") {
		t.Errorf("error %q does not mention the hard cap", err)
	}

	// Oversized configured cap with a small instance still works (the
	// clamp, not the configuration, is what bounds the solve).
	pl, err := d.Select(problem(4))
	if err != nil {
		t.Fatalf("small instance under huge cap: %v", err)
	}
	if pl.Len() != 4 {
		t.Errorf("selected %d tasks, want 4", pl.Len())
	}

	// Auto with an absurd threshold routes oversized instances to greedy
	// instead of erroring.
	a := &Auto{Threshold: 1000}
	pl, err = a.Select(problem(DPHardMaxTasks + 4))
	if err != nil {
		t.Fatalf("auto fallback: %v", err)
	}
	if pl.Empty() {
		t.Error("auto fallback returned empty plan for an all-profitable instance")
	}
}
