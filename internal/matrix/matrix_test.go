package matrix

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func mustFromRows(t *testing.T, rows [][]float64) *Dense {
	t.Helper()
	m, err := NewFromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewZeroed(t *testing.T) {
	m := New(2, 3)
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("shape = %dx%d", m.Rows(), m.Cols())
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != 0 {
				t.Errorf("At(%d,%d) = %v, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestNewPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(-1, 2) did not panic")
		}
	}()
	New(-1, 2)
}

func TestNewFromRowsRagged(t *testing.T) {
	_, err := NewFromRows([][]float64{{1, 2}, {3}})
	if !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("err = %v, want ErrDimensionMismatch", err)
	}
}

func TestNewFromRowsEmpty(t *testing.T) {
	m, err := NewFromRows(nil)
	if err != nil || m.Rows() != 0 || m.Cols() != 0 {
		t.Errorf("empty: %v %dx%d", err, m.Rows(), m.Cols())
	}
}

func TestNewFromRowsCopies(t *testing.T) {
	rows := [][]float64{{1, 2}}
	m := mustFromRows(t, rows)
	rows[0][0] = 99
	if m.At(0, 0) != 1 {
		t.Error("NewFromRows aliased input")
	}
}

func TestSetAtRoundTrip(t *testing.T) {
	m := New(3, 3)
	m.Set(1, 2, 7.5)
	if m.At(1, 2) != 7.5 {
		t.Errorf("At = %v, want 7.5", m.At(1, 2))
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-range At did not panic")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestClone(t *testing.T) {
	m := mustFromRows(t, [][]float64{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Error("Clone aliased data")
	}
}

func TestRowColCopies(t *testing.T) {
	m := mustFromRows(t, [][]float64{{1, 2}, {3, 4}})
	r := m.Row(1)
	if r[0] != 3 || r[1] != 4 {
		t.Errorf("Row(1) = %v", r)
	}
	r[0] = 99
	if m.At(1, 0) != 3 {
		t.Error("Row aliased data")
	}
}

func TestColSumsRowMeans(t *testing.T) {
	m := mustFromRows(t, [][]float64{{1, 2}, {3, 4}})
	sums := m.ColSums()
	if sums[0] != 4 || sums[1] != 6 {
		t.Errorf("ColSums = %v", sums)
	}
	means := m.RowMeans()
	if means[0] != 1.5 || means[1] != 3.5 {
		t.Errorf("RowMeans = %v", means)
	}
}

// TestNormalizeColumnsPaperTableII reproduces Table II of the paper from the
// Table I comparison matrix.
func TestNormalizeColumnsPaperTableII(t *testing.T) {
	a := mustFromRows(t, [][]float64{
		{1, 3, 5},
		{1.0 / 3, 1, 2},
		{1.0 / 5, 1.0 / 2, 1},
	})
	norm, err := a.NormalizeColumns()
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{
		{0.652, 0.667, 0.625},
		{0.217, 0.222, 0.250},
		{0.131, 0.111, 0.125},
	}
	for i := range want {
		for j := range want[i] {
			if math.Abs(norm.At(i, j)-want[i][j]) > 0.0015 {
				t.Errorf("normalized[%d][%d] = %.4f, want %.3f", i, j, norm.At(i, j), want[i][j])
			}
		}
	}
	// Each column of the normalized matrix must sum to 1.
	for j, s := range norm.ColSums() {
		if math.Abs(s-1) > 1e-12 {
			t.Errorf("normalized column %d sums to %v", j, s)
		}
	}
}

func TestNormalizeColumnsZeroColumn(t *testing.T) {
	m := mustFromRows(t, [][]float64{{1, 0}, {2, 0}})
	if _, err := m.NormalizeColumns(); err == nil {
		t.Error("zero column accepted")
	}
}

func TestMulVec(t *testing.T) {
	m := mustFromRows(t, [][]float64{{1, 2}, {3, 4}})
	got, err := m.MulVec([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 3 || got[1] != 7 {
		t.Errorf("MulVec = %v", got)
	}
	if _, err := m.MulVec([]float64{1}); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("short vector err = %v", err)
	}
}

func TestEqualShapes(t *testing.T) {
	if New(2, 3).Equal(New(3, 2), 1) {
		t.Error("different shapes reported equal")
	}
}

func TestString(t *testing.T) {
	s := mustFromRows(t, [][]float64{{1, 2}, {3, 4}}).String()
	if !strings.Contains(s, "1.0000") || !strings.Contains(s, "\n") {
		t.Errorf("String = %q", s)
	}
}

func TestIsSquare(t *testing.T) {
	if !New(2, 2).IsSquare() || New(2, 3).IsSquare() {
		t.Error("IsSquare wrong")
	}
}
