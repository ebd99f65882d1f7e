// Package matrix implements the small dense-matrix operations needed by the
// Analytic Hierarchy Process: column normalization, row/column reductions,
// matrix-vector products, and a power-iteration principal eigensolver.
//
// AHP comparison matrices are tiny (the paper's is 3x3), so the package
// optimizes for clarity and numerical robustness rather than raw speed.
package matrix

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// ErrDimensionMismatch is returned when operand shapes are incompatible.
var ErrDimensionMismatch = errors.New("matrix: dimension mismatch")

// Dense is a row-major dense matrix of float64 values.
// The zero value is an empty (0x0) matrix; construct with New or NewFromRows.
type Dense struct {
	rows int
	cols int
	data []float64
}

// New returns a rows x cols zero matrix.
// It panics if either dimension is negative.
func New(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("matrix: negative dimension %dx%d", rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// NewFromRows builds a matrix from row slices. All rows must have equal
// length. The input is copied.
func NewFromRows(rows [][]float64) (*Dense, error) {
	if len(rows) == 0 {
		return New(0, 0), nil
	}
	cols := len(rows[0])
	m := New(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("%w: row %d has %d entries, want %d",
				ErrDimensionMismatch, i, len(r), cols)
		}
		copy(m.data[i*cols:(i+1)*cols], r)
	}
	return m, nil
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Dense) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("matrix: index (%d, %d) out of range %dx%d", i, j, m.rows, m.cols))
	}
}

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	out := New(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// Row returns a copy of row i.
func (m *Dense) Row(i int) []float64 {
	out := make([]float64, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// ColSums returns the sum of each column.
func (m *Dense) ColSums() []float64 {
	sums := make([]float64, m.cols)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			sums[j] += m.data[i*m.cols+j]
		}
	}
	return sums
}

// RowMeans returns the arithmetic mean of each row.
func (m *Dense) RowMeans() []float64 {
	means := make([]float64, m.rows)
	if m.cols == 0 {
		return means
	}
	for i := 0; i < m.rows; i++ {
		var s float64
		for j := 0; j < m.cols; j++ {
			s += m.data[i*m.cols+j]
		}
		means[i] = s / float64(m.cols)
	}
	return means
}

// NormalizeColumns returns a new matrix with each column divided by its
// column sum (the AHP normalization, Table II of the paper). It returns an
// error if any column sums to zero.
func (m *Dense) NormalizeColumns() (*Dense, error) {
	sums := m.ColSums()
	out := New(m.rows, m.cols)
	for j, s := range sums {
		if s == 0 {
			return nil, fmt.Errorf("matrix: column %d sums to zero", j)
		}
	}
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.data[i*m.cols+j] = m.data[i*m.cols+j] / sums[j]
		}
	}
	return out, nil
}

// MulVec returns the matrix-vector product m * v.
func (m *Dense) MulVec(v []float64) ([]float64, error) {
	if len(v) != m.cols {
		return nil, fmt.Errorf("%w: %dx%d matrix with vector of length %d",
			ErrDimensionMismatch, m.rows, m.cols, len(v))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		var s float64
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, a := range row {
			s += a * v[j]
		}
		out[i] = s
	}
	return out, nil
}

// Equal reports whether m and n have the same shape and all entries within
// eps of each other.
func (m *Dense) Equal(n *Dense, eps float64) bool {
	if m.rows != n.rows || m.cols != n.cols {
		return false
	}
	for i, v := range m.data {
		if math.Abs(v-n.data[i]) > eps {
			return false
		}
	}
	return true
}

// IsSquare reports whether m has as many rows as columns.
func (m *Dense) IsSquare() bool { return m.rows == m.cols }

// String renders the matrix with aligned columns, for debugging and logs.
func (m *Dense) String() string {
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		if i > 0 {
			b.WriteByte('\n')
		}
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%9.4f", m.At(i, j))
		}
	}
	return b.String()
}
