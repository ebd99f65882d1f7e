package geo

import (
	"fmt"
	"math"
)

// GridIndex is a uniform-grid spatial index over points in a bounded area.
// It supports efficient radius queries, which the incentive mechanism uses
// every round to count the neighboring mobile users of each task (the users
// within R meters of the task location, Section IV of the paper).
//
// The zero value is not usable; construct with NewGridIndex. GridIndex is
// not safe for concurrent mutation; concurrent read-only queries are safe.
type GridIndex struct {
	bounds   Rect
	cellSize float64
	cols     int
	rows     int
	cells    [][]int // cell -> indices into pts
	pts      []Point
}

// NewGridIndex builds an index over the given points within bounds. cellSize
// is the side length of each grid cell in meters; a good choice is the query
// radius. Points outside bounds are clamped into it for bucketing purposes
// (queries remain exact because candidate distances are always re-checked).
func NewGridIndex(bounds Rect, cellSize float64, pts []Point) (*GridIndex, error) {
	g := &GridIndex{}
	if err := g.Reset(bounds, cellSize, pts); err != nil {
		return nil, err
	}
	return g, nil
}

// Reset rebuilds the index in place over a new point set, reusing the
// previous build's storage (the point copy, the cell table, and each
// cell's bucket) when it is large enough. After the first few builds over
// same-sized inputs a Reset allocates nothing, which is what lets the
// platform engine rebuild its neighbor index every round without garbage.
// The points are copied; the caller may reuse its slice. Query results are
// identical to a fresh NewGridIndex over the same inputs.
func (g *GridIndex) Reset(bounds Rect, cellSize float64, pts []Point) error {
	if !bounds.Valid() || bounds.Width() <= 0 || bounds.Height() <= 0 {
		return fmt.Errorf("geo: invalid bounds %v", bounds)
	}
	if cellSize <= 0 || math.IsNaN(cellSize) || math.IsInf(cellSize, 0) {
		return fmt.Errorf("geo: invalid cell size %v", cellSize)
	}
	g.bounds = bounds
	g.cellSize = cellSize
	g.cols = int(math.Ceil(bounds.Width()/cellSize)) + 1
	g.rows = int(math.Ceil(bounds.Height()/cellSize)) + 1
	n := g.cols * g.rows
	// Grow the cell table while keeping the existing buckets' capacity:
	// reslicing to capacity first preserves bucket headers populated by
	// earlier, larger builds.
	if cap(g.cells) < n {
		g.cells = append(g.cells[:cap(g.cells)], make([][]int, n-cap(g.cells))...)
	}
	g.cells = g.cells[:n]
	for i := range g.cells {
		g.cells[i] = g.cells[i][:0]
	}
	g.pts = append(g.pts[:0], pts...)
	for i, p := range g.pts {
		c := g.cellOf(p)
		g.cells[c] = append(g.cells[c], i)
	}
	return nil
}

// Len returns the number of indexed points.
func (g *GridIndex) Len() int { return len(g.pts) }

// cellOf maps a point to its cell slot, clamping out-of-bounds points.
func (g *GridIndex) cellOf(p Point) int {
	p = g.bounds.Clamp(p)
	col := int((p.X - g.bounds.Min.X) / g.cellSize)
	row := int((p.Y - g.bounds.Min.Y) / g.cellSize)
	if col >= g.cols {
		col = g.cols - 1
	}
	if row >= g.rows {
		row = g.rows - 1
	}
	return row*g.cols + col
}

// CountWithin returns the number of indexed points strictly within radius r
// of center. The paper defines a neighboring user as one whose distance to a
// task is less than R, hence the strict inequality.
func (g *GridIndex) CountWithin(center Point, r float64) int {
	count := 0
	g.forEachCandidate(center, r, func(i int) {
		if g.pts[i].Dist(center) < r {
			count++
		}
	})
	return count
}

// Within returns the indices (into the original point slice) of all points
// strictly within radius r of center, in unspecified order.
func (g *GridIndex) Within(center Point, r float64) []int {
	return g.WithinInto(nil, center, r)
}

// WithinInto is Within appending into dst (reset to dst[:0] first),
// following the repo's grow-only `...Into` convention: callers on hot
// paths pass the previous query's slice back in and reach zero
// steady-state allocations once the buffer has grown to the largest
// result set.
func (g *GridIndex) WithinInto(dst []int, center Point, r float64) []int {
	dst = dst[:0]
	g.forEachCandidate(center, r, func(i int) {
		if g.pts[i].Dist(center) < r {
			dst = append(dst, i)
		}
	})
	return dst
}

// forEachCandidate invokes fn for every point index in cells overlapping the
// disk of radius r around center. Points may be reported that are outside
// the disk; callers must re-check distances.
func (g *GridIndex) forEachCandidate(center Point, r float64, fn func(i int)) {
	minCol := int(math.Floor((center.X - r - g.bounds.Min.X) / g.cellSize))
	maxCol := int(math.Floor((center.X + r - g.bounds.Min.X) / g.cellSize))
	minRow := int(math.Floor((center.Y - r - g.bounds.Min.Y) / g.cellSize))
	maxRow := int(math.Floor((center.Y + r - g.bounds.Min.Y) / g.cellSize))
	// Clamp into the grid on both ends: out-of-bounds points are bucketed in
	// edge cells, so even a disk entirely outside the grid must scan the
	// nearest edge cells. The distance re-check keeps results exact.
	minCol = clampInt(minCol, 0, g.cols-1)
	maxCol = clampInt(maxCol, 0, g.cols-1)
	minRow = clampInt(minRow, 0, g.rows-1)
	maxRow = clampInt(maxRow, 0, g.rows-1)
	for row := minRow; row <= maxRow; row++ {
		for col := minCol; col <= maxCol; col++ {
			for _, i := range g.cells[row*g.cols+col] {
				fn(i)
			}
		}
	}
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// CountWithinBrute is the O(n) reference implementation of CountWithin, used
// by tests and available for tiny inputs where building an index would cost
// more than it saves.
func CountWithinBrute(pts []Point, center Point, r float64) int {
	count := 0
	for _, p := range pts {
		if p.Dist(center) < r {
			count++
		}
	}
	return count
}
