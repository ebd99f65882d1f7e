package geo

// Path is an ordered polyline of waypoints. In the simulator a user's round
// plan is a Path starting at the user's location and visiting the selected
// task locations in performing order.
type Path []Point

// Length returns the total Euclidean length of the path, i.e. the sum of
// the segment lengths. Paths with fewer than two points have length 0.
func (p Path) Length() float64 {
	var total float64
	for i := 1; i < len(p); i++ {
		total += p[i-1].Dist(p[i])
	}
	return total
}

// End returns the final waypoint, or ok=false for an empty path.
func (p Path) End() (pt Point, ok bool) {
	if len(p) == 0 {
		return Point{}, false
	}
	return p[len(p)-1], true
}

// Clone returns a deep copy of the path.
func (p Path) Clone() Path {
	if p == nil {
		return nil
	}
	out := make(Path, len(p))
	copy(out, p)
	return out
}

// At returns the point reached after walking dist meters along the path from
// its start. Distances beyond the path's length return the final waypoint;
// negative distances return the start.
func (p Path) At(dist float64) Point {
	if len(p) == 0 {
		return Point{}
	}
	if dist <= 0 {
		return p[0]
	}
	for i := 1; i < len(p); i++ {
		seg := p[i-1].Dist(p[i])
		if dist <= seg && seg > 0 {
			return p[i-1].Lerp(p[i], dist/seg)
		}
		dist -= seg
	}
	return p[len(p)-1]
}

// Truncate returns the prefix of the path walkable within maxDist meters.
// The returned path ends exactly at the point At(maxDist); intermediate
// waypoints that fit entirely are preserved.
func (p Path) Truncate(maxDist float64) Path {
	if len(p) == 0 {
		return nil
	}
	out := Path{p[0]}
	if maxDist <= 0 {
		return out
	}
	remaining := maxDist
	for i := 1; i < len(p); i++ {
		seg := p[i-1].Dist(p[i])
		if seg <= remaining {
			out = append(out, p[i])
			remaining -= seg
			continue
		}
		if seg > 0 {
			out = append(out, p[i-1].Lerp(p[i], remaining/seg))
		}
		return out
	}
	return out
}
