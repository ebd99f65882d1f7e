package selection

import (
	"fmt"
	"math"
	"math/bits"
)

// DefaultDPMaxTasks bounds the instance size the exact solver accepts
// after reachability filtering. The table has 2^m * m entries, so 22 tasks
// cost ~700 MB; beyond ~20 the greedy solver is the practical choice (the
// paper makes the same observation in Section V-B).
const DefaultDPMaxTasks = 20

// DPHardMaxTasks is the largest MaxTasks the solver will honor, whatever
// the configuration says. Beyond it the bitmask arithmetic silently breaks
// (1 << m overflows a 32-bit int at m >= 31, the size*m table index soon
// after, and the int8 parent links at m > 127) long after memory has
// become absurd — 2^26 * 26 table entries are already ~14 GB. A configured
// MaxTasks above this cap is clamped, and instances exceeding the clamped
// cap are rejected with ErrTooManyTasks naming both limits, so oversized
// configurations fail loudly instead of computing garbage.
const DPHardMaxTasks = 26

// DP is the paper's optimal dynamic-programming task selection algorithm
// (Section V-A). It runs the Held-Karp style recurrence of Eq. 12 over
// task subsets:
//
//	dp[S | {q}][q] = min over j in S of dp[S][j] + dist(j, q)
//
// where dp[S][j] is the shortest path starting at the user's location,
// visiting exactly the tasks in S, and ending at task j. Among all subsets
// whose shortest path fits the travel budget it returns the one with the
// maximum profit (Eq. 1). Complexity O(m^2 2^m) time, O(m 2^m) space
// (Theorem 2).
//
// A DP value keeps its tables between calls so repeated Selects (the
// simulation's per-user hot loop) are allocation-free; it is therefore not
// safe for concurrent use.
type DP struct {
	// MaxTasks bounds the filtered instance size; zero means
	// DefaultDPMaxTasks, values above DPHardMaxTasks are clamped to it.
	MaxTasks int

	// Reusable scratch, grown on demand and retained across calls.
	idxs      []int
	startDist []float64
	dist      []float64
	dp        []float64
	rewardSum []float64
	parent    []int8
	orderRev  []int
	order     []int
}

var _ Algorithm = (*DP)(nil)

// Name implements Algorithm.
func (*DP) Name() string { return "dp" }

// maxTasks resolves the configured cap, clamped to DPHardMaxTasks.
func (d *DP) maxTasks() int {
	if d.MaxTasks <= 0 {
		return DefaultDPMaxTasks
	}
	return min(d.MaxTasks, DPHardMaxTasks)
}

// Select implements Algorithm. It returns ErrTooManyTasks if more than
// maxTasks candidates survive reachability filtering.
func (d *DP) Select(p Problem) (Plan, error) {
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return d.selectValidated(&p)
}

// selectValidated is Select without re-validating (Auto validates once and
// dispatches here).
func (d *DP) selectValidated(p *Problem) (Plan, error) {
	d.idxs = reachableInto(p, d.idxs)
	idxs := d.idxs
	m := len(idxs)
	if m == 0 {
		return Plan{}, nil
	}
	if m > d.maxTasks() {
		if d.MaxTasks > DPHardMaxTasks {
			return Plan{}, fmt.Errorf("%w: %d candidates, configured cap %d clamped to hard cap %d",
				ErrTooManyTasks, m, d.MaxTasks, DPHardMaxTasks)
		}
		return Plan{}, fmt.Errorf("%w: %d candidates, cap %d", ErrTooManyTasks, m, d.maxTasks())
	}

	// Distance tables over the filtered candidates.
	d.startDist = growFloats(d.startDist, m)
	d.dist = growFloats(d.dist, m*m)
	startDist, dist := d.startDist, d.dist
	for a := 0; a < m; a++ {
		startDist[a] = p.Start.Dist(p.Candidates[idxs[a]].Location)
	}
	p.fillDist(dist, idxs)

	// dp stores consumed budget: travel distance plus the per-task
	// overhead of every visit so far. All states of one mask share the
	// same visit count, so travel distance is recoverable per mask.
	ovh := p.PerTaskDistance
	size := 1 << m
	d.dp = growFloats(d.dp, size*m)
	d.parent = growInt8s(d.parent, size*m)
	dp, parent := d.dp, d.parent
	for i := range dp {
		dp[i] = math.Inf(1)
		parent[i] = -1
	}
	for a := 0; a < m; a++ {
		dp[(1<<a)*m+a] = startDist[a] + ovh
	}

	// Subset reward sums, built incrementally from each mask's lowest bit.
	d.rewardSum = growFloats(d.rewardSum, size)
	rewardSum := d.rewardSum
	rewardSum[0] = 0
	for mask := 1; mask < size; mask++ {
		low := bits.TrailingZeros(uint(mask))
		rewardSum[mask] = rewardSum[mask&(mask-1)] + p.Candidates[idxs[low]].Reward
	}

	bestProfit := 0.0 // the empty plan is always feasible with profit 0
	bestMask := 0
	bestEnd := -1
	bestDist := 0.0
	for mask := 1; mask < size; mask++ {
		minDist := math.Inf(1)
		minEnd := -1
		for j := 0; j < m; j++ {
			if mask&(1<<j) == 0 {
				continue
			}
			dj := dp[mask*m+j]
			if math.IsInf(dj, 1) {
				continue
			}
			if dj < minDist {
				minDist = dj
				minEnd = j
			}
			// Extend to tasks outside the mask (Eq. 12).
			if dj <= p.MaxDistance {
				for q := 0; q < m; q++ {
					if mask&(1<<q) != 0 {
						continue
					}
					nd := dj + dist[j*m+q] + ovh
					nm := mask | 1<<q
					if nd < dp[nm*m+q] {
						dp[nm*m+q] = nd
						parent[nm*m+q] = int8(j)
					}
				}
			}
		}
		if minEnd < 0 || minDist > p.MaxDistance {
			continue
		}
		// Movement cost applies to travel only, not to sensing overhead.
		travel := minDist - ovh*float64(bits.OnesCount(uint(mask)))
		profit := rewardSum[mask] - travel*p.CostPerMeter
		// Strictly-better profit wins; ties prefer the shorter walk so the
		// result is deterministic and minimal.
		if profit > bestProfit+1e-12 ||
			(math.Abs(profit-bestProfit) <= 1e-12 && bestEnd >= 0 && minDist < bestDist) {
			bestProfit = profit
			bestMask = mask
			bestEnd = minEnd
			bestDist = minDist
		}
	}

	if bestMask == 0 {
		return Plan{}, nil
	}

	// Reconstruct the visiting order by walking parents back to the start.
	d.orderRev = d.orderRev[:0]
	mask, j := bestMask, bestEnd
	for j >= 0 {
		d.orderRev = append(d.orderRev, idxs[j])
		pj := parent[mask*m+j]
		mask &^= 1 << j
		j = int(pj)
	}
	d.order = growInts(d.order, len(d.orderRev))
	for i, v := range d.orderRev {
		d.order[len(d.orderRev)-1-i] = v
	}
	return buildPlan(p, d.order), nil
}
