package selection

import "math"

// Beam defaults and the exact-regime cutoff.
const (
	// DefaultBeamWidth is the number of partial routes kept per search
	// depth. Eight is the measured knee of the quality/time curve on the
	// BENCH_beam.json grid: wider beams buy well under 0.1% extra profit
	// while the per-solve time grows linearly in the width.
	DefaultBeamWidth = 8
	// DefaultBeamImprove is the number of alternating 2-opt / or-opt
	// polish rounds applied to the best route found. Each round runs
	// 2-opt to a local optimum and then tries single-task relocations;
	// two rounds capture essentially all of the improvement on the
	// benchmark grid.
	DefaultBeamImprove = 2
	// BeamExactMaxTasks is the largest filtered instance Beam solves
	// exactly by delegating to the Held-Karp DP over the same shared
	// round context. The DP table at this size is 2^10 x 10 entries
	// (~80 KB), far below any pruning payoff, and the delegation gives
	// the solver a provable contract on small instances: Beam equals the
	// optimum wherever the fuzz harness can afford to cross-check it.
	BeamExactMaxTasks = 10
)

// Beam is the deterministic beam-search task selection solver that breaks
// the DP task cap: where the exact solver's O(m^2 2^m) table forbids
// instances past DPHardMaxTasks, the beam keeps only the Width best
// partial routes per depth and runs in O(Width x m^2) time and O(Width x
// m) space, so dense boards (100+ open tasks in a user's travel radius)
// get near-optimal routes instead of silently degrading to pure greedy.
//
// The search expands routes one visit at a time over a per-call distance
// table of the reachable candidates, scoring a partial route by its
// realized profit and breaking every tie deterministically (higher profit,
// then less consumed budget, then the expansion discovered first in scan
// order). The best route found is polished with alternating 2-opt and
// or-opt passes, and the result is floored at the greedy + 2-opt plan — so
// Beam.Profit >= TwoOptGreedy.Profit >= Greedy.Profit always holds, and
// the FuzzSolverEquivalence harness enforces it. Instances of at most
// BeamExactMaxTasks candidates are delegated to the embedded DP, making
// the solver exact exactly where exactness is cheap.
//
// Like the other solvers a Beam keeps grow-only scratch between calls, so
// steady-state Selects allocate nothing beyond the returned Plan; it is
// not safe for concurrent use — give each goroutine its own instance.
type Beam struct {
	// Width is the number of partial routes kept per depth; zero or
	// negative means DefaultBeamWidth.
	Width int
	// Improve is the number of alternating 2-opt / or-opt polish rounds;
	// zero or negative means DefaultBeamImprove.
	Improve int

	dp     DP     // exact sub-solver for instances at most BeamExactMaxTasks
	greedy Greedy // baseline whose (2-opted) plan floors the result

	// Reusable scratch, grown on demand and retained across calls.
	idxs      []int
	startDist []float64
	dist      []float64 // m x m over the filtered candidates
	vis       []uint64  // two levels of per-state visited bitsets
	end       []int     // two levels of per-state last-visit indices
	travel    []float64 // two levels of per-state travel distances
	reward    []float64 // two levels of per-state reward sums
	chParent  []int32   // per (depth, slot): parent slot at depth-1
	chCand    []int32   // per (depth, slot): filtered candidate visited
	topParent []int     // top-Width selection buffer: parent slots
	topCand   []int     // top-Width selection buffer: candidates
	topTravel []float64 // top-Width selection buffer: travel distances
	topReward []float64 // top-Width selection buffer: reward sums
	topProfit []float64 // top-Width selection buffer: profits
	order     []int     // reconstructed + polished beam route
	gorder    []int     // greedy baseline route (2-opted copy)
}

var _ Algorithm = (*Beam)(nil)

// Name implements Algorithm.
func (bm *Beam) Name() string { return "beam" }

// width resolves the configured beam width.
func (bm *Beam) width() int {
	if bm.Width <= 0 {
		return DefaultBeamWidth
	}
	return bm.Width
}

// improveRounds resolves the configured polish rounds.
func (bm *Beam) improveRounds() int {
	if bm.Improve <= 0 {
		return DefaultBeamImprove
	}
	return bm.Improve
}

// Select implements Algorithm. Beam never rejects an instance for its
// size: past BeamExactMaxTasks the pruned search takes over from the DP.
func (bm *Beam) Select(p Problem) (Plan, error) {
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return bm.selectValidated(&p)
}

// selectValidated is Select without re-validating (Auto validates once
// and dispatches here).
func (bm *Beam) selectValidated(p *Problem) (Plan, error) {
	bm.idxs = reachableInto(p, bm.idxs)
	idxs := bm.idxs
	m := len(idxs)
	if m == 0 {
		return Plan{}, nil
	}
	if m <= BeamExactMaxTasks {
		// Exact regime: the Held-Karp table is tiny here, and the DP's
		// optimum trivially dominates both the beam and the greedy floor.
		bm.dp.MaxTasks = BeamExactMaxTasks
		return bm.dp.selectValidated(p)
	}

	// Distance tables over the filtered candidates, shared by the search,
	// the greedy floor, and the polish passes via Problem lookups.
	bm.startDist = growFloats(bm.startDist, m)
	bm.dist = growFloats(bm.dist, m*m)
	startDist, dist := bm.startDist, bm.dist
	for a := 0; a < m; a++ {
		startDist[a] = p.Start.Dist(p.Candidates[idxs[a]].Location)
	}
	p.fillDist(dist, idxs)

	bestLevel, bestSlot, bestProfit, bestTravel := bm.search(p, m, startDist, dist)

	// Reconstruct the best route by walking the recorded expansions back
	// to the root, then polish it.
	W := bm.width()
	bm.order = bm.order[:0]
	if bestSlot >= 0 {
		for l, s := bestLevel, bestSlot; l >= 1; l-- {
			bm.order = append(bm.order, idxs[bm.chCand[l*W+s]])
			s = int(bm.chParent[l*W+s])
		}
		for i, j := 0, len(bm.order)-1; i < j; i, j = i+1, j-1 {
			bm.order[i], bm.order[j] = bm.order[j], bm.order[i]
		}
		bm.polish(p, bm.order)
		bestTravel = orderTravel(p, bm.order)
		bestProfit = orderReward(p, bm.order) - bestTravel*p.CostPerMeter
	}

	// Greedy + 2-opt floor: the beam result is never allowed below the
	// plan the heuristic ladder would have produced.
	bm.gorder = append(bm.gorder[:0], bm.greedy.selectOrder(p)...)
	bm.polish(p, bm.gorder)
	gTravel := orderTravel(p, bm.gorder)
	gProfit := orderReward(p, bm.gorder) - gTravel*p.CostPerMeter

	// Deterministic winner: strictly better profit, then the shorter
	// walk, then the greedy baseline (the stabler of the two).
	switch {
	case bestSlot >= 0 && bestProfit > gProfit+1e-12:
		return buildPlan(p, bm.order), nil
	case bestSlot >= 0 && math.Abs(bestProfit-gProfit) <= 1e-12 && bestTravel < gTravel:
		return buildPlan(p, bm.order), nil
	default:
		return buildPlan(p, bm.gorder), nil
	}
}

// search runs the pruned beam expansion and returns the (level, slot)
// coordinates, profit, and travel of the best feasible route found. A
// returned slot of -1 means no positive-profit route exists.
func (bm *Beam) search(p *Problem, m int, startDist, dist []float64) (bestLevel, bestSlot int, bestProfit, bestTravel float64) {
	W := bm.width()
	words := (m + 63) / 64
	ovh := p.PerTaskDistance
	cpm := p.CostPerMeter

	// Two levels of state storage (current and next), plus the expansion
	// log (chParent/chCand) for every level so the winner's route can be
	// reconstructed without per-state order copies.
	bm.vis = growUint64s(bm.vis, 2*W*words)
	bm.end = growInts(bm.end, 2*W)
	bm.travel = growFloats(bm.travel, 2*W)
	bm.reward = growFloats(bm.reward, 2*W)
	bm.chParent = growInt32s(bm.chParent, (m+1)*W)
	bm.chCand = growInt32s(bm.chCand, (m+1)*W)
	bm.topParent = growInts(bm.topParent, W)
	bm.topCand = growInts(bm.topCand, W)
	bm.topTravel = growFloats(bm.topTravel, W)
	bm.topReward = growFloats(bm.topReward, W)
	bm.topProfit = growFloats(bm.topProfit, W)

	cur, next := 0, 1 // which half of the two-level arrays is current
	for i := 0; i < words; i++ {
		bm.vis[i] = 0
	}
	bm.end[0] = -1
	bm.travel[0] = 0
	bm.reward[0] = 0
	count := 1 // states at the current level; level 0 is the empty route

	bestProfit, bestSlot, bestLevel, bestTravel = 0, -1, 0, 0
	for depth := 1; depth <= m; depth++ {
		topCount := 0
		for s := 0; s < count; s++ {
			sv := bm.vis[(cur*W+s)*words : (cur*W+s+1)*words]
			sEnd := bm.end[cur*W+s]
			sTravel := bm.travel[cur*W+s]
			sReward := bm.reward[cur*W+s]
			sBudget := sTravel + ovh*float64(depth-1)
			for j := 0; j < m; j++ {
				if sv[j>>6]&(1<<(j&63)) != 0 {
					continue
				}
				leg := startDist[j]
				if sEnd >= 0 {
					leg = dist[sEnd*m+j]
				}
				if sBudget+leg+ovh > p.MaxDistance {
					continue
				}
				nt := sTravel + leg
				nr := sReward + p.Candidates[bm.idxs[j]].Reward
				topCount = bm.pushTop(topCount, s, j, nt, nr, nr-nt*cpm)
			}
		}
		if topCount == 0 {
			break
		}
		for k := 0; k < topCount; k++ {
			parent, cand := bm.topParent[k], bm.topCand[k]
			pv := bm.vis[(cur*W+parent)*words : (cur*W+parent+1)*words]
			nv := bm.vis[(next*W+k)*words : (next*W+k+1)*words]
			copy(nv, pv)
			nv[cand>>6] |= 1 << (cand & 63)
			bm.end[next*W+k] = cand
			bm.travel[next*W+k] = bm.topTravel[k]
			bm.reward[next*W+k] = bm.topReward[k]
			bm.chParent[depth*W+k] = int32(parent)
			bm.chCand[depth*W+k] = int32(cand)
			profit := bm.topProfit[k]
			if profit > bestProfit+1e-12 ||
				(bestSlot >= 0 && math.Abs(profit-bestProfit) <= 1e-12 && bm.topTravel[k] < bestTravel) {
				bestProfit, bestTravel = profit, bm.topTravel[k]
				bestLevel, bestSlot = depth, k
			}
		}
		cur, next = next, cur
		count = topCount
	}
	return bestLevel, bestSlot, bestProfit, bestTravel
}

// pushTop inserts one candidate expansion into the sorted top-Width
// buffer (profit descending, then travel ascending, earlier expansions
// winning exact ties) and returns the new entry count. Expansions are
// generated in deterministic (state slot, candidate) scan order, so the
// kept set — and therefore the whole search — is deterministic.
func (bm *Beam) pushTop(count, parent, cand int, travel, reward, profit float64) int {
	W := bm.width()
	pos := count
	for pos > 0 {
		q := pos - 1
		if profit > bm.topProfit[q] || (profit == bm.topProfit[q] && travel < bm.topTravel[q]) {
			pos = q
			continue
		}
		break
	}
	if pos >= W {
		return count
	}
	if count < W {
		count++
	}
	for i := count - 1; i > pos; i-- {
		bm.topParent[i] = bm.topParent[i-1]
		bm.topCand[i] = bm.topCand[i-1]
		bm.topTravel[i] = bm.topTravel[i-1]
		bm.topReward[i] = bm.topReward[i-1]
		bm.topProfit[i] = bm.topProfit[i-1]
	}
	bm.topParent[pos] = parent
	bm.topCand[pos] = cand
	bm.topTravel[pos] = travel
	bm.topReward[pos] = reward
	bm.topProfit[pos] = profit
	return count
}

// polish improves a route in place with alternating 2-opt and or-opt
// passes. Both moves only ever shorten the walk of an unchanged task set,
// so the polished route keeps its reward, stays within budget, and its
// profit is monotonically non-decreasing.
func (bm *Beam) polish(p *Problem, order []int) {
	if len(order) < 2 {
		return
	}
	for r := bm.improveRounds(); r > 0; r-- {
		improveOrder(p, order)
		if !relocateOrder(p, order) {
			return
		}
	}
}

// relocateOrder applies or-opt single-task relocations in place: each
// task is tried at every other position of the open tour, taking any move
// that shortens the walk, until a full sweep finds none. It reports
// whether any move was taken (callers re-run 2-opt then, since a
// relocation can open new crossing removals). Every accepted move
// strictly shortens the walk, so the loop terminates.
func relocateOrder(p *Problem, order []int) bool {
	n := len(order)
	if n < 2 {
		return false
	}
	at := func(i int) int {
		if i < 0 {
			return -1
		}
		return order[i]
	}
	changed := false
	improved := true
	for improved {
		improved = false
	scan:
		for i := 0; i < n; i++ {
			// Removing order[i] splices edges (i-1,i) and (i,i+1) into
			// (i-1,i+1); the final task has no outgoing edge.
			removed := p.legDist(at(i-1), at(i))
			bridge := 0.0
			if i+1 < n {
				removed += p.legDist(at(i), at(i+1))
				bridge = p.legDist(at(i-1), at(i+1))
			}
			// Re-insert after element k (k = -1 inserts right after the
			// start). k = i and k = i-1 both reproduce the original
			// position; k = i-1 also dodges a successor collision, so
			// succ below can never be i.
			for k := -1; k < n; k++ {
				if k == i || k == i-1 {
					continue
				}
				succ := k + 1
				added := p.legDist(at(k), at(i))
				old := 0.0
				if succ < n {
					added += p.legDist(at(i), at(succ))
					old = p.legDist(at(k), at(succ))
				}
				if (added-old)-(removed-bridge) < -1e-12 {
					moveOrder(order, i, k)
					changed = true
					improved = true
					break scan
				}
			}
		}
	}
	return changed
}

// moveOrder removes order[i] and re-inserts it directly after the element
// currently at position k (k = -1 moves it to the front), shifting the
// tasks in between by one.
func moveOrder(order []int, i, k int) {
	v := order[i]
	if k < i {
		copy(order[k+2:i+1], order[k+1:i])
		order[k+1] = v
	} else {
		copy(order[i:k], order[i+1:k+1])
		order[k] = v
	}
}

// orderTravel walks a candidate-index route and returns its travel
// distance (movement only, excluding per-task overhead).
func orderTravel(p *Problem, order []int) float64 {
	total := 0.0
	prev := -1
	for _, idx := range order {
		total += p.legDist(prev, idx)
		prev = idx
	}
	return total
}

// orderReward sums the rewards of a candidate-index route.
func orderReward(p *Problem, order []int) float64 {
	total := 0.0
	for _, idx := range order {
		total += p.Candidates[idx].Reward
	}
	return total
}

// growUint64s is growFloats for uint64 slices.
func growUint64s(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n)
	}
	return buf[:n]
}

// growInt32s is growFloats for int32 slices.
func growInt32s(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}
