package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"paydemand/internal/demand"
	"paydemand/internal/engine"
	"paydemand/internal/geo"
	"paydemand/internal/incentive"
	"paydemand/internal/stats"
	"paydemand/internal/task"
)

// recordingMechanism captures the views it is handed (one global call per
// round — a per-shard call would be a bug) and prices every task at a
// fixed function of its ID, reusing one map so the allocation pin can
// measure the steady state.
type recordingMechanism struct {
	calls   int
	views   []incentive.TaskView
	rewards map[task.ID]float64
}

func (m *recordingMechanism) Name() string { return "recording" }

func (m *recordingMechanism) Requires() incentive.Capabilities { return 0 }

func (m *recordingMechanism) RewardsInto(in *incentive.RoundInput, out map[task.ID]float64) error {
	m.calls++
	m.views = append(m.views[:0], in.Views...)
	for _, v := range in.Views {
		out[v.ID] = float64(v.ID) * 10
	}
	return nil
}

func (m *recordingMechanism) Rewards(in *incentive.RoundInput) (map[task.ID]float64, error) {
	if m.rewards == nil {
		m.rewards = make(map[task.ID]float64, len(in.Views))
	}
	clear(m.rewards)
	if err := m.RewardsInto(in, m.rewards); err != nil {
		return nil, err
	}
	return m.rewards, nil
}

func randomTasks(rng *stats.RNG, n int, area geo.Rect, required int) []task.Task {
	ts := make([]task.Task, n)
	for i := range ts {
		ts[i] = task.Task{
			ID: task.ID(i + 1),
			Location: geo.Pt(
				area.Min.X+rng.Float64()*area.Width(),
				area.Min.Y+rng.Float64()*area.Height(),
			),
			Deadline: 100,
			Required: required,
		}
	}
	return ts
}

// randomUsers scatters users over the area expanded by margin on all
// sides, so some land outside the declared bounds (the partition must
// clamp, not drop, them — the unsharded engine counts them too).
func randomUsers(rng *stats.RNG, n int, area geo.Rect, margin float64) []geo.Point {
	ext := area.Expand(margin)
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Pt(
			ext.Min.X+rng.Float64()*ext.Width(),
			ext.Min.Y+rng.Float64()*ext.Height(),
		)
	}
	return pts
}

func newBoard(t *testing.T, tasks []task.Task) *task.Board {
	t.Helper()
	b, err := task.NewBoard(tasks)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNewValidation(t *testing.T) {
	area := geo.Square(1000)
	board := newBoard(t, randomTasks(stats.NewRNG(1), 3, area, 1))
	if _, err := New(Config{Area: area, Shards: 1}); err == nil {
		t.Error("nil board accepted")
	}
	if _, err := New(Config{Board: board, Area: area, Shards: 0}); err == nil {
		t.Error("zero shards accepted")
	}
	if _, err := New(Config{Board: board, Area: geo.Rect{Min: geo.Pt(1, 1), Max: geo.Pt(0, 0)}, Shards: 1}); err == nil {
		t.Error("invalid area accepted")
	}
	if _, err := New(Config{Board: board, Area: area, Shards: 4}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestFactor(t *testing.T) {
	wide := geo.Rect{Max: geo.Pt(2000, 1000)}
	tall := geo.Rect{Max: geo.Pt(1000, 2000)}
	square := geo.Square(1000)
	cases := []struct {
		r          int
		area       geo.Rect
		cols, rows int
	}{
		{1, square, 1, 1},
		{4, square, 2, 2},
		{6, wide, 3, 2},
		{6, tall, 2, 3},
		{7, square, 7, 1},
		{7, tall, 1, 7},
		{12, square, 4, 3},
		{16, square, 4, 4},
	}
	for _, c := range cases {
		cols, rows := factor(c.r, c.area)
		if cols != c.cols || rows != c.rows {
			t.Errorf("factor(%d, %v) = %dx%d, want %dx%d", c.r, c.area, cols, rows, c.cols, c.rows)
		}
	}
}

// TestRegionRectsTile verifies the owned rectangles tile the area exactly:
// adjacent regions share edges and the outer edges are pinned to the area
// bounds, so no float sliver is left unowned.
func TestRegionRectsTile(t *testing.T) {
	area := geo.Rect{Min: geo.Pt(-300, 100), Max: geo.Pt(700, 800)}
	board := newBoard(t, randomTasks(stats.NewRNG(2), 10, area, 1))
	for _, R := range []int{1, 2, 4, 6, 9, 16} {
		s, err := New(Config{Board: board, Area: area, NeighborRadius: 50, Shards: R})
		if err != nil {
			t.Fatal(err)
		}
		for row := 0; row < s.rows; row++ {
			for col := 0; col < s.cols; col++ {
				r := s.regions[row*s.cols+col].rect
				if col == 0 && r.Min.X != area.Min.X {
					t.Errorf("R=%d (%d,%d): Min.X = %v, want %v", R, col, row, r.Min.X, area.Min.X)
				}
				if col == s.cols-1 && r.Max.X != area.Max.X {
					t.Errorf("R=%d (%d,%d): Max.X = %v, want %v", R, col, row, r.Max.X, area.Max.X)
				}
				if row == 0 && r.Min.Y != area.Min.Y {
					t.Errorf("R=%d (%d,%d): Min.Y = %v, want %v", R, col, row, r.Min.Y, area.Min.Y)
				}
				if row == s.rows-1 && r.Max.Y != area.Max.Y {
					t.Errorf("R=%d (%d,%d): Max.Y = %v, want %v", R, col, row, r.Max.Y, area.Max.Y)
				}
				if col > 0 {
					left := s.regions[row*s.cols+col-1].rect
					if left.Max.X != r.Min.X {
						t.Errorf("R=%d (%d,%d): column seam %v != %v", R, col, row, left.Max.X, r.Min.X)
					}
				}
				if row > 0 {
					below := s.regions[(row-1)*s.cols+col].rect
					if below.Max.Y != r.Min.Y {
						t.Errorf("R=%d (%d,%d): row seam %v != %v", R, col, row, below.Max.Y, r.Min.Y)
					}
				}
			}
		}
	}
}

// TestShardedMatchesUnsharded is the core equivalence guarantee: at every
// shard count and worker count, the views handed to the mechanism — one
// global call, in global board order — are identical to the unsharded
// engine's, and so are the published rewards.
func TestShardedMatchesUnsharded(t *testing.T) {
	area := geo.Square(1000)
	rng := stats.NewRNG(99)
	tasks := randomTasks(rng, 40, area, 2)
	users := randomUsers(rng, 500, area, 120)

	refMech := &recordingMechanism{}
	ref, err := engine.New(engine.Config{
		Board: newBoard(t, tasks), Mechanism: refMech,
		Area: area, NeighborRadius: 150,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref.BeginRound(1)
	if err := ref.Reprice(users); err != nil {
		t.Fatal(err)
	}
	want := append([]incentive.TaskView(nil), refMech.views...)

	for _, R := range []int{1, 2, 3, 4, 7, 16} {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("shards=%d/workers=%d", R, workers), func(t *testing.T) {
				mech := &recordingMechanism{}
				s, err := New(Config{
					Board: newBoard(t, tasks), Mechanism: mech,
					Area: area, NeighborRadius: 150,
					Shards: R, Workers: workers,
				})
				if err != nil {
					t.Fatal(err)
				}
				s.BeginRound(1)
				if err := s.Reprice(users); err != nil {
					t.Fatal(err)
				}
				if mech.calls != 1 {
					t.Fatalf("mechanism called %d times, want 1 (global pricing)", mech.calls)
				}
				if len(mech.views) != len(want) {
					t.Fatalf("%d views, want %d", len(mech.views), len(want))
				}
				for i := range want {
					if mech.views[i] != want[i] {
						t.Errorf("view[%d] = %+v, want %+v", i, mech.views[i], want[i])
					}
				}
				if got, wantMean := s.MeanPublishedReward(), ref.MeanPublishedReward(); got != wantMean {
					t.Errorf("mean reward = %v, want %v", got, wantMean)
				}
				for _, tk := range tasks {
					got, gok := s.RewardFor(tk.ID)
					wantR, wok := ref.RewardFor(tk.ID)
					if got != wantR || gok != wok {
						t.Errorf("RewardFor(%d) = %v,%v want %v,%v", tk.ID, got, gok, wantR, wok)
					}
				}
			})
		}
	}
}

// TestMultiRoundCampaignEquivalence drives a sharded and an unsharded
// engine through the same multi-round campaign — repricing with the
// paper's Fixed mechanism (shared-RNG draws in view order, the most
// order-sensitive pricing we have), committing plans, tasks closing and
// expiring — and requires identical rewards, plan outcomes, and final
// board state.
func TestMultiRoundCampaignEquivalence(t *testing.T) {
	area := geo.Square(2000)
	setup := stats.NewRNG(7)
	tasks := randomTasks(setup, 30, area, 2)
	const rounds = 5
	userSets := make([][]geo.Point, rounds)
	for k := range userSets {
		userSets[k] = randomUsers(setup, 200, area, 200)
	}

	newMech := func(t *testing.T) incentive.Mechanism {
		t.Helper()
		scheme, err := incentive.SchemeFromBudget(1000, 30*2, 0.5, demand.LevelMapper{N: 5})
		if err != nil {
			t.Fatal(err)
		}
		mech, err := incentive.NewFixed(scheme)
		if err != nil {
			t.Fatal(err)
		}
		return mech
	}

	type roundRecord struct {
		Rewards []float64
		Mean    float64
		Plans   [][2]interface{} // (n, err string) per plan
	}
	run := func(t *testing.T, eng engine.RoundEngine, ids []task.ID) ([]roundRecord, []byte) {
		t.Helper()
		recs := make([]roundRecord, 0, rounds)
		for k := 1; k <= rounds; k++ {
			open := eng.BeginRound(k)
			if err := eng.Reprice(userSets[k-1]); err != nil {
				t.Fatal(err)
			}
			rec := roundRecord{Mean: eng.MeanPublishedReward()}
			for _, id := range ids {
				r, _ := eng.RewardFor(id)
				rec.Rewards = append(rec.Rewards, r)
			}
			// Deterministic plans over the open snapshot: user u walks the
			// snapshot with stride u+1, so plans span distant tasks (and
			// with them, distant regions).
			for u := 0; u < 4 && len(open) > 0; u++ {
				var plan []task.ID
				for j := 0; j < 3; j++ {
					st := open[(u+j*(u+1))%len(open)]
					dup := false
					for _, id := range plan {
						if id == st.ID {
							dup = true
						}
					}
					if !dup {
						plan = append(plan, st.ID)
					}
				}
				n, err := eng.CommitPlan(1000*k+u, plan)
				es := ""
				if err != nil {
					es = err.Error()
				}
				rec.Plans = append(rec.Plans, [2]interface{}{n, es})
			}
			recs = append(recs, rec)
		}
		snap, err := json.Marshal(eng.Board().Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return recs, snap
	}

	refBoard := newBoard(t, tasks)
	ref, err := engine.New(engine.Config{
		Board: refBoard, Mechanism: newMech(t), Area: area, NeighborRadius: 200,
		RNG: stats.NewRNG(31),
	})
	if err != nil {
		t.Fatal(err)
	}
	wantRecs, wantSnap := run(t, ref, refBoard.IDs())

	for _, R := range []int{1, 2, 4, 9} {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("shards=%d/workers=%d", R, workers), func(t *testing.T) {
				board := newBoard(t, tasks)
				s, err := New(Config{
					Board: board, Mechanism: newMech(t), Area: area, NeighborRadius: 200,
					Shards: R, Workers: workers,
					RNG: stats.NewRNG(31),
				})
				if err != nil {
					t.Fatal(err)
				}
				recs, snap := run(t, s, board.IDs())
				for k := range wantRecs {
					if fmt.Sprintf("%v", recs[k]) != fmt.Sprintf("%v", wantRecs[k]) {
						t.Errorf("round %d diverged:\ngot  %v\nwant %v", k+1, recs[k], wantRecs[k])
					}
				}
				if !bytes.Equal(snap, wantSnap) {
					t.Errorf("final board snapshot differs from unsharded engine")
				}
			})
		}
	}
}

// TestBoundarySeamExactness is the halo stress fixture: every task sits
// within one travel radius of a region seam, users cluster on the seams
// (several exactly at distance R, which must NOT count — the paper's
// demand factor is strict), and every neighbor count must equal the
// brute-force count over the full user set.
func TestBoundarySeamExactness(t *testing.T) {
	area := geo.Square(1000)
	const R = 150.0
	// Shards=4 on a square splits 2x2: seams at x=500 and y=500.
	tasks := []task.Task{
		{ID: 1, Location: geo.Pt(500, 120), Deadline: 9, Required: 5},
		{ID: 2, Location: geo.Pt(490, 480), Deadline: 9, Required: 5},
		{ID: 3, Location: geo.Pt(510, 510), Deadline: 9, Required: 5},
		{ID: 4, Location: geo.Pt(120, 500), Deadline: 9, Required: 5},
		{ID: 5, Location: geo.Pt(870, 499), Deadline: 9, Required: 5},
		{ID: 6, Location: geo.Pt(500, 500), Deadline: 9, Required: 5},
		{ID: 7, Location: geo.Pt(360, 500), Deadline: 9, Required: 5},
		{ID: 8, Location: geo.Pt(500, 640), Deadline: 9, Required: 5},
	}
	users := []geo.Point{
		// Exactly R from tasks 6 and 7: strict < must exclude them.
		geo.Pt(650, 500), geo.Pt(360, 650),
		// Just inside / just outside R of task 6, straddling the seams.
		geo.Pt(500+R-1e-9, 500), geo.Pt(500, 500-R+1e-9), geo.Pt(500, 500+R+1e-9),
		// Seam walkers.
		geo.Pt(500, 100), geo.Pt(500, 400), geo.Pt(500, 600), geo.Pt(400, 500),
		geo.Pt(499.999, 499.999), geo.Pt(500.001, 500.001),
		// Corner cluster where all four regions meet.
		geo.Pt(495, 495), geo.Pt(505, 495), geo.Pt(495, 505), geo.Pt(505, 505),
		// Outside the declared area entirely.
		geo.Pt(-40, 500), geo.Pt(1040, 499), geo.Pt(500, -20),
	}
	rng := stats.NewRNG(13)
	for i := 0; i < 200; i++ {
		// Dense band around both seams.
		if i%2 == 0 {
			users = append(users, geo.Pt(500+rng.Uniform(-R, R), rng.Float64()*1000))
		} else {
			users = append(users, geo.Pt(rng.Float64()*1000, 500+rng.Uniform(-R, R)))
		}
	}

	for _, workers := range []int{1, 8} {
		mech := &recordingMechanism{}
		s, err := New(Config{
			Board: newBoard(t, tasks), Mechanism: mech,
			Area: area, NeighborRadius: R, Shards: 4, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if s.cols != 2 || s.rows != 2 {
			t.Fatalf("topology = %dx%d, want 2x2", s.cols, s.rows)
		}
		s.BeginRound(1)
		if err := s.Reprice(users); err != nil {
			t.Fatal(err)
		}
		if len(mech.views) != len(tasks) {
			t.Fatalf("workers=%d: %d views, want %d", workers, len(mech.views), len(tasks))
		}
		for i, v := range mech.views {
			want := geo.CountWithinBrute(users, tasks[i].Location, R)
			if v.Neighbors != want {
				t.Errorf("workers=%d: task %d neighbors = %d, brute force = %d",
					workers, v.ID, v.Neighbors, want)
			}
		}
	}
}

// TestCommitPlanCrossShard commits a plan spanning all four regions and
// checks global board effects and engine-identical error semantics for
// unknown tasks and double fills.
func TestCommitPlanCrossShard(t *testing.T) {
	area := geo.Square(1000)
	tasks := []task.Task{
		{ID: 1, Location: geo.Pt(100, 100), Deadline: 9, Required: 1}, // region 0
		{ID: 2, Location: geo.Pt(900, 100), Deadline: 9, Required: 2}, // region 1
		{ID: 3, Location: geo.Pt(100, 900), Deadline: 9, Required: 1}, // region 2
		{ID: 4, Location: geo.Pt(900, 900), Deadline: 9, Required: 2}, // region 3
	}
	mech := &recordingMechanism{}
	board := newBoard(t, tasks)
	s, err := New(Config{Board: board, Mechanism: mech, Area: area, NeighborRadius: 100, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	s.BeginRound(1)
	if err := s.Reprice(nil); err != nil {
		t.Fatal(err)
	}

	// A plan crossing every region: tasks 1 and 3 complete on one
	// measurement each.
	n, err := s.CommitPlan(7, []task.ID{3, 1, 4, 2})
	if n != 4 || err != nil {
		t.Fatalf("CommitPlan = %d, %v", n, err)
	}
	for _, id := range []task.ID{1, 3} {
		if !board.Get(id).Complete() {
			t.Errorf("task %d not complete after its one measurement", id)
		}
	}
	if paid := board.TotalRewardPaid(); paid != 10+20+30+40 {
		t.Errorf("total paid = %v, want 100", paid)
	}

	// Unknown task mid-plan: the known prefix commits, the failing index
	// and message match the unsharded engine's sequential loop.
	n, err = s.CommitPlan(8, []task.ID{2, 99, 4})
	if n != 1 || err == nil {
		t.Fatalf("CommitPlan with unknown task = %d, %v", n, err)
	}
	if want := "engine: commit to unknown task 99"; err.Error() != want {
		t.Errorf("error = %q, want %q", err.Error(), want)
	}
	if st := board.Get(2); !st.Complete() {
		t.Error("prefix before unknown task was not committed")
	}

	// Double fill inside a plan: task 4 needs one more measurement, so a
	// second commit by the same user fails at its position.
	n, err = s.CommitPlan(7, []task.ID{4})
	if n != 0 || err == nil {
		t.Fatalf("repeat commit = %d, %v", n, err)
	}

	// Mirror the same sequence on an unsharded engine: identical n and
	// error text at every step.
	ref, err := engine.New(engine.Config{
		Board: newBoard(t, tasks), Mechanism: &recordingMechanism{}, Area: area, NeighborRadius: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref.BeginRound(1)
	if err := ref.Reprice(nil); err != nil {
		t.Fatal(err)
	}
	for step, plan := range [][]task.ID{{3, 1, 4, 2}, {2, 99, 4}, {4}} {
		wn, werr := ref.CommitPlan(7+step%2, plan) // users 7, 8, 7 as above
		sn := []int{4, 1, 0}[step]
		if wn != sn {
			t.Fatalf("reference engine diverged from expectation at step %d: %d vs %d", step, wn, sn)
		}
		_ = werr
	}
}

// TestCommitUnknownAndRepriceErrors pins the error texts shared with the
// unsharded engine, and the empty-round fast path.
func TestCommitUnknownAndRepriceErrors(t *testing.T) {
	area := geo.Square(1000)
	board := newBoard(t, randomTasks(stats.NewRNG(3), 4, area, 1))
	s, err := New(Config{Board: board, Area: area, NeighborRadius: 100, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Commit(1, 99); err == nil || err.Error() != "engine: commit to unknown task 99" {
		t.Errorf("unknown-task error = %v", err)
	}
	s.BeginRound(1)
	if err := s.Reprice(nil); err == nil || err.Error() != "engine: reprice without a mechanism" {
		t.Errorf("no-mechanism error = %v", err)
	}
	// All tasks expired: open snapshot is empty and reprice is a no-op
	// even without a mechanism, exactly like the unsharded engine.
	s.BeginRound(101)
	if err := s.Reprice(nil); err != nil {
		t.Errorf("empty-round reprice = %v", err)
	}
}

// TestSetBoardRebinds swaps in a restored board (the platform's snapshot
// path) and verifies ownership, halos, and pricing all re-derive: the
// swapped engine must match a fresh engine built on the same board.
func TestSetBoardRebinds(t *testing.T) {
	area := geo.Square(1000)
	rng := stats.NewRNG(17)
	first := randomTasks(rng, 10, area, 1)
	second := randomTasks(rng, 25, area, 2)
	users := randomUsers(rng, 300, area, 100)

	mech := &recordingMechanism{}
	s, err := New(Config{Board: newBoard(t, first), Mechanism: mech, Area: area, NeighborRadius: 150, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	s.BeginRound(1)
	if err := s.Reprice(users); err != nil {
		t.Fatal(err)
	}

	s.SetBoard(newBoard(t, second))
	s.BeginRound(1)
	if err := s.Reprice(users); err != nil {
		t.Fatal(err)
	}
	got := append([]incentive.TaskView(nil), mech.views...)

	freshMech := &recordingMechanism{}
	fresh, err := New(Config{Board: newBoard(t, second), Mechanism: freshMech, Area: area, NeighborRadius: 150, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	fresh.BeginRound(1)
	if err := fresh.Reprice(users); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(freshMech.views) {
		t.Fatalf("%d views after SetBoard, fresh engine has %d", len(got), len(freshMech.views))
	}
	for i := range got {
		if got[i] != freshMech.views[i] {
			t.Errorf("view[%d] = %+v, fresh = %+v", i, got[i], freshMech.views[i])
		}
	}
}

// TestRepriceSteadyStateAllocs extends the engine's zero-allocation
// contract to the sharded pipeline: with the worker pool inline, a
// steady-state BeginRound+Reprice allocates nothing — partition buffers,
// index scratch, views, and region snapshots are all grow-only.
func TestRepriceSteadyStateAllocs(t *testing.T) {
	area := geo.Square(1000)
	rng := stats.NewRNG(23)
	board := newBoard(t, randomTasks(rng, 20, area, 1000))
	users := randomUsers(rng, 400, area, 100)
	mech := &recordingMechanism{}
	s, err := New(Config{
		Board: board, Mechanism: mech,
		Area: area, NeighborRadius: 150,
		Shards: 4, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.BeginRound(1)
	if err := s.Reprice(users); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		s.BeginRound(1)
		if err := s.Reprice(users); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("steady-state sharded reprice allocates %v objects/op, want 0", allocs)
	}
}

func TestShardsAccessor(t *testing.T) {
	area := geo.Square(1000)
	board := newBoard(t, randomTasks(stats.NewRNG(29), 5, area, 1))
	s, err := New(Config{Board: board, Area: area, NeighborRadius: 100, Shards: 6})
	if err != nil {
		t.Fatal(err)
	}
	if s.Shards() != 6 {
		t.Errorf("Shards = %d, want 6", s.Shards())
	}
	if s.Board() != board {
		t.Error("Board does not expose the global board")
	}
}
