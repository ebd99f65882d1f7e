package engine

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"paydemand/internal/geo"
	"paydemand/internal/incentive"
	"paydemand/internal/metrics"
	"paydemand/internal/selection"
	"paydemand/internal/task"
)

// stubMechanism prices every view at a fixed reward per task ID offset,
// reusing one map so steady-state repricing can be measured allocation-
// free. A nil rewards map makes it price nothing.
type stubMechanism struct {
	rewards map[task.ID]float64
	err     error
}

func (stubMechanism) Name() string { return "stub" }

func (stubMechanism) Requires() incentive.Capabilities { return 0 }

func (m stubMechanism) RewardsInto(in *incentive.RoundInput, out map[task.ID]float64) error {
	if m.err != nil {
		return m.err
	}
	for _, v := range in.Views {
		if r, ok := m.rewards[v.ID]; ok {
			out[v.ID] = r
		}
	}
	return nil
}

func (m stubMechanism) Rewards(in *incentive.RoundInput) (map[task.ID]float64, error) {
	out := make(map[task.ID]float64, len(in.Views))
	if err := m.RewardsInto(in, out); err != nil {
		return nil, err
	}
	return out, nil
}

func testBoard(t *testing.T) *task.Board {
	t.Helper()
	b, err := task.NewBoard([]task.Task{
		{ID: 1, Location: geo.Pt(100, 100), Deadline: 3, Required: 1},
		{ID: 2, Location: geo.Pt(500, 500), Deadline: 5, Required: 2},
		{ID: 3, Location: geo.Pt(900, 900), Deadline: 2, Required: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func testEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewNilBoard(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil board accepted")
	}
}

func TestRoundPipeline(t *testing.T) {
	board := testBoard(t)
	mech := stubMechanism{rewards: map[task.ID]float64{1: 10, 2: 20, 3: 30}}
	e := testEngine(t, Config{
		Board: board, Mechanism: mech,
		Area: geo.Square(1000), NeighborRadius: 100,
	})

	open := e.BeginRound(1)
	if len(open) != 3 {
		t.Fatalf("open = %d tasks, want 3", len(open))
	}
	if e.Rewards() != nil {
		t.Fatal("rewards published before reprice")
	}
	if err := e.Reprice([]geo.Point{geo.Pt(50, 50)}); err != nil {
		t.Fatal(err)
	}
	if got := e.MeanPublishedReward(); got != 20 {
		t.Errorf("mean reward = %v, want 20", got)
	}
	if r, ok := e.RewardFor(2); !ok || r != 20 {
		t.Errorf("RewardFor(2) = %v, %v", r, ok)
	}

	var rs metrics.RoundStats
	e.StartRoundStats(&rs)
	if rs.Round != 1 || rs.OpenTasks != 3 || rs.MeanPublishedReward != 20 {
		t.Errorf("start stats = %+v", rs)
	}

	// Task 1 needs one measurement: the commit pays the published reward
	// and completes the task.
	reward, completed, err := e.Commit(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if reward != 10 || !completed {
		t.Errorf("commit = reward %v, completed %v", reward, completed)
	}
	// Double-fill protection: the same user again, then any user on the
	// now-complete task.
	if _, _, err := e.Commit(7, 1); err == nil {
		t.Error("repeat commit accepted")
	}
	if _, _, err := e.Commit(8, 1); err == nil {
		t.Error("commit to complete task accepted")
	}
	if _, _, err := e.Commit(7, 99); err == nil {
		t.Error("commit to unknown task accepted")
	}

	e.FinishRoundStats(&rs)
	if rs.NewMeasurements != 1 || rs.RewardPaid != 10 {
		t.Errorf("finish stats = %+v", rs)
	}

	// Next round: task 1 is complete and drops from the snapshot.
	open = e.BeginRound(2)
	if len(open) != 2 || open[0].ID != 2 || open[1].ID != 3 {
		t.Fatalf("round 2 open = %v", open)
	}

	var tr metrics.TrialResult
	e.FinishTrial(&tr)
	if tr.TotalMeasurements != 1 || tr.TotalRewardPaid != 10 {
		t.Errorf("trial = %+v", tr)
	}
	if tr.Coverage != 1.0/3 {
		t.Errorf("coverage = %v", tr.Coverage)
	}
}

func TestProblemIntoFiltering(t *testing.T) {
	mech := stubMechanism{rewards: map[task.ID]float64{1: 10, 2: 20}} // task 3 unpriced
	spec := Spec{Start: geo.Pt(0, 0), MaxDistance: 5000, CostPerMeter: 0.001}

	for _, tc := range []struct {
		requirePriced bool
		wantIDs       []task.ID
	}{
		// The simulator offers unpriced open tasks at reward 0; the
		// platform drops them.
		{requirePriced: false, wantIDs: []task.ID{1, 2, 3}},
		{requirePriced: true, wantIDs: []task.ID{1, 2}},
	} {
		e := testEngine(t, Config{
			Board: testBoard(t), Mechanism: mech,
			Area: geo.Square(1000), NeighborRadius: 100,
			RequirePriced: tc.requirePriced,
		})
		e.BeginRound(1)
		if err := e.Reprice(nil); err != nil {
			t.Fatal(err)
		}
		p, _ := e.ProblemInto(spec, Worker(1), nil)
		if !p.CandidatesValid {
			t.Errorf("requirePriced=%v: problem not marked CandidatesValid", tc.requirePriced)
		}
		if len(p.Candidates) != len(tc.wantIDs) {
			t.Fatalf("requirePriced=%v: %d candidates, want %d",
				tc.requirePriced, len(p.Candidates), len(tc.wantIDs))
		}
		for i, want := range tc.wantIDs {
			c := p.Candidates[i]
			if c.ID != want || c.Reward != mech.rewards[want] {
				t.Errorf("requirePriced=%v: candidate %d = %+v", tc.requirePriced, i, c)
			}
		}

		// A task the actor contributed to drops out.
		if _, _, err := e.Commit(1, tc.wantIDs[0]); err != nil {
			t.Fatal(err)
		}
		p, _ = e.ProblemInto(spec, Worker(1), nil)
		if len(p.Candidates) != len(tc.wantIDs)-1 || p.Candidates[0].ID == tc.wantIDs[0] {
			t.Errorf("requirePriced=%v: after commit candidates = %v", tc.requirePriced, p.Candidates)
		}
	}
}

// TestCommitPlan pins CommitPlan's error contract: tasks commit in plan
// order, n counts the committed prefix, and on error ids[n] is the task
// that failed with nothing after it attempted.
func TestCommitPlan(t *testing.T) {
	board, err := task.NewBoard([]task.Task{
		{ID: 1, Location: geo.Pt(100, 100), Deadline: 9, Required: 1},
		{ID: 2, Location: geo.Pt(900, 100), Deadline: 9, Required: 2},
		{ID: 3, Location: geo.Pt(100, 900), Deadline: 9, Required: 1},
		{ID: 4, Location: geo.Pt(900, 900), Deadline: 9, Required: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	e := testEngine(t, Config{
		Board:     board,
		Mechanism: stubMechanism{rewards: map[task.ID]float64{1: 10, 2: 20, 3: 30, 4: 40}},
		Area:      geo.Square(1000), NeighborRadius: 100,
	})
	e.BeginRound(1)
	if err := e.Reprice(nil); err != nil {
		t.Fatal(err)
	}

	// A whole plan commits; tasks 1 and 3 complete on one measurement.
	if n, err := e.CommitPlan(7, []task.ID{3, 1, 4, 2}); n != 4 || err != nil {
		t.Fatalf("CommitPlan = %d, %v; want 4, nil", n, err)
	}
	for _, id := range []task.ID{1, 3} {
		if !board.Get(id).Complete() {
			t.Errorf("task %d not complete after its one measurement", id)
		}
	}
	if paid := board.TotalRewardPaid(); paid != 100 {
		t.Errorf("total paid = %v, want 100", paid)
	}

	// Unknown task mid-plan: the prefix before it commits, n is its index,
	// and the task after it is not attempted.
	n, err := e.CommitPlan(8, []task.ID{2, 99, 4})
	if n != 1 || err == nil {
		t.Fatalf("CommitPlan with unknown task = %d, %v; want 1, error", n, err)
	}
	if want := "engine: commit to unknown task 99"; err.Error() != want {
		t.Errorf("error = %q, want %q", err, want)
	}
	if !board.Get(2).Complete() {
		t.Error("prefix before the unknown task was not committed")
	}
	if got := board.Get(4).Received(); got != 1 {
		t.Errorf("task 4 received %d after the failed plan, want 1 (not attempted)", got)
	}

	// Double fill: user 7 already measured task 4, so the plan fails at
	// position 0 and pays nothing.
	if n, err := e.CommitPlan(7, []task.ID{4}); n != 0 || err == nil {
		t.Fatalf("repeat commit = %d, %v; want 0, error", n, err)
	}
	if paid := board.TotalRewardPaid(); paid != 120 {
		t.Errorf("total paid = %v, want 120", paid)
	}
}

func TestRepriceErrors(t *testing.T) {
	board := testBoard(t)
	area := geo.Square(1000)

	t.Run("no mechanism", func(t *testing.T) {
		e := testEngine(t, Config{Board: board})
		e.BeginRound(1)
		if err := e.Reprice(nil); err == nil {
			t.Fatal("reprice without mechanism accepted")
		}
	})
	t.Run("mechanism error unpublishes", func(t *testing.T) {
		good := stubMechanism{rewards: map[task.ID]float64{1: 10}}
		e := testEngine(t, Config{Board: board, Mechanism: good, Area: area, NeighborRadius: 100})
		e.BeginRound(1)
		if err := e.Reprice(nil); err != nil {
			t.Fatal(err)
		}
		e.SetMechanism(stubMechanism{err: fmt.Errorf("backend down")})
		e.BeginRound(2)
		if err := e.Reprice(nil); err == nil {
			t.Fatal("mechanism error swallowed")
		}
		if e.Rewards() != nil || e.MeanPublishedReward() != 0 {
			t.Error("stale state left published after failed reprice")
		}
	})
	t.Run("NaN reward", func(t *testing.T) {
		bad := stubMechanism{rewards: map[task.ID]float64{1: 1, 2: math.NaN()}}
		e := testEngine(t, Config{Board: board, Mechanism: bad, Area: area, NeighborRadius: 100})
		e.BeginRound(1)
		err := e.Reprice(nil)
		if err == nil {
			t.Fatal("NaN reward accepted")
		}
		if want := "mechanism stub: NaN reward for task 2"; err.Error() != want {
			t.Errorf("err = %q, want %q", err, want)
		}
		if e.Rewards() != nil {
			t.Error("rewards published despite NaN")
		}
	})
	t.Run("bad area surfaces at reprice", func(t *testing.T) {
		mech := stubMechanism{rewards: map[task.ID]float64{1: 1}}
		e := testEngine(t, Config{Board: board, Mechanism: mech}) // no area/radius
		e.BeginRound(1)
		if err := e.Reprice(nil); err == nil {
			t.Fatal("invalid grid configuration accepted")
		}
	})
	t.Run("no open tasks publishes nothing", func(t *testing.T) {
		e := testEngine(t, Config{Board: board, Mechanism: stubMechanism{err: fmt.Errorf("never called")}})
		e.BeginRound(100) // past every deadline
		if err := e.Reprice(nil); err != nil {
			t.Fatalf("empty-round reprice consulted the mechanism: %v", err)
		}
	})
}

// TestProblemSurvivesAdvance pins what lets the HTTP platform solve a
// plan outside its lock: a problem ProblemInto built into a caller-owned
// buffer references no engine storage, so committing, advancing, and
// repricing underneath it changes nothing about the plan it solves to.
func TestProblemSurvivesAdvance(t *testing.T) {
	board := testBoard(t)
	mech := stubMechanism{rewards: map[task.ID]float64{1: 10, 2: 20, 3: 30}}
	e := testEngine(t, Config{Board: board, Mechanism: mech, Area: geo.Square(1000), NeighborRadius: 100})
	spec := Spec{Start: geo.Pt(0, 0), MaxDistance: 5000, CostPerMeter: 0.001}

	e.BeginRound(1)
	if err := e.Reprice(nil); err != nil {
		t.Fatal(err)
	}
	p, _ := e.ProblemInto(spec, Worker(1), nil)
	want, err := (&selection.DP{}).Select(p)
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() != 3 {
		t.Fatalf("round-1 plan visits %d tasks, want all 3", want.Len())
	}

	// Complete task 1 and advance twice, repricing each round over the
	// same engine scratch: round 2 publishes tasks 2 and 3, round 3 only
	// task 2 (task 3's deadline has passed).
	if _, _, err := e.Commit(2, 1); err != nil {
		t.Fatal(err)
	}
	e.SetMechanism(stubMechanism{rewards: map[task.ID]float64{2: 1, 3: 2}})
	for _, r := range []struct{ round, open int }{{2, 2}, {3, 1}} {
		e.BeginRound(r.round)
		if err := e.Reprice([]geo.Point{geo.Pt(500, 500)}); err != nil {
			t.Fatal(err)
		}
		if len(e.Open()) != r.open {
			t.Fatalf("round %d open = %d tasks, want %d", r.round, len(e.Open()), r.open)
		}
	}

	got, err := (&selection.DP{}).Select(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round-1 problem solved after the advance = %+v, want %+v", got, want)
	}
}

// TestRepriceSteadyStateAllocs pins the zero-allocation contract: once
// buffers have grown, a reprice allocates nothing beyond what the
// mechanism itself returns (here nothing: the stub reuses one map).
func TestRepriceSteadyStateAllocs(t *testing.T) {
	board := testBoard(t)
	mech := stubMechanism{rewards: map[task.ID]float64{1: 10, 2: 20, 3: 30}}
	e := testEngine(t, Config{Board: board, Mechanism: mech, Area: geo.Square(1000), NeighborRadius: 100})
	locs := []geo.Point{geo.Pt(50, 50), geo.Pt(800, 800)}

	e.BeginRound(1)
	if err := e.Reprice(locs); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		e.BeginRound(1)
		if err := e.Reprice(locs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("steady-state reprice allocates %v objects/op, want 0", allocs)
	}
}
