package server

import (
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"paydemand/internal/geo"
	"paydemand/internal/selection"
	"paydemand/internal/wire"
	"paydemand/internal/wire/binary"
)

// planRequest is a valid baseline request tests mutate per case.
func planRequest(userID int) wire.PlanRequest {
	return wire.PlanRequest{
		UserID:       userID,
		Location:     geo.Pt(500, 500),
		Speed:        10,
		TimeBudget:   500,
		CostPerMeter: 0.01,
	}
}

func TestPlanEndpoint(t *testing.T) {
	p := testPlatform(t)
	srv := httptest.NewServer(p)
	defer srv.Close()

	var reg wire.RegisterResponse
	doJSON(t, srv, http.MethodPost, wire.PathRegister,
		wire.RegisterRequest{Location: geo.Pt(500, 500)}, &reg)

	var plan wire.PlanResponse
	code := doJSON(t, srv, http.MethodPost, wire.PathPlan, planRequest(reg.UserID), &plan)
	if code != http.StatusOK {
		t.Fatalf("plan: code %d", code)
	}
	if plan.Round != 1 {
		t.Errorf("plan round %d, want 1", plan.Round)
	}
	// The generous budget admits all three tasks; the plan must be
	// positive-profit and consistent with the published rewards.
	if len(plan.Order) == 0 {
		t.Fatal("empty plan despite generous budget")
	}
	if plan.Profit <= 0 || plan.Profit != plan.Reward-plan.Cost {
		t.Errorf("plan accounting: profit %v, reward %v, cost %v",
			plan.Profit, plan.Reward, plan.Cost)
	}
	round := p.Round()
	rewards := make(map[int]float64)
	for _, ti := range round.Tasks {
		rewards[int(ti.ID)] = ti.Reward
	}
	var want float64
	for _, id := range plan.Order {
		r, ok := rewards[int(id)]
		if !ok {
			t.Fatalf("plan includes unpublished task %d", id)
		}
		want += r
	}
	if math.Abs(plan.Reward-want) > 1e-9 {
		t.Errorf("plan reward %v, published sum %v", plan.Reward, want)
	}

	// A tiny budget from a position away from every task leaves nothing
	// reachable: empty plan, not an error.
	tiny := planRequest(reg.UserID)
	tiny.Location = geo.Pt(0, 0)
	tiny.TimeBudget = 0.001
	var empty wire.PlanResponse
	if code := doJSON(t, srv, http.MethodPost, wire.PathPlan, tiny, &empty); code != http.StatusOK {
		t.Fatalf("tiny-budget plan: code %d", code)
	}
	if len(empty.Order) != 0 {
		t.Errorf("tiny budget produced plan %v", empty.Order)
	}
}

func TestPlanEndpointRejections(t *testing.T) {
	p := testPlatform(t)
	srv := httptest.NewServer(p)
	defer srv.Close()

	var reg wire.RegisterResponse
	doJSON(t, srv, http.MethodPost, wire.PathRegister,
		wire.RegisterRequest{Location: geo.Pt(500, 500)}, &reg)

	cases := []struct {
		name string
		mut  func(*wire.PlanRequest)
		code int
	}{
		{"unknown worker", func(r *wire.PlanRequest) { r.UserID = 999 }, http.StatusNotFound},
		{"zero speed", func(r *wire.PlanRequest) { r.Speed = 0 }, http.StatusBadRequest},
		{"negative speed", func(r *wire.PlanRequest) { r.Speed = -5 }, http.StatusBadRequest},
		{"negative time budget", func(r *wire.PlanRequest) { r.TimeBudget = -1 }, http.StatusBadRequest},
		{"negative cost", func(r *wire.PlanRequest) { r.CostPerMeter = -0.1 }, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := planRequest(reg.UserID)
			tc.mut(&req)
			if code := doJSON(t, srv, http.MethodPost, wire.PathPlan, req, nil); code != tc.code {
				t.Errorf("code %d, want %d", code, tc.code)
			}
		})
	}

	// encoding/json cannot carry NaN or ±Inf, but the TLV codec carries
	// IEEE bits, so non-finite parameters reach the handler over TLV.
	// Infinite speed times a zero time budget is a NaN travel budget.
	nan, inf := math.NaN(), math.Inf(1)
	tlvCases := []struct {
		name string
		mut  func(*wire.PlanRequest)
	}{
		{"NaN speed", func(r *wire.PlanRequest) { r.Speed = nan }},
		{"+Inf speed", func(r *wire.PlanRequest) { r.Speed = inf }},
		{"+Inf speed, zero time budget", func(r *wire.PlanRequest) { r.Speed, r.TimeBudget = inf, 0 }},
		{"NaN time budget", func(r *wire.PlanRequest) { r.TimeBudget = nan }},
		{"+Inf time budget", func(r *wire.PlanRequest) { r.TimeBudget = inf }},
		{"-Inf time budget", func(r *wire.PlanRequest) { r.TimeBudget = -inf }},
		{"NaN cost", func(r *wire.PlanRequest) { r.CostPerMeter = nan }},
		{"+Inf cost", func(r *wire.PlanRequest) { r.CostPerMeter = inf }},
		{"NaN location", func(r *wire.PlanRequest) { r.Location = geo.Pt(nan, 500) }},
	}
	for _, tc := range tlvCases {
		t.Run("tlv/"+tc.name, func(t *testing.T) {
			req := planRequest(reg.UserID)
			tc.mut(&req)
			code, body, _ := doTLV(t, srv, http.MethodPost, wire.PathPlan, binary.AppendPlanRequest(nil, &req))
			if code != http.StatusBadRequest {
				t.Errorf("code %d, want %d (body %s)", code, http.StatusBadRequest, body)
			}
		})
	}

	// After the campaign ends, planning is a conflict.
	for i := 0; i < 10; i++ {
		var adv wire.AdvanceResponse
		doJSON(t, srv, http.MethodPost, wire.PathAdvance, nil, &adv)
		if adv.Done {
			break
		}
	}
	if code := doJSON(t, srv, http.MethodPost, wire.PathPlan, planRequest(reg.UserID), nil); code != http.StatusConflict {
		t.Errorf("plan after done: code %d, want %d", code, http.StatusConflict)
	}
}

// TestPlanEndpointConcurrent hammers /v1/plan from many goroutines, some
// racing with round advances and uploads, to exercise the solver pool and
// the snapshot-under-lock handoff (run under -race in CI). Every response
// must be internally consistent regardless of which round it was solved
// against.
func TestPlanEndpointConcurrent(t *testing.T) {
	p := testPlatform(t)
	srv := httptest.NewServer(p)
	defer srv.Close()

	const workers = 16
	ids := make([]int, workers)
	for i := range ids {
		var reg wire.RegisterResponse
		doJSON(t, srv, http.MethodPost, wire.PathRegister,
			wire.RegisterRequest{Location: geo.Pt(float64(i*50), 500)}, &reg)
		ids[i] = reg.UserID
	}

	var wg sync.WaitGroup
	errs := make(chan string, workers*8)
	for _, id := range ids {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for iter := 0; iter < 8; iter++ {
				var plan wire.PlanResponse
				code := doJSON(t, srv, http.MethodPost, wire.PathPlan, planRequest(id), &plan)
				if code != http.StatusOK && code != http.StatusConflict {
					errs <- "unexpected status"
					return
				}
				if code == http.StatusOK && plan.Profit < 0 {
					errs <- "negative-profit plan"
					return
				}
			}
		}(id)
	}
	// One goroutine advances rounds underneath the planners.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			var adv wire.AdvanceResponse
			doJSON(t, srv, http.MethodPost, wire.PathAdvance, nil, &adv)
			if adv.Done {
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
	if p.planners.Idle() == 0 {
		t.Error("solver pool recycled no instances after concurrent planning")
	}
}

// TestPlanEndpointCustomPlanner verifies the Planner factory is honored.
func TestPlanEndpointCustomPlanner(t *testing.T) {
	var mu sync.Mutex
	built := 0
	p := testPlatform(t)
	p.cfg.Planner = nil // testPlatform leaves it nil; rebuild with a counter
	p2, err := New(Config{
		Tasks:          p.cfg.Tasks,
		Mechanism:      p.cfg.Mechanism,
		Area:           p.cfg.Area,
		NeighborRadius: p.cfg.NeighborRadius,
		Logger:         p.cfg.Logger,
		Planner: func() selection.Algorithm {
			mu.Lock()
			built++
			mu.Unlock()
			return &selection.Greedy{}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(p2)
	defer srv.Close()

	var reg wire.RegisterResponse
	doJSON(t, srv, http.MethodPost, wire.PathRegister,
		wire.RegisterRequest{Location: geo.Pt(500, 500)}, &reg)
	var plan wire.PlanResponse
	if code := doJSON(t, srv, http.MethodPost, wire.PathPlan, planRequest(reg.UserID), &plan); code != http.StatusOK {
		t.Fatalf("plan: code %d", code)
	}
	mu.Lock()
	defer mu.Unlock()
	if built == 0 {
		t.Error("custom Planner factory never invoked")
	}
}
