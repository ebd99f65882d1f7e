package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"paydemand/internal/geo"
	"paydemand/internal/incentive"
	"paydemand/internal/task"
	"paydemand/internal/wire"
)

// failAfterMechanism prices normally until round `failFrom`, then errors —
// modeling a pricing backend that breaks mid-campaign.
type failAfterMechanism struct {
	inner    incentive.Mechanism
	failFrom int
}

func (m failAfterMechanism) Name() string { return m.inner.Name() }

func (m failAfterMechanism) Requires() incentive.Capabilities { return m.inner.Requires() }

func (m failAfterMechanism) RewardsInto(in *incentive.RoundInput, out map[task.ID]float64) error {
	if in.Round >= m.failFrom {
		return fmt.Errorf("pricing backend down at round %d", in.Round)
	}
	return m.inner.RewardsInto(in, out)
}

func (m failAfterMechanism) Rewards(in *incentive.RoundInput) (map[task.ID]float64, error) {
	if in.Round >= m.failFrom {
		return nil, fmt.Errorf("pricing backend down at round %d", in.Round)
	}
	return m.inner.Rewards(in)
}

// TestAdvanceRepriceFailure is the regression for the stale-reward bug:
// when the reprice inside Advance fails, the platform must not keep
// serving the previous round's rewards (or its stale plan context), and
// GET /v1/round must surface the failure instead of pretending the round
// has no tasks. A later successful reprice clears the error.
func TestAdvanceRepriceFailure(t *testing.T) {
	p := testPlatform(t)
	p.eng.SetMechanism(failAfterMechanism{inner: p.cfg.Mechanism, failFrom: 2})
	srv := httptest.NewServer(p)
	defer srv.Close()

	var reg wire.RegisterResponse
	doJSON(t, srv, http.MethodPost, wire.PathRegister,
		wire.RegisterRequest{Location: geo.Pt(10, 10)}, &reg)

	var round wire.RoundInfo
	if code := doJSON(t, srv, http.MethodGet, wire.PathRound, nil, &round); code != 200 {
		t.Fatalf("round 1 = %d", code)
	}
	if len(round.Tasks) == 0 {
		t.Fatal("round 1 published no tasks")
	}

	if _, _, err := p.Advance(); err == nil {
		t.Fatal("Advance succeeded despite failing mechanism")
	}

	// The failed round must serve the error, not an empty (or worse,
	// stale) task list.
	resp, err := http.Get(srv.URL + wire.PathRound)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("round after failed reprice = %d, want 500 (body %s)", resp.StatusCode, body)
	}

	// Internally nothing may stay published.
	p.mu.Lock()
	rewards := p.eng.Rewards()
	p.mu.Unlock()
	if len(rewards) != 0 {
		t.Errorf("stale rewards still published after failed reprice: %v", rewards)
	}

	// Submissions must find no published tasks rather than pay stale
	// prices.
	var sub wire.SubmitResponse
	code := doJSON(t, srv, http.MethodPost, wire.PathSubmit, wire.SubmitRequest{
		UserID: reg.UserID,
		Round:  2,
		Measurements: []wire.Measurement{
			{TaskID: round.Tasks[0].ID, Value: 1},
		},
	}, &sub)
	if code != 200 {
		t.Fatalf("submit = %d", code)
	}
	for _, res := range sub.Results {
		if res.Accepted {
			t.Errorf("task %d accepted at a stale reward %v", res.TaskID, res.Reward)
		}
	}

	// Restore the working mechanism: the next reprice clears the error.
	p.eng.SetMechanism(p.cfg.Mechanism)
	if err := p.Reprice(); err != nil {
		t.Fatalf("recovery reprice: %v", err)
	}
	if code := doJSON(t, srv, http.MethodGet, wire.PathRound, nil, &round); code != 200 {
		t.Fatalf("round after recovery = %d", code)
	}
	if round.Round != 2 || len(round.Tasks) == 0 {
		t.Fatalf("recovered round = %+v", round)
	}
}
