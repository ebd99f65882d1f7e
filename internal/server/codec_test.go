package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"paydemand/internal/geo"
	"paydemand/internal/wire"
	"paydemand/internal/wire/binary"
)

// doTLV sends a TLV-encoded body (or none) with TLV accept headers and
// returns the status and raw response body.
func doTLV(t *testing.T, srv *httptest.Server, method, path string, body []byte) (int, []byte, string) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, srv.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", binary.ContentType)
	if body != nil {
		req.Header.Set("Content-Type", binary.ContentType)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data, resp.Header.Get("Content-Type")
}

// TestTLVRoundMatchesJSON pins that the TLV round response decodes to
// exactly the struct the JSON endpoint serves.
func TestTLVRoundMatchesJSON(t *testing.T) {
	p := testPlatform(t)
	srv := httptest.NewServer(p)
	defer srv.Close()

	var viaJSON wire.RoundInfo
	if code := doJSON(t, srv, http.MethodGet, wire.PathRound, nil, &viaJSON); code != http.StatusOK {
		t.Fatalf("json round: status %d", code)
	}
	code, body, ct := doTLV(t, srv, http.MethodGet, wire.PathRound, nil)
	if code != http.StatusOK {
		t.Fatalf("tlv round: status %d", code)
	}
	if ct != binary.ContentType {
		t.Fatalf("tlv round content type %q", ct)
	}
	var viaTLV wire.RoundInfo
	if err := binary.DecodeRoundInfo(body, &viaTLV); err != nil {
		t.Fatal(err)
	}
	if viaTLV.Round != viaJSON.Round || viaTLV.Done != viaJSON.Done || len(viaTLV.Tasks) != len(viaJSON.Tasks) {
		t.Fatalf("tlv %+v != json %+v", viaTLV, viaJSON)
	}
	for i := range viaTLV.Tasks {
		if viaTLV.Tasks[i] != viaJSON.Tasks[i] {
			t.Errorf("task %d: tlv %+v != json %+v", i, viaTLV.Tasks[i], viaJSON.Tasks[i])
		}
	}
}

// TestKnownRoundShortCircuit pins the steady-state polling optimization
// in both codecs: a poller that already holds the current round gets a
// tiny Unchanged response with no task list; a stale or absent known
// round gets the full response; a done campaign never short-circuits.
func TestKnownRoundShortCircuit(t *testing.T) {
	p := testPlatform(t)
	srv := httptest.NewServer(p)
	defer srv.Close()

	fetch := func(known int, tlv bool) wire.RoundInfo {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, srv.URL+wire.PathRound, nil)
		if err != nil {
			t.Fatal(err)
		}
		if known > 0 {
			req.Header.Set(wire.HeaderKnownRound, strconv.Itoa(known))
		}
		if tlv {
			req.Header.Set("Accept", binary.ContentType)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, data)
		}
		var info wire.RoundInfo
		if tlv {
			if err := binary.DecodeRoundInfo(data, &info); err != nil {
				t.Fatal(err)
			}
		} else if err := jsonUnmarshal(data, &info); err != nil {
			t.Fatal(err)
		}
		return info
	}

	for _, tlv := range []bool{false, true} {
		full := fetch(0, tlv)
		if full.Unchanged || len(full.Tasks) == 0 {
			t.Fatalf("tlv=%v: full fetch: %+v", tlv, full)
		}
		hit := fetch(full.Round, tlv)
		if !hit.Unchanged || len(hit.Tasks) != 0 || hit.Round != full.Round {
			t.Errorf("tlv=%v: known=current: got %+v, want unchanged", tlv, hit)
		}
		stale := fetch(full.Round+7, tlv)
		if stale.Unchanged || len(stale.Tasks) == 0 {
			t.Errorf("tlv=%v: known=stale: got %+v, want full response", tlv, stale)
		}
	}

	// The query-parameter spelling works too.
	resp, err := srv.Client().Get(srv.URL + wire.PathRound + "?known=1")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var info wire.RoundInfo
	if err := jsonUnmarshal(data, &info); err != nil {
		t.Fatal(err)
	}
	if !info.Unchanged {
		t.Errorf("?known=1: got %+v, want unchanged", info)
	}

	// Drive the campaign to done; the short-circuit must stop firing so
	// pollers observe Done.
	for i := 0; i < 10; i++ {
		if _, done, err := p.Advance(); err != nil {
			t.Fatal(err)
		} else if done {
			break
		}
	}
	end := fetch(0, false)
	if !end.Done {
		t.Fatal("campaign not done after 10 advances")
	}
	for _, tlv := range []bool{false, true} {
		atEnd := fetch(end.Round, tlv)
		if atEnd.Unchanged || !atEnd.Done {
			t.Errorf("tlv=%v: done campaign short-circuited: %+v", tlv, atEnd)
		}
	}
}

// TestTLVPlanAndSubmit drives register → plan → submit entirely over TLV
// bodies and responses.
func TestTLVPlanAndSubmit(t *testing.T) {
	p := testPlatform(t)
	srv := httptest.NewServer(p)
	defer srv.Close()

	var reg wire.RegisterResponse
	if code := doJSON(t, srv, http.MethodPost, wire.PathRegister,
		wire.RegisterRequest{Location: geo.Pt(500, 500)}, &reg); code != http.StatusOK {
		t.Fatalf("register: status %d", code)
	}

	planReq := wire.PlanRequest{
		UserID:       reg.UserID,
		Location:     geo.Pt(500, 500),
		Speed:        2,
		TimeBudget:   600,
		CostPerMeter: 0.002,
	}
	code, body, ct := doTLV(t, srv, http.MethodPost, wire.PathPlan, binary.AppendPlanRequest(nil, &planReq))
	if code != http.StatusOK {
		t.Fatalf("tlv plan: status %d: %s", code, body)
	}
	if ct != binary.ContentType {
		t.Fatalf("tlv plan content type %q", ct)
	}
	var plan wire.PlanResponse
	if err := binary.DecodePlanResponse(body, &plan); err != nil {
		t.Fatal(err)
	}
	if len(plan.Order) == 0 {
		t.Fatal("empty plan from the middle of the board")
	}

	sub := wire.SubmitRequest{UserID: reg.UserID, Round: plan.Round, Location: geo.Pt(500, 500)}
	for _, id := range plan.Order {
		sub.Measurements = append(sub.Measurements, wire.Measurement{TaskID: id, Value: 50})
	}
	code, body, _ = doTLV(t, srv, http.MethodPost, wire.PathSubmit, binary.AppendSubmitRequest(nil, &sub))
	if code != http.StatusOK {
		t.Fatalf("tlv submit: status %d: %s", code, body)
	}
	var subResp wire.SubmitResponse
	if err := binary.DecodeSubmitResponse(body, &subResp); err != nil {
		t.Fatal(err)
	}
	if len(subResp.Results) != len(plan.Order) {
		t.Fatalf("submit results %d, want %d", len(subResp.Results), len(plan.Order))
	}
	for _, res := range subResp.Results {
		if !res.Accepted {
			t.Errorf("task %d rejected: %s", res.TaskID, res.Reason)
		}
	}
	if subResp.TotalPaid <= 0 {
		t.Errorf("total paid %v, want > 0", subResp.TotalPaid)
	}
}

// TestTLVSubmitRejectsNonFinite pins that a NaN or infinite measurement,
// which only the TLV codec can carry, is rejected per measurement before
// anything is recorded or paid, while a finite one in the same request
// is accepted, and the task's estimate stays computable.
func TestTLVSubmitRejectsNonFinite(t *testing.T) {
	p := testPlatform(t)
	srv := httptest.NewServer(p)
	defer srv.Close()

	var reg wire.RegisterResponse
	if code := doJSON(t, srv, http.MethodPost, wire.PathRegister,
		wire.RegisterRequest{Location: geo.Pt(500, 500)}, &reg); code != http.StatusOK {
		t.Fatalf("register: status %d", code)
	}
	sub := wire.SubmitRequest{UserID: reg.UserID, Round: 1, Location: geo.Pt(500, 500),
		Measurements: []wire.Measurement{
			{TaskID: 1, Value: math.NaN()},
			{TaskID: 2, Value: math.Inf(1)},
			{TaskID: 3, Value: math.Inf(-1)},
		}}
	code, body, _ := doTLV(t, srv, http.MethodPost, wire.PathSubmit, binary.AppendSubmitRequest(nil, &sub))
	if code != http.StatusOK {
		t.Fatalf("tlv submit: status %d: %s", code, body)
	}
	var resp wire.SubmitResponse
	if err := binary.DecodeSubmitResponse(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("submit results %d, want 3", len(resp.Results))
	}
	for _, res := range resp.Results {
		if res.Accepted || res.Reason != "non-finite value" || res.Reward != 0 {
			t.Errorf("task %d: result %+v, want rejected for a non-finite value", res.TaskID, res)
		}
	}
	if resp.TotalPaid != 0 || p.eng.Board().TotalReceived() != 0 {
		t.Errorf("paid %v for %d measurements, want nothing recorded", resp.TotalPaid, p.eng.Board().TotalReceived())
	}

	// The rejection recorded nothing: the same worker can still upload a
	// finite reading for the task, and its estimate is that reading.
	sub.Measurements = []wire.Measurement{{TaskID: 1, Value: 42}}
	code, body, _ = doTLV(t, srv, http.MethodPost, wire.PathSubmit, binary.AppendSubmitRequest(nil, &sub))
	if code != http.StatusOK {
		t.Fatalf("tlv submit: status %d: %s", code, body)
	}
	if err := binary.DecodeSubmitResponse(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || !resp.Results[0].Accepted {
		t.Fatalf("finite resubmission = %+v, want accepted", resp.Results)
	}
	est, err := p.Estimate(1)
	if err != nil {
		t.Fatalf("estimate after a rejected NaN: %v", err)
	}
	if est.Value != 42 {
		t.Errorf("estimate %v, want 42", est.Value)
	}
}

// TestTLVBadBodies pins graceful 400s for malformed TLV requests and
// JSON error bodies (errors are always JSON, the debugging surface).
func TestTLVBadBodies(t *testing.T) {
	p := testPlatform(t)
	srv := httptest.NewServer(p)
	defer srv.Close()

	for _, path := range []string{wire.PathPlan, wire.PathSubmit} {
		code, body, ct := doTLV(t, srv, http.MethodPost, path, []byte{250, 99, 1, 2, 3})
		if code != http.StatusBadRequest {
			t.Errorf("%s: malformed TLV: status %d, want 400", path, code)
		}
		if ct != "application/json" {
			t.Errorf("%s: error content type %q, want JSON", path, ct)
		}
		var apiErr wire.Error
		if err := jsonUnmarshal(body, &apiErr); err != nil || apiErr.Message == "" {
			t.Errorf("%s: error body %q not a JSON error", path, body)
		}
	}
}

// jsonUnmarshal is a tiny indirection so codec tests read symmetrically.
func jsonUnmarshal(data []byte, v any) error { return json.Unmarshal(data, v) }
