package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"paydemand/internal/sim"
	"paydemand/internal/wire"
)

// startPlatform runs the binary's serve loop on an ephemeral port and
// returns its base URL plus a stop function.
func startPlatform(t *testing.T, extra ...string) (string, func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	errCh := make(chan error, 1)
	args := append([]string{"-addr", "127.0.0.1:0", "-tasks", "4", "-required", "2"}, extra...)
	go func() { errCh <- run(ctx, args, ready) }()
	select {
	case addr := <-ready:
		return "http://" + addr, func() error {
			cancel()
			select {
			case err := <-errCh:
				return err
			case <-time.After(5 * time.Second):
				return context.DeadlineExceeded
			}
		}
	case err := <-errCh:
		t.Fatalf("platform exited early: %v", err)
		return "", nil
	}
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == 200 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func TestPlatformServesAndShutsDown(t *testing.T) {
	base, stop := startPlatform(t, "-round-every", "0")
	var status wire.StatusResponse
	if code := getJSON(t, base+wire.PathStatus, &status); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if status.Round != 1 || status.OpenTasks != 4 {
		t.Errorf("status = %+v", status)
	}
	if code := getJSON(t, base+wire.PathHealth, nil); code != 200 {
		t.Errorf("health = %d", code)
	}
	if err := stop(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestPlatformAutoAdvances(t *testing.T) {
	base, stop := startPlatform(t, "-round-every", "30ms")
	defer stop() //nolint:errcheck // shutdown result checked in the dedicated test
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		var status wire.StatusResponse
		getJSON(t, base+wire.PathStatus, &status)
		if status.Round >= 3 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("platform never auto-advanced to round 3")
}

func TestPlatformBadFlags(t *testing.T) {
	if err := run(context.Background(), []string{"-mechanism", "bogus"}, nil); err == nil {
		t.Error("bogus mechanism accepted")
	}
	if err := run(context.Background(), []string{"-budget", "-5"}, nil); err == nil {
		t.Error("negative budget accepted")
	}
	if err := run(context.Background(), []string{"-addr", "256.0.0.1:99999"}, nil); err == nil {
		t.Error("unlistenable address accepted")
	}
}

func TestPlatformStatePersistence(t *testing.T) {
	dir := t.TempDir()
	state := dir + "/campaign.json"

	// First life: register a worker, upload, shut down.
	base, stop := startPlatform(t, "-round-every", "0", "-state", state)
	var reg wire.RegisterResponse
	resp, err := http.Post(base+wire.PathRegister, "application/json", strings.NewReader(`{"location":{"x":1,"y":1}}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&reg); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	submit := fmt.Sprintf(`{"user_id":%d,"round":1,"measurements":[{"task_id":1,"value":9}],"location":{"x":1,"y":1}}`, reg.UserID)
	resp2, err := http.Post(base+wire.PathSubmit, "application/json", strings.NewReader(submit))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(state); err != nil {
		t.Fatalf("snapshot not written: %v", err)
	}

	// Second life: the same flags restore the campaign.
	base2, stop2 := startPlatform(t, "-round-every", "0", "-state", state)
	var status wire.StatusResponse
	if code := getJSON(t, base2+wire.PathStatus, &status); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if status.TotalMeasurements != 1 || status.Workers != 1 {
		t.Errorf("restored status = %+v", status)
	}
	if err := stop2(); err != nil {
		t.Fatal(err)
	}
}

// TestPlatformMechanismVariants serves every simulator mechanism kind.
// One worker registers before the round advances, so the auction has a
// bid to clear and every kind prices all four tasks in round 2.
func TestPlatformMechanismVariants(t *testing.T) {
	for _, kind := range sim.MechanismKinds() {
		mech := kind.String()
		base, stop := startPlatform(t, "-round-every", "0", "-mechanism", mech)
		for _, req := range []struct{ path, body string }{
			{wire.PathRegister, `{"location":{"x":1,"y":1}}`},
			{wire.PathAdvance, ``},
		} {
			resp, err := http.Post(base+req.path, "application/json", strings.NewReader(req.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != 200 {
				t.Fatalf("%s: POST %s = %d", mech, req.path, resp.StatusCode)
			}
		}
		var round wire.RoundInfo
		if code := getJSON(t, base+wire.PathRound, &round); code != 200 {
			t.Fatalf("%s: round = %d", mech, code)
		}
		if round.Round != 2 || len(round.Tasks) != 4 {
			t.Errorf("%s: round %d with %d tasks, want round 2 with 4", mech, round.Round, len(round.Tasks))
		}
		if err := stop(); err != nil {
			t.Fatalf("%s: shutdown: %v", mech, err)
		}
	}
}

// TestPlatformDefaultPopulation pins that -tasks 0 and -required 0 mean
// the workload defaults for pricing too: the scheme is priced from the
// generated tasks, not from the flag values.
func TestPlatformDefaultPopulation(t *testing.T) {
	for _, flag := range []string{"-tasks", "-required"} {
		ctx, cancel := context.WithCancel(context.Background())
		ready := make(chan string, 1)
		errCh := make(chan error, 1)
		go func() {
			errCh <- run(ctx, []string{"-addr", "127.0.0.1:0", "-round-every", "0", flag, "0"}, ready)
		}()
		select {
		case addr := <-ready:
			var status wire.StatusResponse
			if code := getJSON(t, "http://"+addr+wire.PathStatus, &status); code != 200 {
				t.Errorf("%s 0: status = %d", flag, code)
			}
			if status.OpenTasks == 0 {
				t.Errorf("%s 0: no open tasks: %+v", flag, status)
			}
			cancel()
			if err := <-errCh; err != nil {
				t.Errorf("%s 0: shutdown: %v", flag, err)
			}
		case err := <-errCh:
			cancel()
			t.Errorf("%s 0: platform exited early: %v", flag, err)
		}
	}
}
