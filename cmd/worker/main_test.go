package main

import (
	"context"
	"io"
	"log/slog"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"paydemand/internal/demand"
	"paydemand/internal/geo"
	"paydemand/internal/incentive"
	"paydemand/internal/server"
	"paydemand/internal/task"
)

// startTestPlatform serves a tiny campaign for the worker binary to chew
// through, auto-advancing rounds quickly.
func startTestPlatform(t *testing.T) (string, *server.Platform) {
	t.Helper()
	scheme, err := incentive.SchemeFromBudget(500, 4, 0.5, demand.LevelMapper{N: 5})
	if err != nil {
		t.Fatal(err)
	}
	mech, err := incentive.NewPaperOnDemand(scheme)
	if err != nil {
		t.Fatal(err)
	}
	p, err := server.New(server.Config{
		Tasks: []task.Task{
			{ID: 1, Location: geo.Pt(500, 500), Deadline: 3, Required: 2},
			{ID: 2, Location: geo.Pt(800, 800), Deadline: 3, Required: 2},
		},
		Mechanism:      mech,
		Area:           geo.Square(3000),
		NeighborRadius: 500,
		Logger:         slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(p)
	t.Cleanup(srv.Close)
	go func() {
		for {
			time.Sleep(30 * time.Millisecond)
			if _, done, err := p.Advance(); err != nil || done {
				return
			}
		}
	}()
	return srv.URL, p
}

func TestWorkerFleetCompletesCampaign(t *testing.T) {
	url, p := startTestPlatform(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := run(ctx, []string{
		"-platform", url,
		"-count", "4",
		"-poll", "10ms",
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Board().TotalReceived(); got != 4 {
		t.Errorf("received %d measurements, want 4", got)
	}
	if cov := p.Board().Coverage(); cov != 1 {
		t.Errorf("coverage = %v", cov)
	}
}

func TestWorkerBadFlags(t *testing.T) {
	ctx := context.Background()
	if err := run(ctx, []string{"-count", "0"}); err == nil {
		t.Error("zero count accepted")
	}
	if err := run(ctx, []string{"-algorithm", "bogus", "-platform", "http://127.0.0.1:1"}); err == nil {
		t.Error("bogus algorithm accepted")
	}
	if err := run(ctx, []string{"-codec", "bogus", "-platform", "http://127.0.0.1:1"}); err == nil || !strings.Contains(err.Error(), "codec") {
		t.Errorf("bogus codec: err = %v, want an unknown-codec error", err)
	}
	if err := run(ctx, []string{"-nope"}); err == nil {
		t.Error("unknown flag accepted")
	}
}

func TestWorkerUnreachablePlatform(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := run(ctx, []string{"-platform", "http://127.0.0.1:1", "-count", "1"}); err == nil {
		t.Error("unreachable platform succeeded")
	}
}
