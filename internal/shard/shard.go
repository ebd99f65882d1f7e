// Package shard once held a geo-sharded round engine. It was
// byte-identical to internal/engine and never paid end to end, so it was
// deleted; New remains for callers that still name it.
//
// Deprecated: use engine.New.
package shard

import (
	"paydemand/internal/engine"
	"paydemand/internal/geo"
	"paydemand/internal/incentive"
	"paydemand/internal/stats"
	"paydemand/internal/task"
)

// Config mirrors the engine.Config fields New forwards; Shards and
// DisableContext are ignored.
type Config struct {
	Board           *task.Board
	Mechanism       incentive.Mechanism
	Area            geo.Rect
	NeighborRadius  float64
	DisableContext  bool
	Shards          int
	RNG             *stats.RNG
	Budget          float64
	BidCostPerMeter float64
	Forecast        incentive.ForecastProvider
}

// New returns the single round engine over cfg, ignoring cfg.Shards and
// cfg.DisableContext.
func New(cfg Config) (*engine.Engine, error) {
	return engine.New(engine.Config{
		Board: cfg.Board, Mechanism: cfg.Mechanism, Area: cfg.Area,
		NeighborRadius: cfg.NeighborRadius, RNG: cfg.RNG, Budget: cfg.Budget,
		BidCostPerMeter: cfg.BidCostPerMeter, Forecast: cfg.Forecast,
	})
}
