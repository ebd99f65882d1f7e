package engine

// RoundEngine once named the interface drivers held so a config knob
// could swap in a geo-sharded engine. That engine is gone, and every
// driver holds *Engine.
//
// Deprecated: use *Engine.
type RoundEngine = *Engine
