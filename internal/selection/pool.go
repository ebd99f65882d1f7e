package selection

import "sync"

// SolverPool hands out Algorithm instances for concurrent selection work.
// Solvers keep grow-only scratch between calls and are therefore not safe
// for concurrent use; the pool gives each goroutine exclusive use of an
// instance for the duration of a solve while keeping the scratch warm
// across solves — a Get after a Put returns the recycled instance, so a
// steady pool of workers reaches the same allocation-free hot path as a
// single sequential solver.
//
// Unlike sync.Pool the free list is never dropped by the garbage
// collector: DP scratch at m near 20 is hundreds of megabytes, and
// rebuilding it mid-campaign would erase the point of pooling.
type SolverPool struct {
	newAlg func() Algorithm
	mu     sync.Mutex
	free   []Algorithm
}

// NewSolverPool builds a pool that constructs instances with factory. The
// factory must return a fresh, independently usable Algorithm on every
// call; all instances should be configured identically, since callers
// treat them as interchangeable.
func NewSolverPool(factory func() Algorithm) *SolverPool {
	if factory == nil {
		panic("selection: NewSolverPool with nil factory")
	}
	return &SolverPool{newAlg: factory}
}

// Get returns a solver for exclusive use: a recycled instance when one is
// free, a freshly constructed one otherwise. Return it with Put when done.
func (p *SolverPool) Get() Algorithm {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		a := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return a
	}
	p.mu.Unlock()
	return p.newAlg()
}

// Put returns a solver obtained from Get to the free list. The caller must
// not use the instance afterwards.
func (p *SolverPool) Put(a Algorithm) {
	if a == nil {
		return
	}
	p.mu.Lock()
	p.free = append(p.free, a)
	p.mu.Unlock()
}

// Idle returns the number of instances currently on the free list (for
// tests and introspection).
func (p *SolverPool) Idle() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free)
}
