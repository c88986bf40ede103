package fleet

import (
	"sync"
	"sync/atomic"
)

// Pool is a reusable fan-out of shard workers. Workers are long-lived
// goroutines (spawned once by Start) that claim shard indices from an
// atomic cursor each round, so the steady-state Run path spawns no
// goroutines, captures no closures, and allocates nothing — the fix for
// the per-tick goroutine churn that made small-fleet parallel stepping
// slower than serial. The run callback receives a shard index and must
// confine its effects to state owned by that shard (plus its own result
// slot); the claim order is scheduling-dependent, so the callback must not
// care which worker runs it or in what order — determinism comes from
// per-shard state plus ordered reduction by the caller.
//
// A Pool is not safe for concurrent Runs; Start, Run…Run, Stop is the
// lifecycle, all from one goroutine. The engine scopes a pool to one
// simulated day (288 ticks amortize the start/stop cost), which also
// means no goroutines outlive the call that needed them.
type Pool struct {
	workers int
	run     func(shard int)

	next  atomic.Int64
	total int
	begin chan struct{}
	quit  chan struct{}
	wg    sync.WaitGroup
}

// NewPool prepares a pool of the given width over the run callback; no
// goroutines start until Start.
func NewPool(workers int, run func(shard int)) *Pool {
	return &Pool{workers: workers, run: run}
}

// Start spawns the workers. Calling Start on a started pool is a no-op.
func (p *Pool) Start() {
	if p.begin != nil {
		return
	}
	// Workers capture the channels, not the fields: Stop nils the fields
	// on the caller's goroutine while workers may still be selecting.
	begin := make(chan struct{})
	quit := make(chan struct{})
	p.begin, p.quit = begin, quit
	for w := 0; w < p.workers; w++ {
		go func() {
			for {
				select {
				case <-quit:
					return
				case <-begin:
					for {
						i := int(p.next.Add(1)) - 1
						if i >= p.total {
							break
						}
						p.run(i)
					}
					p.wg.Done()
				}
			}
		}()
	}
}

// Run executes the callback for every shard index in [0, total) across
// the workers and returns when all have finished. The total is written
// before any worker is released and read only after, so each round
// happens-before the next.
func (p *Pool) Run(total int) {
	if p.begin == nil || total <= 0 {
		for i := 0; i < total; i++ {
			p.run(i)
		}
		return
	}
	p.total = total
	p.next.Store(0)
	p.wg.Add(p.workers)
	for w := 0; w < p.workers; w++ {
		p.begin <- struct{}{}
	}
	p.wg.Wait()
}

// Stop terminates the workers. It must not overlap a Run; a stopped pool
// can be started again.
func (p *Pool) Stop() {
	if p.begin == nil {
		return
	}
	close(p.quit)
	p.begin = nil
	p.quit = nil
}
