// Package parallel provides the bounded worker pool shared by the
// scheduling core. The paper's two-phase heuristic is embarrassingly
// parallel at two points — phase-1 individual file scheduling (every file
// is planned against an unbounded-storage assumption, §3.2) and phase-2
// per-candidate victim evaluation (every candidate reschedule works on its
// own overlay view of the ledger, §4.4) — and the pool is how both fan
// that work across cores without giving up determinism: callers dispatch
// work by index and merge results in index order, so the outcome is
// byte-identical to a sequential run regardless of worker count or
// completion order.
package parallel

import (
	"context"
	"runtime"
	"sync"
)

// Workers normalizes a worker-count knob: values <= 0 mean GOMAXPROCS,
// and the count never exceeds the number of jobs n (never below 1).
func Workers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Do runs fn(i) for every i in [0, n) across a pool of bounded size
// (see Workers for how the count is normalized). Dispatch stops as soon as
// ctx is cancelled — jobs already started run to completion, un-dispatched
// indices are never invoked — and the cancellation is reported as ctx.Err().
// fn must handle its own synchronization for any state shared between
// indices; writing only to the i-th slot of a pre-sized results slice needs
// none.
func Do(ctx context.Context, workers, n int, fn func(i int)) error {
	if n <= 0 {
		return nil // no work: not even a cancellation check, like a 0-iteration loop
	}
	workers = Workers(workers, n)

	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				fn(i)
			}
		}()
	}
	aborted := false
	for i := 0; i < n; i++ {
		if ctx.Err() != nil {
			aborted = true
			break
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	if aborted {
		return ctx.Err()
	}
	return nil
}
