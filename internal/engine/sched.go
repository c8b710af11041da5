package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Map evaluates f(0), ..., f(n-1) concurrently on a fixed pool of
// workers and returns the results in index order, so sweeps stay
// deterministic regardless of scheduling. workers <= 0 means
// runtime.GOMAXPROCS(0).
//
// Error propagation replaces the fire-and-forget semantics of the old
// per-package worker pools: the first task error (or context end) stops
// the sweep and is returned alongside the partial results. Slots whose
// task never ran hold the zero value. The stop bound is: once the error
// is recorded, no worker starts more than one further task, and
// in-flight tasks finish. Map does not promise to stop early in task
// count — until the failing worker records its error, the other
// workers keep claiming indices, and under a hostile schedule they may
// drain the sweep first.
func Map[T any](ctx context.Context, workers, n int, f func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if n == 0 {
		return out, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		stopped  atomic.Bool
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		stopped.Store(true)
		if testHookStopped != nil {
			testHookStopped()
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stopped.Load() {
				select {
				case <-done:
					fail(ctx.Err())
					return
				default:
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				v, err := f(i)
				if err != nil {
					fail(fmt.Errorf("engine: task %d: %w", i, err))
					return
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	return out, firstErr
}

// testHookStopped, when set by a test, runs each time a sweep records
// its stop.
var testHookStopped func()
