package engine

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestMapOrderAndCoverage(t *testing.T) {
	out, err := Map(context.Background(), 0, 50, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	if out, err := Map(context.Background(), 4, 0, func(int) (int, error) { return 1, nil }); err != nil || len(out) != 0 {
		t.Fatalf("n=0: %v, %v", out, err)
	}
}

func TestMapSingleWorkerIsSequential(t *testing.T) {
	var running, maxRunning atomic.Int32
	_, err := Map(context.Background(), 1, 20, func(i int) (int, error) {
		if r := running.Add(1); r > maxRunning.Load() {
			maxRunning.Store(r)
		}
		defer running.Add(-1)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if maxRunning.Load() != 1 {
		t.Fatalf("max concurrency %d with workers=1", maxRunning.Load())
	}
}

// TestMapErrorStopsSweep pins Map's stop bound: once a task error is
// recorded, no worker starts more than one further task. Every task
// after the failing one blocks until the stop is recorded, so the other
// worker cannot finish work early whatever the schedule — the bound is
// checked at its tightest, without timing assumptions.
func TestMapErrorStopsSweep(t *testing.T) {
	const workers, n, failAt = 2, 1000, 3
	recorded := make(chan struct{})
	var once sync.Once
	testHookStopped = func() { once.Do(func() { close(recorded) }) }
	defer func() { testHookStopped = nil }()

	boom := errors.New("boom")
	var calls, late atomic.Int32
	_, err := Map(context.Background(), workers, n, func(i int) (int, error) {
		calls.Add(1)
		select {
		case <-recorded:
			late.Add(1)
		default:
		}
		if i == failAt {
			return 0, boom
		}
		if i > failAt {
			<-recorded
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(err.Error(), "task 3") {
		t.Fatalf("error does not identify the task: %v", err)
	}
	if l := late.Load(); l > workers-1 {
		t.Fatalf("%d tasks started after the stop was recorded, want at most %d", l, workers-1)
	}
	if c := calls.Load(); c > failAt+workers {
		t.Fatalf("sweep ran %d tasks, want at most %d", c, failAt+workers)
	}
}

func TestMapHonorsCancellationMidSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int32
	_, err := Map(ctx, 2, 10000, func(i int) (int, error) {
		if calls.Add(1) == 5 {
			cancel()
		}
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if n := calls.Load(); n >= 10000 {
		t.Fatalf("sweep ran to completion despite cancellation (%d calls)", n)
	}
}

func TestMapPartialResultsOnError(t *testing.T) {
	// Single worker, deterministic: indices 0 and 1 complete, 2 fails,
	// the rest never run and stay zero.
	out, err := Map(context.Background(), 1, 6, func(i int) (int, error) {
		if i == 2 {
			return 0, errors.New("stop")
		}
		return i + 100, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if out[0] != 100 || out[1] != 101 {
		t.Fatalf("completed results lost: %v", out)
	}
	for i := 2; i < 6; i++ {
		if out[i] != 0 {
			t.Fatalf("index %d ran after the failure: %v", i, out)
		}
	}
}
