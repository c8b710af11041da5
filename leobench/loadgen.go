package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
)

// loopResult is what one open-loop phase measured.
type loopResult struct {
	Lat       []float64 // per request: ms from when it was due until its answer was read
	Late      []float64 // per request: ms from when it was due until it was sent
	At        []float64 // per request: ms from the phase start to when it was due
	Attempted int
	Failed    int
	Unsent    int       // requests still unsent when the phase's grace ran out
	Start     time.Time // the zero of At
}

// backlogGrace is how far past its window an open-loop phase may run
// before the requests still unsent count as a growing backlog.
const backlogGrace = 250 * time.Millisecond

// openLoop issues request i at start+due[i] regardless of how earlier
// requests fared: independent users, so a stall delays later requests
// and their latency, timed from when they were due, shows it. Request
// i goes to clients[i % len(clients)], one sending goroutine per
// client. do performs request i and reports whether its answer was
// right.
func openLoop(conns []*client, due []time.Duration, window time.Duration, do func(c *client, i int) bool) loopResult {
	n := len(conns)
	parts := make([]loopResult, n)
	start := time.Now()
	cutoff := start.Add(window + backlogGrace)
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			preciseSleeper()
			res := &parts[k]
			for i := k; i < len(due); i += n {
				dueAt := start.Add(due[i])
				now := time.Now()
				if now.After(cutoff) {
					res.Unsent += (len(due) - i + n - 1) / n
					return
				}
				sleepUntil(dueAt)
				sent := time.Now()
				ok := do(conns[k], i)
				done := time.Now()
				res.Attempted++
				if !ok {
					res.Failed++
				}
				res.Late = append(res.Late, ms(sent.Sub(dueAt)))
				res.Lat = append(res.Lat, ms(done.Sub(dueAt)))
				res.At = append(res.At, ms(due[i]))
			}
		}(k)
	}
	wg.Wait()
	out := loopResult{Start: start}
	for _, p := range parts {
		out.Lat = append(out.Lat, p.Lat...)
		out.Late = append(out.Late, p.Late...)
		out.At = append(out.At, p.At...)
		out.Attempted += p.Attempted
		out.Failed += p.Failed
		out.Unsent += p.Unsent
	}
	return out
}

// preciseSleeper pins the calling goroutine to its OS thread and cuts
// that thread's timer slack to 1µs, so sleepUntil wakes within tens of
// microseconds of a due time; the runtime's timers can overshoot by a
// millisecond, more than a whole loopback request. The thread ends
// with the goroutine (it is never unlocked), so the setting dies with
// it.
func preciseSleeper() {
	runtime.LockOSThread()
	const prSetTimerSlack = 29
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1000, 0) // on failure sleeps are merely coarser
}

// sleepUntil blocks the thread in nanosleep until t.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		if syscall.Nanosleep(&ts, nil) == nil {
			return
		}
	}
}
