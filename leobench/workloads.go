package main

import (
	"bytes"
	"fmt"
	"net/http"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"leonardo"
	"leonardo/internal/repertoire"
)

// server is the system under test: the leonardod child process for the
// untraced run, or the same serve stack in-process for the traced one.
type server interface {
	url() string
	stop() error
	cpu() (time.Duration, error)
	peakRSSMB() (float64, error)
}

// launcher starts a server on a spool directory with the given worker
// count.
type launcher func(spool string, workers int) (server, error)

func (d *daemon) url() string { return d.base }

// Workload parameters.
const (
	daemonWorkers = 2 // leonardod -workers in every workload

	setupLaunches = 7 // launches timed per run; setup_s is their median

	hotRuns      = 16     // finished repertoire runs query-hot serves
	hotPool      = 4096   // distinct (run, point) queries in its pool
	hotRate      = 5000.0 // fixed offered rate, queries/s
	hotFixedFrac = 0.6    // share of the window at the fixed rate; the rest is the capacity ladder
	latencyLimit = 5.0    // ms: the p99 a capacity rung must meet
	liveRate     = 1000.0 // query-live offered rate, queries/s
	mixFetches   = 200    // gaits each evolve-mix client reads from each repertoire run it finished
)

// ladderRates is the fixed ladder of offered rates (queries/s) the
// capacity search climbs.
var ladderRates = []float64{2000, 3000, 4000, 5000, 6000, 8000, 10000, 12000}

// runRecord is one run a workload submitted.
type runRecord struct {
	Kind      string
	Spec      leonardo.RunSpec
	ID        string
	Submitted time.Time
	Ended     time.Time
	FirstGait time.Time // first 200 from GET /v1/gaits (query-live only)
	Info      runInfo
	ETag      string
}

func (r runRecord) doneMS() float64 { return ms(r.Ended.Sub(r.Submitted)) }

// rung is one step of the capacity ladder.
type rung struct {
	Rate   float64 `json:"rate"`
	P99    float64 `json:"p99_ms"`
	N      int     `json:"n"`
	Unsent int     `json:"unsent"`
	Pass   bool    `json:"pass"`
}

// e2eResult is everything one end-to-end run measured.
type e2eResult struct {
	Setup     []float64 // seconds, one per timed launch
	QueryLat  []float64 // ms
	QueryAt   []float64 // ms after QueryT0 at which each query was due (or sent)
	QueryT0   time.Time
	Steal     *stealSampler // VM CPU counters over the query phase
	QueryLate []float64     // ms, open-loop phases only
	Queries   int           // answered in the measured phase
	Runs      []runRecord
	Makespan  time.Duration // first submit to last end of the measured runs
	Ladder    []rung
	Capacity  float64
	RSSMB     float64
	ServerCPU time.Duration // during the measured phase
	LoadCPU   time.Duration // this process, during the measured phase
	StealPct  float64       // share of the VM's CPU time its host took away during the measured phase
	Before    map[string]float64
	After     map[string]float64
	Attempted int
	Failed    int
	FailNotes []string
	Invalid   string // set when the generator fell behind its schedule
}

func (r *e2eResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.FailNotes) < 20 {
		r.FailNotes = append(r.FailNotes, fmt.Sprintf(format, args...))
	}
}

// env is what every workload needs: how to start the server, where to
// put spools, the seed, and the measured window.
type env struct {
	launch  launcher
	workdir string
	seed    uint64
	window  time.Duration
}

func (e env) spool(name string) string { return filepath.Join(e.workdir, name) }

// timedLaunch starts a server and records launch-to-ready seconds;
// ready runs after the server answers /healthz.
func timedLaunch(e env, res *e2eResult, spool string, ready func(base string) error) (server, error) {
	t0 := time.Now()
	s, err := e.launch(spool, daemonWorkers)
	if err != nil {
		return nil, err
	}
	if ready != nil {
		if err := ready(s.url()); err != nil {
			s.stop()
			return nil, err
		}
	}
	res.Setup = append(res.Setup, time.Since(t0).Seconds())
	return s, nil
}

// launchFresh times setupLaunches launches on fresh spools and keeps
// the last server running.
func launchFresh(e env, res *e2eResult) (server, error) {
	var s server
	for i := 0; i < setupLaunches; i++ {
		if s != nil {
			if err := s.stop(); err != nil {
				return nil, err
			}
		}
		var err error
		s, err = timedLaunch(e, res, e.spool(fmt.Sprintf("spool%d", i)), nil)
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

// evolve submits spec on c, follows its SSE stream to the end event,
// and reads back the run's final view and snapshot ETag.
func evolve(c *client, spec leonardo.RunSpec, onSubmit func(runRecord)) (runRecord, error) {
	rec := runRecord{Kind: kindOf(spec), Spec: spec, Submitted: time.Now()}
	id, err := c.submit(spec)
	if err != nil {
		return rec, err
	}
	rec.ID = id
	if onSubmit != nil {
		onSubmit(rec)
	}
	if rec.Ended, err = c.awaitEnd(id); err != nil {
		return rec, err
	}
	if rec.Info, err = c.info(id); err != nil {
		return rec, err
	}
	if rec.Info.State != "done" {
		return rec, fmt.Errorf("run %s ended %s, want done", id, rec.Info.State)
	}
	_, rec.ETag, err = c.snapshot(id)
	return rec, err
}

// closedLoop runs one goroutine per client; each takes the next spec
// and evolves it until the deadline passes. after, if set, runs on the
// client after each run (evolve-mix reads gaits there). Records come
// back in submission order.
func closedLoop(clients []*client, specs []leonardo.RunSpec, deadline time.Time, res *e2eResult, after func(c *client, rec runRecord)) {
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= len(specs) {
					return
				}
				rec, err := evolve(c, specs[i], nil)
				mu.Lock()
				res.Attempted++
				if err != nil {
					res.fail("%s run: %v", kindOf(specs[i]), err)
				} else {
					res.Runs = append(res.Runs, rec)
				}
				mu.Unlock()
				if err == nil && after != nil {
					after(c, rec)
				}
			}
		}(c)
	}
	wg.Wait()
	sort.Slice(res.Runs, func(i, j int) bool { return res.Runs[i].Submitted.Before(res.Runs[j].Submitted) })
	if n := len(res.Runs); n > 0 {
		last := res.Runs[0].Ended
		for _, r := range res.Runs {
			if r.Ended.After(last) {
				last = r.Ended
			}
		}
		res.Makespan = last.Sub(res.Runs[0].Submitted)
	}
}

// verifyETags replays every run in-process and checks that the daemon
// served the same final snapshot bytes. It returns each run's replay
// checkpoints.
func verifyETags(res *e2eResult) ([][][]byte, error) {
	specs := make([]leonardo.RunSpec, len(res.Runs))
	for i, r := range res.Runs {
		specs[i] = r.Spec
	}
	snaps, err := replayAll(specs, nproc())
	if err != nil {
		return nil, err
	}
	for i, r := range res.Runs {
		if want := etagOf(snaps[i][len(snaps[i])-1]); r.ETag != want {
			res.fail("run %s (%s): final snapshot ETag %s, in-process replay %s", r.ID, r.Kind, r.ETag, want)
		}
	}
	return snaps, nil
}

// measure brackets the measured phase: CPU of both processes and the
// /metrics counters.
type measure struct {
	s       server
	c       *client
	srvCPU  time.Duration
	loadCPU time.Duration
	stat    []float64
	before  map[string]float64
}

func startMeasure(s server, c *client) (*measure, error) {
	m := &measure{s: s, c: c}
	var err error
	if m.before, err = c.scrape(); err != nil {
		return nil, err
	}
	if m.srvCPU, err = s.cpu(); err != nil {
		return nil, err
	}
	m.loadCPU = selfCPU()
	m.stat = cpuStat()
	return m, nil
}

func (m *measure) finish(res *e2eResult) error {
	res.LoadCPU = selfCPU() - m.loadCPU
	res.StealPct = stealPct(m.stat, cpuStat())
	cpu, err := m.s.cpu()
	if err != nil {
		return err
	}
	res.ServerCPU = cpu - m.srvCPU
	res.Before = m.before
	if res.After, err = m.c.scrape(); err != nil {
		return err
	}
	res.RSSMB, err = m.s.peakRSSMB()
	return err
}

// runQueryHot: open-loop lookups over the occupied cells of finished
// repertoire runs reloaded from the store, at a fixed rate and then up
// the capacity ladder.
func runQueryHot(e env) (*e2eResult, error) {
	res := &e2eResult{}
	spool := e.spool("spool")
	s, err := e.launch(spool, daemonWorkers)
	if err != nil {
		return nil, err
	}
	// The set-up runs are timed too: two clients evolving at once, as
	// in evolve-mix, but repertoire runs only and no reads.
	clients, err := newClients(s.url(), 2)
	if err != nil {
		s.stop()
		return nil, err
	}
	closedLoop(clients, repSpecs(e.seed, hotRuns), time.Now().Add(time.Hour), res, nil)
	closeClients(clients)
	if err := s.stop(); err != nil {
		return nil, err
	}
	if len(res.Runs) != hotRuns {
		return res, fmt.Errorf("query-hot set-up evolved %d of %d runs: %v", len(res.Runs), hotRuns, res.FailNotes)
	}
	if _, err := verifyETags(res); err != nil {
		return nil, err
	}

	// Restart on the same spool, setupLaunches times: the measured phase
	// serves runs reloaded from the store. A launch is ready once every
	// run answers one gait query (its archive is decoded and cached).
	var archives []*repertoire.Archive
	var ids []string
	for _, r := range res.Runs {
		ids = append(ids, r.ID)
	}
	ready := func(base string) error {
		c, err := newClient(base)
		if err != nil {
			return err
		}
		defer c.close()
		for _, id := range ids {
			status, _, err := c.get("/v1/gaits?run=" + id)
			if err != nil {
				return err
			}
			if status != http.StatusOK {
				return fmt.Errorf("run %s listing: status %d", id, status)
			}
		}
		return nil
	}
	for i := 0; i < setupLaunches; i++ {
		if s, err = timedLaunch(e, res, spool, ready); err != nil {
			return nil, err
		}
		if i < setupLaunches-1 {
			if err := s.stop(); err != nil {
				return nil, err
			}
		}
	}
	defer s.stop()

	conns, err := newClients(s.url(), 2)
	if err != nil {
		return nil, err
	}
	defer closeClients(conns)
	c := conns[0]

	// The oracle: each served snapshot, decoded in-process.
	for _, r := range res.Runs {
		snap, etag, err := c.snapshot(r.ID)
		if err != nil {
			return nil, err
		}
		if etag != r.ETag {
			res.fail("run %s: ETag changed across restart: %s vs %s", r.ID, r.ETag, etag)
		}
		a, err := repertoire.DecodeArchive(snap)
		if err != nil {
			return nil, fmt.Errorf("decode served snapshot of %s: %w", r.ID, err)
		}
		archives = append(archives, a)
	}

	type hotQuery struct {
		path string
		want []byte
	}
	pool := make([]hotQuery, hotPool)
	pr := newRNG(e.seed, streamPoints)
	var occupied [][]int
	for _, a := range archives {
		var cells []int
		for i := 0; i < a.Grid().Cells(); i++ {
			if a.Filled(i) {
				cells = append(cells, i)
			}
		}
		occupied = append(occupied, cells)
	}
	for i := range pool {
		k := pr.below(len(archives))
		p := cellPoints(archives[k].Grid(), occupied[k], 1, pr)[0]
		want, ok := expectLookup(ids[k], p, archives[k])
		if !ok {
			return nil, fmt.Errorf("query point %v of run %s falls in no occupied cell", p, ids[k])
		}
		pool[i] = hotQuery{path: p.query(ids[k]), want: want}
	}
	do := func(c *client, i int) bool {
		q := pool[i%len(pool)]
		status, body, err := c.get(q.path)
		return err == nil && status == http.StatusOK && bytes.Equal(body, q.want)
	}

	// Warm both connections and the cache before timing anything.
	warm := openLoop(conns, schedule(e.seed, streamWarmup, hotRate, 500*time.Millisecond), 500*time.Millisecond, do)
	res.Attempted += warm.Attempted
	for i := 0; i < warm.Failed; i++ {
		res.fail("query-hot warm-up: wrong or failed answer")
	}

	m, err := startMeasure(s, c)
	if err != nil {
		return nil, err
	}
	fixed := time.Duration(float64(e.window) * hotFixedFrac)
	res.Steal = startStealSampler()
	lr := openLoop(conns, schedule(e.seed, streamSchedule, hotRate, fixed), fixed, do)
	// CPU per query is taken over the fixed-rate phase only.
	if err := m.finish(res); err != nil {
		return nil, err
	}
	res.Steal.stop()
	res.QueryLat, res.QueryLate, res.QueryAt, res.QueryT0, res.Queries = lr.Lat, lr.Late, lr.At, lr.Start, lr.Attempted
	res.Attempted += lr.Attempted
	for i := 0; i < lr.Failed; i++ {
		res.fail("query-hot: wrong or failed answer")
	}
	if lr.Unsent > 0 {
		res.Invalid = fmt.Sprintf("query-hot fell %d requests behind its %g/s schedule", lr.Unsent, hotRate)
	}

	step := time.Duration(float64(e.window) * (1 - hotFixedFrac) / float64(len(ladderRates)))
	for j, rate := range ladderRates {
		rr := openLoop(conns, schedule(e.seed, streamLadder+uint64(j), rate, step), step, do)
		sm := summarize(rr.Lat)
		g := rung{Rate: rate, P99: sm.P99, N: sm.N, Unsent: rr.Unsent}
		g.Pass = rr.Unsent == 0 && rr.Failed == 0 && sm.P99 <= latencyLimit
		res.Attempted += rr.Attempted
		for i := 0; i < rr.Failed; i++ {
			res.fail("query-hot ladder %g/s: wrong or failed answer", rate)
		}
		res.Ladder = append(res.Ladder, g)
		if !g.Pass {
			break
		}
		res.Capacity = rate
	}
	return res, nil
}

// runEvolveMix: a closed loop of two clients over a seeded mix of all
// four run kinds; after each repertoire run the client reads a few
// gaits from it, the way a user would use what they evolved.
func runEvolveMix(e env) (*e2eResult, error) {
	res := &e2eResult{}
	s, err := launchFresh(e, res)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	clients, err := newClients(s.url(), 2)
	if err != nil {
		return nil, err
	}
	defer closeClients(clients)

	type fetch struct {
		run    string
		p      point
		status int
		body   []byte
	}
	var mu sync.Mutex
	var fetches []fetch
	points := cellPoints(repGridOf(), allCells(repGridOf()), 1024, newRNG(e.seed, streamPoints))
	var pi atomic.Int64
	var phase time.Time
	after := func(c *client, rec runRecord) {
		if rec.Kind != "repertoire" {
			return
		}
		local := make([]fetch, 0, mixFetches)
		for k := 0; k < mixFetches; k++ {
			p := points[int(pi.Add(1))%len(points)]
			t0 := time.Now()
			status, body, err := c.get(p.query(rec.ID))
			lat := ms(time.Since(t0))
			mu.Lock()
			res.QueryLat = append(res.QueryLat, lat)
			res.QueryAt = append(res.QueryAt, ms(t0.Sub(phase)))
			mu.Unlock()
			if err != nil {
				status = 0
			}
			local = append(local, fetch{rec.ID, p, status, append([]byte(nil), body...)})
		}
		mu.Lock()
		fetches = append(fetches, local...)
		mu.Unlock()
	}

	m, err := startMeasure(s, clients[0])
	if err != nil {
		return nil, err
	}
	phase = time.Now()
	res.QueryT0, res.Steal = phase, startStealSampler()
	closedLoop(clients, specMix(e.seed, 1<<14), phase.Add(e.window), res, after)
	res.Steal.stop()
	if err := m.finish(res); err != nil {
		return nil, err
	}
	res.Queries = len(fetches)

	snaps, err := verifyETags(res)
	if err != nil {
		return nil, err
	}
	finals := make(map[string]*repertoire.Archive)
	for i, r := range res.Runs {
		if r.Kind == "repertoire" {
			a, err := repertoire.DecodeArchive(snaps[i][len(snaps[i])-1])
			if err != nil {
				return nil, err
			}
			finals[r.ID] = a
		}
	}
	for _, f := range fetches {
		res.Attempted++
		if !answerMatches(f.run, f.p, finals[f.run], f.status, f.body) {
			res.fail("evolve-mix: gait %s of run %s: status %d", f.p.query(f.run), f.run, f.status)
		}
	}
	return res, nil
}

// runQueryLive: one client keeps a repertoire run evolving; one
// open-loop connection queries the evolving run and the last finished
// one, so checkpoints keep invalidating the decoded-archive cache.
func runQueryLive(e env) (*e2eResult, error) {
	res := &e2eResult{}
	s, err := launchFresh(e, res)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	conns, err := newClients(s.url(), 2)
	if err != nil {
		return nil, err
	}
	defer closeClients(conns)
	writer, readers := conns[0], conns[1:]

	specs := repSpecs(e.seed, 1<<12)
	first, err := evolve(writer, specs[0], nil) // the "last finished run" at the start
	if err != nil {
		return nil, fmt.Errorf("query-live set-up run: %w", err)
	}

	// Shared between the writer and the reader: the run being evolved
	// (with whether it has served a gait yet) and the last finished run.
	var mu sync.Mutex
	runIdx := map[string]int{first.ID: 0} // run id -> spec index
	finished := first.ID
	evolving := ""
	firstGait := map[string]time.Time{}
	submitted := map[string]time.Time{}

	type answer struct {
		run    string
		point  int
		status int
		body   []byte
		at     time.Time
	}
	points := cellPoints(repGridOf(), allCells(repGridOf()), 1024, newRNG(e.seed, streamPoints))
	answers := make([]answer, 0, int(liveRate*e.window.Seconds()*1.2))
	var amu sync.Mutex

	m, err := startMeasure(s, writer)
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(e.window)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; time.Now().Before(deadline) && i < len(specs); i++ {
			rec, err := evolve(writer, specs[i], func(r runRecord) {
				mu.Lock()
				runIdx[r.ID] = i
				submitted[r.ID] = r.Submitted
				evolving = r.ID
				mu.Unlock()
			})
			mu.Lock()
			res.Attempted++
			if err != nil {
				res.fail("query-live run: %v", err)
			} else {
				rec.FirstGait = firstGait[rec.ID]
				res.Runs = append(res.Runs, rec)
				finished = rec.ID
			}
			evolving = ""
			mu.Unlock()
		}
	}()
	res.Steal = startStealSampler()
	lr := openLoop(readers, schedule(e.seed, streamSchedule, liveRate, e.window), e.window, func(c *client, i int) bool {
		mu.Lock()
		run := finished
		if i%2 == 0 && evolving != "" {
			run = evolving
		}
		mu.Unlock()
		pt := i % len(points)
		status, body, err := c.get(points[pt].query(run))
		if err != nil {
			return false
		}
		if status == http.StatusOK {
			mu.Lock()
			if _, seen := firstGait[run]; !seen {
				firstGait[run] = time.Now()
			}
			mu.Unlock()
		}
		amu.Lock()
		answers = append(answers, answer{run, pt, status, append([]byte(nil), body...), time.Now()})
		amu.Unlock()
		return true
	})
	res.Steal.stop()
	wg.Wait()
	if err := m.finish(res); err != nil {
		return nil, err
	}
	res.QueryLat, res.QueryLate, res.QueryAt, res.QueryT0, res.Queries = lr.Lat, lr.Late, lr.At, lr.Start, lr.Attempted
	res.Attempted += lr.Attempted
	for i := 0; i < lr.Failed; i++ {
		res.fail("query-live: transport error")
	}
	if lr.Unsent > 0 {
		res.Invalid = fmt.Sprintf("query-live fell %d requests behind its %g/s schedule", lr.Unsent, liveRate)
	}
	if _, err := verifyETags(res); err != nil {
		return nil, err
	}
	if len(res.Runs) > 0 {
		res.Makespan = res.Runs[len(res.Runs)-1].Ended.Sub(res.Runs[0].Submitted)
	}

	// Every answer must be right at some checkpoint of its run.
	used := map[string]bool{}
	for _, a := range answers {
		used[a.run] = true
	}
	ids := make([]string, 0, len(used))
	rspecs := make([]leonardo.RunSpec, 0, len(used))
	for id := range used {
		ids = append(ids, id)
		rspecs = append(rspecs, specs[runIdx[id]])
	}
	snaps, err := replayAll(rspecs, nproc())
	if err != nil {
		return nil, err
	}
	arch := map[string][]*repertoire.Archive{}
	for k, id := range ids {
		if arch[id], err = decodeAll(snaps[k]); err != nil {
			return nil, err
		}
	}
	for _, a := range answers {
		if a.status == http.StatusConflict && a.run != first.ID {
			// Snapshot pending: right only before the run's first
			// checkpoint, so before any gait of it was served.
			if ft, ok := firstGait[a.run]; !ok || !a.at.After(ft) {
				continue
			}
		}
		if !answerMatchesAny(a.run, points[a.point], arch[a.run], a.status, a.body) {
			res.fail("query-live: %s answered %d", points[a.point].query(a.run), a.status)
		}
	}
	return res, nil
}
