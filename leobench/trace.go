package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"leonardo"
	"leonardo/internal/fitness"
	"leonardo/internal/gaitserve"
	"leonardo/internal/repertoire"
	"leonardo/internal/robot"
	"leonardo/internal/serve"
	"leonardo/internal/store"
)

// The traced run. Spans are recorded only here, around calls into
// each layer's public functions; the program itself carries no
// tracing. Spans stay in memory and are summarised when the run ends.

// span is one timed call. Spans of one HTTP request share Req.
type span struct {
	Name       string
	Start, End time.Duration // since the tracer's epoch
	Req        int64
	Per        int // calls the span covers (a batch of tiny calls is one span)
}

type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	reqs  atomic.Int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// do records one span of name around f, covering per calls.
func (t *tracer) do(name string, per int, f func()) {
	s := time.Since(t.t0)
	f()
	e := time.Since(t.t0)
	t.add(span{Name: name, Start: s, End: e, Per: per})
}

func (t *tracer) add(sp span) {
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// perCall returns the median duration of one call under name.
func (t *tracer) perCall(name string) (time.Duration, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var xs []float64
	calls := 0
	for _, s := range t.spans {
		if s.Name == name {
			xs = append(xs, float64(s.End-s.Start)/float64(s.Per))
			calls += s.Per
		}
	}
	if len(xs) == 0 {
		return 0, 0
	}
	return time.Duration(median(xs)), calls
}

// names lists the distinct span names recorded, sorted.
func (t *tracer) names() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	seen := map[string]bool{}
	var out []string
	for _, s := range t.spans {
		if !seen[s.Name] {
			seen[s.Name] = true
			out = append(out, s.Name)
		}
	}
	sort.Strings(out)
	return out
}

// inproc is the serve stack in this process behind a loopback
// net/http server, with a span around every request.
type inproc struct {
	m   *serve.Manager
	srv *http.Server
	ln  net.Listener
	wg  sync.WaitGroup
}

func inprocLauncher(t *tracer) launcher {
	return func(spool string, workers int) (server, error) {
		m, err := serve.New(serve.Config{Spool: spool, Workers: workers})
		if err != nil {
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			m.Close()
			return nil, err
		}
		api := serve.NewAPI(m)
		h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			id := t.reqs.Add(1)
			s := time.Since(t.t0)
			api.ServeHTTP(w, r)
			name := "serve.handler." + routeOf(r) + "_us"
			t.add(span{Name: name, Start: s, End: time.Since(t.t0), Req: id, Per: 1})
		})
		p := &inproc{m: m, srv: &http.Server{Handler: h}, ln: ln}
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			_ = p.srv.Serve(ln) // returns ErrServerClosed on stop
		}()
		return p, nil
	}
}

// routeOf names a request by its API route.
func routeOf(r *http.Request) string {
	switch p := r.URL.Path; {
	case p == "/v1/gaits":
		return "gaits"
	case p == "/v1/runs" && r.Method == http.MethodPost:
		return "submit"
	case strings.HasSuffix(p, "/events"):
		return "events"
	case strings.HasSuffix(p, "/snapshot"):
		return "snapshot"
	case p == "/metrics":
		return "metrics"
	}
	return "other"
}

func (p *inproc) url() string { return "http://" + p.ln.Addr().String() }

func (p *inproc) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := p.srv.Shutdown(ctx)
	p.wg.Wait()
	p.m.Close()
	return err
}

func (p *inproc) cpu() (time.Duration, error) { return selfCPU(), nil }
func (p *inproc) peakRSSMB() (float64, error) { return selfPeakRSSMB() }

// layerProbes times each layer's public functions on the workload's
// own inputs: its first spec of every kind, its repertoire spec, and
// query points inside that spec's archive.
func layerProbes(t *tracer, seed uint64, workdir string) (map[string]float64, error) {
	out := map[string]float64{}
	specs := specMix(seed, len(kinds))
	rep := repSpecs(seed, 1)[0]

	// The workload's own spec of every kind; its repertoire spec is the
	// one whose archive the read-path probes query.
	for i, sp := range specs {
		if kindOf(sp) == "repertoire" {
			specs[i] = rep
		}
	}

	// serve: submit each kind through the handler (RunSpec decode +
	// NewRunner), let the in-process manager run it, and read its
	// queue wait and run time from the registry stamps.
	m, err := serve.New(serve.Config{Spool: filepath.Join(workdir, "probe-spool"), Workers: daemonWorkers})
	if err != nil {
		return nil, err
	}
	defer m.Close()
	api := serve.NewAPI(m)
	ids := make([]string, len(specs))
	repID := ""
	for i, sp := range specs {
		body, err := json.Marshal(sp)
		if err != nil {
			return nil, err
		}
		rec := httptest.NewRecorder()
		t.do("serve.api.submit_us."+kindOf(sp), 1, func() {
			api.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/runs", bytes.NewReader(body)))
		})
		var info runInfo
		if rec.Code != http.StatusCreated || json.Unmarshal(rec.Body.Bytes(), &info) != nil {
			return nil, fmt.Errorf("probe submit %s: status %d", sp.Kind, rec.Code)
		}
		ids[i] = info.ID
		if sp.Seed == rep.Seed && kindOf(sp) == "repertoire" {
			repID = info.ID
		}
	}
	var waits []float64
	runMS := map[string][]float64{}
	for i, id := range ids {
		info, err := awaitTerminal(m, id)
		if err != nil {
			return nil, err
		}
		w, err1 := stampMS(info.Submitted, info.Started)
		r, err2 := stampMS(info.Started, info.Finished)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("probe run %s: bad stamps", id)
		}
		waits = append(waits, w)
		k := kindOf(specs[i])
		runMS[k] = append(runMS[k], r)
	}
	out["serve.manager.queue_wait_ms"] = median(waits)
	var mbuf bytes.Buffer
	m.WriteMetrics(&mbuf)
	if sum, n := promValue(mbuf.String(), "leonardod_snapshot_latency_seconds_sum"), promValue(mbuf.String(), "leonardod_snapshot_latency_seconds_count"); n > 0 {
		out["serve.checkpoint_ms"] = 1000 * sum / n
	}
	for _, k := range kinds {
		out["serve.manager.run_ms."+k] = median(runMS[k])
	}

	// The served archive and the query points inside it.
	snap, err := m.Snapshot(repID)
	if err != nil {
		return nil, err
	}
	arch, err := repertoire.DecodeArchive(snap)
	if err != nil {
		return nil, err
	}
	var occupied []int
	for i := 0; i < arch.Grid().Cells(); i++ {
		if arch.Filled(i) {
			occupied = append(occupied, i)
		}
	}
	filled, cells := arch.Coverage()
	out["repertoire.coverage"] = float64(filled) / float64(cells)
	pts := cellPoints(arch.Grid(), occupied, 1000, newRNG(seed, streamPoints))

	const reps = 200 // spans per tiny-call probe; each covers len(pts) calls
	var sink int
	for k := 0; k < reps; k++ {
		t.do("repertoire.lookup_ns", len(pts), func() {
			for _, p := range pts {
				if el, ok := arch.Lookup(p.Heading, p.Stride); ok {
					sink += el.Fitness
				}
			}
		})
	}
	type binned struct {
		h, s int
		el   repertoire.Elite
	}
	bins := make([]binned, len(pts))
	for i, p := range pts {
		bins[i].h, bins[i].s, _ = arch.Grid().Bin(p.Heading, p.Stride)
		bins[i].el, _ = arch.Lookup(p.Heading, p.Stride)
	}
	buf := make([]byte, 0, 512)
	for k := 0; k < reps; k++ {
		t.do("gaitserve.encode.lookup_ns", len(pts), func() {
			for i, p := range pts {
				buf = gaitserve.AppendLookup(buf[:0], repID, p.Heading, p.Stride, bins[i].h, bins[i].s, bins[i].el)
			}
		})
	}
	cache := gaitserve.NewCache(0)
	hash := store.HashOf(snap).Hex()
	load := func() ([]byte, error) { return snap, nil }
	if _, err := cache.Get(repID, hash, load); err != nil {
		return nil, err
	}
	for k := 0; k < reps; k++ {
		t.do("gaitserve.cache.hit_ns", len(pts), func() {
			for range pts {
				cache.Get(repID, hash, load)
			}
		})
	}
	for k := 0; k < 50; k++ {
		fresh := fmt.Sprintf("%s-%d", hash, k) // a new content hash forces a decode
		t.do("gaitserve.cache.miss_us", 1, func() { cache.Get(repID, fresh, load) })
		t.do("repertoire.decode_us", 1, func() { repertoire.DecodeArchive(snap) })
	}
	hub := gaitserve.NewHub(0)
	for k := 0; k < reps; k++ {
		t.do("gaitserve.hub.publish_ns", len(pts), func() {
			for i := range pts {
				hub.Publish(repID, gaitserve.Progress{Generation: i, Filled: filled, Cells: cells})
			}
		})
	}
	if _, err := m.Archive(repID); err != nil {
		return nil, err
	}
	for k := 0; k < reps; k++ {
		t.do("serve.manager.archive_ns", len(pts), func() {
			for range pts {
				m.Archive(repID)
			}
		})
	}
	for k := 0; k < 2000; k++ {
		p := pts[k%len(pts)]
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, p.query(repID), nil)
		t.do("serve.api.gaits_us", 1, func() { api.ServeHTTP(rec, req) })
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("probe gait query: status %d", rec.Code)
		}
	}
	hs := httptest.NewServer(api)
	c, err := newClient(hs.URL)
	if err != nil {
		hs.Close()
		return nil, err
	}
	for k := 0; k < 2000; k++ {
		p := pts[k%len(pts)]
		var status int
		t.do("serve.http.gaits_us", 1, func() { status, _, _ = c.get(p.query(repID)) })
		if status != http.StatusOK {
			c.close()
			hs.Close()
			return nil, fmt.Errorf("probe loopback gait query: status %d", status)
		}
	}
	c.close()
	hs.Close()

	// Evaluation kernels on the archive's own elites.
	elites := arch.Elites()
	eval := fitness.New()
	for k := 0; k < reps; k++ {
		t.do("fitness.score_ns", len(elites), func() {
			for _, el := range elites {
				sink += eval.Score(el.Genome)
			}
		})
	}
	for k := 0; k < 20; k++ {
		el := elites[k%len(elites)]
		t.do("robot.walk_us", 1, func() { robot.WalkGenome(el.Genome, robot.Trial{Cycles: repertoire.DefaultCycles}) })
		t.do("repertoire.descriptors_us", 1, func() { repertoire.Descriptors(el.Genome, repertoire.DefaultCycles) })
	}
	_ = sink

	// Engine steps per kind, then snapshot and resume of the state
	// they reached.
	stepName := map[string]string{
		"repertoire": "repertoire.step_ms",
		"gap":        "gap.generation_us",
		"lanepack":   "island.epoch_ms",
		"circuit":    "gapcirc.circuit_step_ms",
	}
	for _, sp := range specs {
		k := kindOf(sp)
		var r leonardo.Runner
		var err error
		if k == "circuit" {
			t.do("gapcirc.build_ms", 1, func() { r, err = sp.NewRunner() })
		} else {
			r, err = sp.NewRunner()
		}
		if err != nil {
			return nil, err
		}
		for i := 0; i < checkpointStride && !r.Done(); i++ {
			if err := func() (err error) {
				t.do(stepName[k], 1, func() { err = r.Step() })
				return err
			}(); err != nil {
				return nil, err
			}
		}
		var snap []byte
		for i := 0; i < 10; i++ {
			t.do("engine.snapshot_us."+k, 1, func() { snap = r.Snapshot() })
			t.do("engine.resume_us."+k, 1, func() { _, err = leonardo.ResumeAny(snap) })
			if err != nil {
				return nil, err
			}
		}
		out["engine.snapshot_bytes."+k] = float64(len(snap))
	}

	// store: content-addressed put (with fsync), link, and get.
	st, err := store.Open(filepath.Join(workdir, "probe-store"))
	if err != nil {
		return nil, err
	}
	for i := 0; i < 20; i++ {
		data := append(append([]byte(nil), snap...), byte(i), byte(i>>8))
		var h store.Hash
		t.do("store.put_us", 1, func() { h, err = st.Put(data) })
		if err != nil {
			return nil, err
		}
		t.do("store.link_us", 1, func() { err = st.Link(fmt.Sprintf("r%06d", i), h) })
		if err != nil {
			return nil, err
		}
		t.do("store.get_us", 1, func() { _, err = st.Get(h) })
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func awaitTerminal(m *serve.Manager, id string) (serve.Info, error) {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		info, err := m.Get(id)
		if err != nil {
			return info, err
		}
		if info.State.Terminal() {
			if info.State != serve.StateDone {
				return info, fmt.Errorf("probe run %s ended %s: %s", id, info.State, info.Error)
			}
			return info, nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return serve.Info{}, fmt.Errorf("probe run %s did not finish within 60s", id)
}
