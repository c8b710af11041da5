package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"leonardo"
	"leonardo/internal/engine"
	"leonardo/internal/gaitserve"
	"leonardo/internal/repertoire"
	"leonardo/internal/store"
)

// Registry errors. The API layer maps these onto HTTP status codes.
var (
	// ErrQueueFull rejects a submission beyond the admission queue depth
	// (backpressure; HTTP 429).
	ErrQueueFull = errors.New("serve: queue full")
	// ErrNotFound reports an unknown run id (HTTP 404).
	ErrNotFound = errors.New("serve: run not found")
	// ErrClosed rejects operations on a manager that is shutting down
	// (HTTP 503).
	ErrClosed = errors.New("serve: manager closed")
	// ErrFinished rejects cancelling a run that already reached a
	// terminal state (HTTP 409).
	ErrFinished = errors.New("serve: run already finished")
	// ErrBadSpec wraps run-spec validation failures (HTTP 400).
	ErrBadSpec = errors.New("serve: bad run spec")
	// ErrNoSnapshot reports a run that finished without ever
	// checkpointing (HTTP 404 on the snapshot endpoint).
	ErrNoSnapshot = errors.New("serve: no snapshot")
	// ErrSnapshotPending reports a live run that has not written its
	// first atomic checkpoint yet (HTTP 409 on the snapshot endpoint —
	// retryable, unlike ErrNoSnapshot).
	ErrSnapshotPending = errors.New("serve: no checkpoint yet; retry after the first snapshot stride")
	// ErrWrongKind rejects a gait query against a run whose kind has no
	// archive to serve (HTTP 400).
	ErrWrongKind = errors.New("serve: run kind has no gait archive")
)

// Config parameterizes a Manager. The zero value of every field is a
// usable default.
type Config struct {
	// Spool is the checkpoint directory. Empty disables persistence:
	// runs live only in memory and nothing survives a restart.
	Spool string
	// Workers caps how many runs step concurrently (0 = GOMAXPROCS).
	// Admitted runs beyond the cap queue FIFO.
	Workers int
	// QueueDepth caps the admission queue (0 = 64). Submissions beyond
	// it fail with ErrQueueFull.
	QueueDepth int
	// SnapshotEvery is the checkpoint stride in engine steps —
	// generations, epochs, or cycle slices depending on kind (0 = 50).
	SnapshotEvery int
	// GaitCache caps the decoded-archive cache behind GET /v1/gaits
	// (0 = gaitserve.DefaultCacheSize).
	GaitCache int
	// EventBuffer is the per-run SSE replay ring: how many progress
	// events a late subscriber can still replay (0 = gaitserve.
	// DefaultRingSize).
	EventBuffer int
	// Logf receives operational log lines (nil discards them).
	Logf func(format string, args ...any)
	// Cluster joins this node to a leonardod fleet; nil runs the node
	// standalone (cluster submissions are rejected). With a Spool
	// configured the migration inbox persists under <Spool>/inbox.
	Cluster *ClusterConfig
}

// Manager owns the run registry: admission, scheduling on a bounded
// worker pool, checkpointing, cancellation, and resume-on-boot. All
// methods are safe for concurrent use.
type Manager struct {
	cfg     Config
	sp      *spool // nil when persistence is disabled
	met     *metrics
	cluster *cluster // nil when the node is not part of a fleet
	gaits   *gaitserve.Cache
	hub     *gaitserve.Hub

	mu     sync.Mutex
	runs   map[string]*run
	order  []string // ids in admission order
	queue  []*run   // FIFO, waiting for a worker
	active int      // runs currently driving
	seq    int      // id allocator; survives restarts via meta.Seq
	closed bool

	ctx    context.Context // parent of every run context; Close cancels
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// run is one registry entry. Identity fields are immutable after
// construction; mutable state lives behind mu. It implements
// engine.Observer, so the engine loop feeds telemetry straight into the
// registry entry it belongs to.
type run struct {
	m      *Manager
	id     string
	seq    int
	spec   leonardo.RunSpec
	runner leonardo.Runner

	mu         sync.Mutex
	state      State
	ev         leonardo.Event
	err        error
	snap       []byte     // latest checkpoint bytes
	snapHash   store.Hash // content hash of snap (zero = none yet)
	cancel     context.CancelFunc
	userCancel bool
	resumed    bool
	submitted  time.Time
	started    time.Time
	finished   time.Time
	lastGen    int // metric delta baselines
	lastEval   int
}

// OnGeneration implements engine.Observer: it mirrors the event into
// the registry entry and feeds the throughput counters with deltas
// (clamped at zero — a resumed runner restarts Elapsed but never its
// monotone counters).
func (r *run) OnGeneration(ev leonardo.Event) {
	r.mu.Lock()
	dg := ev.Generation - r.lastGen
	de := ev.Evaluations - r.lastEval
	r.lastGen = ev.Generation
	r.lastEval = ev.Evaluations
	r.ev = ev
	state := r.state
	r.mu.Unlock()
	if dg > 0 {
		r.m.met.generations.Add(int64(dg))
	}
	if de > 0 {
		r.m.met.evaluations.Add(int64(de))
	}
	r.m.hub.Publish(r.id, r.progress(state, ev, false))
}

// progress builds the SSE event for one engine step. Called from the
// run's driver goroutine (the engine is between steps) or at boot, so
// reading the runner's coverage is race-free.
func (r *run) progress(state State, ev leonardo.Event, final bool) gaitserve.Progress {
	p := gaitserve.Progress{
		State:       string(state),
		Generation:  ev.Generation,
		Evaluations: ev.Evaluations,
		BestFitness: ev.BestFitness,
		MeanFitness: ev.MeanFitness,
		Final:       final,
	}
	if r.runner != nil {
		if cov, ok := r.runner.(interface{ Coverage() (int, int) }); ok {
			p.Filled, p.Cells = cov.Coverage()
		}
	}
	return p
}

// infoLocked snapshots the public view; r.mu must be held.
func (r *run) infoLocked() Info {
	return Info{
		ID:        r.id,
		Kind:      r.spec.Kind,
		State:     r.state,
		Spec:      r.spec,
		Submitted: stamp(r.submitted),
		Started:   stamp(r.started),
		Finished:  stamp(r.finished),
		Resumed:   r.resumed,
		Error:     errString(r.err),
		Event:     r.ev,
	}
}

func (r *run) info() Info {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.infoLocked()
}

func (r *run) metaLocked() meta {
	return meta{
		ID:        r.id,
		Seq:       r.seq,
		State:     r.state,
		Spec:      r.spec,
		Submitted: stamp(r.submitted),
		Started:   stamp(r.started),
		Finished:  stamp(r.finished),
		Error:     errString(r.err),
		Event:     r.ev,
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// New builds a manager and, when a spool directory is configured,
// reloads its registry: terminal runs come back as records, in-flight
// runs (queued, running, interrupted) are reconstructed — from their
// latest snapshot when one exists, else fresh from their spec — and
// requeued in the original admission order. A run that fails to
// reconstruct is recorded as failed; it never blocks the rest of the
// registry from booting.
func New(cfg Config) (*Manager, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = 50
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:   cfg,
		met:   newMetrics(),
		gaits: gaitserve.NewCache(cfg.GaitCache),
		hub:   gaitserve.NewHub(cfg.EventBuffer),
		runs:  make(map[string]*run),
		ctx:   ctx, cancel: cancel,
	}
	// The cluster — registry, sessions, durable inbox — must exist
	// before reload: resumed cluster runs re-enter their migration
	// sessions during reviveLocked.
	if cfg.Cluster != nil {
		inboxDir := ""
		if cfg.Spool != "" {
			inboxDir = filepath.Join(cfg.Spool, "inbox")
		}
		cl, err := newCluster(*cfg.Cluster, inboxDir, cfg.Logf)
		if err != nil {
			cancel()
			return nil, err
		}
		m.cluster = cl
	}
	if cfg.Spool != "" {
		sp, err := newSpool(cfg.Spool)
		if err != nil {
			m.shutdownCluster()
			cancel()
			return nil, err
		}
		m.sp = sp
		if err := m.reload(); err != nil {
			m.shutdownCluster()
			cancel()
			return nil, err
		}
	}
	return m, nil
}

func (m *Manager) shutdownCluster() {
	if m.cluster != nil {
		m.cluster.close()
	}
}

// reload rebuilds the registry from the spool at boot.
func (m *Manager) reload() error {
	metas, err := m.sp.loadAll(m.cfg.Logf)
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, mt := range metas {
		if mt.Seq > m.seq {
			m.seq = mt.Seq
		}
		r := &run{
			m: m, id: mt.ID, seq: mt.Seq, spec: mt.Spec,
			state: mt.State, ev: mt.Event,
			submitted: unstamp(mt.Submitted),
			started:   unstamp(mt.Started),
			finished:  unstamp(mt.Finished),
		}
		if mt.Error != "" {
			r.err = errors.New(mt.Error)
		}
		m.runs[mt.ID] = r
		m.order = append(m.order, mt.ID)
		if h, ok := m.sp.snapHash(mt.ID); ok {
			r.snapHash = h // hash only: bytes stay in the store until asked for
		}
		if mt.State.Terminal() {
			// Record only; the snapshot stays in the store for GET. The
			// run's event stream restarts empty, so publish its terminal
			// event — a late SSE subscriber still gets closure.
			m.hub.Publish(mt.ID, r.progress(mt.State, mt.Event, true))
			continue
		}
		if err := m.reviveLocked(r); err != nil {
			m.cfg.Logf("serve: %s failed to resume: %v", r.id, err)
			r.state = StateFailed
			r.err = err
			r.finished = now()
			m.persistMetaLocked(r)
			continue
		}
		r.state = StateQueued
		r.started = time.Time{}
		r.err = nil
		m.persistMetaLocked(r)
		m.queue = append(m.queue, r)
	}
	m.dispatchLocked()
	return nil
}

// reviveLocked reconstructs a non-terminal run at boot: from its latest
// snapshot when one exists (the resumed trajectory is bit-identical to
// an uninterrupted one), else fresh from its spec.
func (m *Manager) reviveLocked(r *run) error {
	snap, h, err := m.sp.loadSnap(r.id)
	if err != nil {
		return err
	}
	runner, err := m.buildRunner(r.spec, snap, false)
	if err != nil {
		return err
	}
	if snap != nil {
		// Worker count is pure scheduling: it is the one knob a resume
		// does not inherit from the snapshot.
		if w, ok := runner.(interface{ SetWorkers(int) }); ok {
			w.SetWorkers(r.spec.Workers)
		}
		r.resumed = true
		r.snap = snap
		r.snapHash = h
	}
	r.runner = runner
	r.ev = r.runner.Event()
	r.lastGen = r.ev.Generation
	r.lastEval = r.ev.Evaluations
	return nil
}

// buildRunner constructs a run's engine: resumed from snap when one
// exists, else fresh from the spec. Cluster specs go through this
// node's fleet plumbing; fresh is the Submit path (see
// newClusterRunner).
func (m *Manager) buildRunner(spec leonardo.RunSpec, snap []byte, fresh bool) (leonardo.Runner, error) {
	cluster := spec.Kind == leonardo.KindCluster
	switch {
	case snap != nil && cluster:
		return m.resumeClusterRunner(spec, snap)
	case snap != nil:
		return leonardo.ResumeAny(snap)
	case cluster:
		return m.newClusterRunner(spec, fresh)
	default:
		return spec.NewRunner()
	}
}

func unstamp(s string) time.Time {
	if s == "" {
		return time.Time{}
	}
	t, err := time.Parse(time.RFC3339Nano, s)
	if err != nil {
		return time.Time{}
	}
	return t
}

// Submit validates the spec, constructs the run, and admits it to the
// FIFO queue. It fails fast with ErrQueueFull when the queue is at
// depth — backpressure instead of unbounded buffering.
func (m *Manager) Submit(spec leonardo.RunSpec) (Info, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return Info{}, ErrClosed
	}
	if len(m.queue) >= m.cfg.QueueDepth {
		m.mu.Unlock()
		return Info{}, ErrQueueFull
	}
	m.mu.Unlock()

	// Construct outside the lock: circuit specs compile a full netlist.
	runner, err := m.buildRunner(spec, nil, true)
	if err != nil {
		return Info{}, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return Info{}, ErrClosed
	}
	if len(m.queue) >= m.cfg.QueueDepth {
		return Info{}, ErrQueueFull
	}
	m.seq++
	r := &run{
		m: m, id: fmt.Sprintf("r%06d", m.seq), seq: m.seq,
		spec: spec, runner: runner,
		state: StateQueued, submitted: now(),
		ev: runner.Event(),
	}
	r.lastGen = r.ev.Generation
	r.lastEval = r.ev.Evaluations
	m.runs[r.id] = r
	m.order = append(m.order, r.id)
	m.queue = append(m.queue, r)
	m.persistMetaLocked(r)
	m.dispatchLocked()
	return r.info(), nil
}

// dispatchLocked starts queued runs while workers are free; m.mu held.
func (m *Manager) dispatchLocked() {
	for !m.closed && m.active < m.cfg.Workers && len(m.queue) > 0 {
		r := m.queue[0]
		m.queue = m.queue[1:]
		m.active++
		ctx, cancel := context.WithCancel(m.ctx)
		r.mu.Lock()
		r.cancel = cancel
		r.state = StateRunning
		r.started = now()
		r.mu.Unlock()
		m.persistMetaLocked(r)
		m.wg.Add(1)
		// Each goroutine drives exactly one run; runs share no evolution
		// state, so scheduling order cannot perturb any trajectory.
		//leo:allow goroutine one driver per run; trajectories are independent and deterministic
		go m.drive(ctx, r)
	}
}

// drive executes one run to completion (or cancellation) on its worker
// slot, writes the final checkpoint, classifies the outcome, and frees
// the slot.
func (m *Manager) drive(ctx context.Context, r *run) {
	defer m.wg.Done()
	err := m.runLoop(ctx, r)
	m.checkpoint(r)

	var final State
	switch {
	case err == nil:
		final = StateDone
	case errors.Is(err, context.Canceled):
		r.mu.Lock()
		user := r.userCancel
		r.mu.Unlock()
		if user {
			final = StateCancelled
		} else {
			final = StateInterrupted // daemon shutdown; resumes next boot
		}
		err = nil
	default:
		final = StateFailed
		m.cfg.Logf("serve: %s failed: %v", r.id, err)
	}

	m.mu.Lock()
	r.mu.Lock()
	r.state = final
	r.err = err
	r.finished = now()
	r.cancel = nil
	ev := r.ev
	r.mu.Unlock()
	m.persistMetaLocked(r)
	m.active--
	m.dispatchLocked()
	m.mu.Unlock()
	// The terminal event closes the run's SSE stream — except for an
	// interrupted run, whose stream resumes after the next boot.
	if final != StateInterrupted {
		m.hub.Publish(r.id, r.progress(final, ev, true))
	}
}

// runLoop steps the run in checkpoint strides until it finishes or its
// context ends. Cancellation lands at the next generation boundary:
// engine.Steps consults ctx before every step.
//
//leo:longloop
func (m *Manager) runLoop(ctx context.Context, r *run) error {
	for !r.runner.Done() {
		if err := engine.Steps(ctx, r.runner, r, m.cfg.SnapshotEvery); err != nil {
			return err
		}
		m.checkpoint(r)
	}
	return nil
}

// checkpoint serializes the run (safe here: the engine is between
// steps) and persists it to the spool when one is configured. r.snap —
// what GET /v1/runs/{id}/snapshot serves — is published only AFTER the
// atomic spool write succeeds, so the endpoint never hands out a
// checkpoint that is not also durable: "latest snapshot" and "what a
// restart resumes from" are always the same bytes. Without a spool the
// in-memory copy is all there is and publishes immediately.
func (m *Manager) checkpoint(r *run) {
	snap := r.runner.Snapshot()
	h := store.HashOf(snap)
	if m.sp != nil {
		t0 := now()
		sh, err := m.sp.saveSnap(r.id, snap)
		if err != nil {
			m.cfg.Logf("serve: %s checkpoint: %v", r.id, err)
			return // keep serving the previous durable checkpoint
		}
		h = sh
		m.met.snapshotObserved(len(snap), now().Sub(t0))
	}
	r.mu.Lock()
	r.snap = snap
	r.snapHash = h
	r.mu.Unlock()
	// A durable cluster checkpoint retires the inbox epochs it has
	// replayed past. The epoch comes from the runner's cached barrier
	// state — exactly what was just persisted.
	if m.cluster != nil && r.spec.Kind == leonardo.KindCluster {
		if ep, ok := r.runner.(interface{ Epoch() int }); ok {
			m.cluster.prune(r.spec.Name, ep.Epoch())
		}
	}
}

// persistMetaLocked writes the registry entry to the spool; m.mu held.
func (m *Manager) persistMetaLocked(r *run) {
	if m.sp == nil {
		return
	}
	r.mu.Lock()
	mt := r.metaLocked()
	r.mu.Unlock()
	if err := m.sp.saveMeta(mt); err != nil {
		m.cfg.Logf("serve: %s meta: %v", r.id, err)
	}
}

// Get returns the live view of one run.
func (m *Manager) Get(id string) (Info, error) {
	m.mu.Lock()
	r := m.runs[id]
	m.mu.Unlock()
	if r == nil {
		return Info{}, ErrNotFound
	}
	return r.info(), nil
}

// List returns every registered run ordered by submission time, run id
// as the tiebreak — a total, deterministic order that survives
// restarts (admission order alone does not: a reload rebuilds m.order
// from directory listings). The sort compares the time.Time values,
// not their RFC 3339 stamps: the stamps truncate trailing fractional
// zeros, so their lexicographic order is not chronological.
func (m *Manager) List() []Info {
	m.mu.Lock()
	defer m.mu.Unlock()
	type entry struct {
		at   time.Time
		info Info
	}
	entries := make([]entry, 0, len(m.order))
	for _, id := range m.order {
		r := m.runs[id]
		r.mu.Lock()
		entries = append(entries, entry{r.submitted, r.infoLocked()})
		r.mu.Unlock()
	}
	sort.Slice(entries, func(i, j int) bool {
		if !entries[i].at.Equal(entries[j].at) {
			return entries[i].at.Before(entries[j].at)
		}
		return entries[i].info.ID < entries[j].info.ID
	})
	infos := make([]Info, len(entries))
	for i, e := range entries {
		infos[i] = e.info
	}
	return infos
}

// ListPage returns one page of the List order: runs strictly after the
// cursor id (empty = from the start), capped at limit (<= 0 = no cap).
// The cursor is the last run id of the previous page; because the
// order is total and stable, pages never skip or repeat a run that
// existed when paging began. An unknown cursor yields an empty page —
// the registry never deletes runs, so it can only be a client error.
func (m *Manager) ListPage(limit int, after string) []Info {
	infos := m.List()
	if after != "" {
		start := -1
		for i := range infos {
			if infos[i].ID == after {
				start = i + 1
				break
			}
		}
		if start < 0 {
			return []Info{}
		}
		infos = infos[start:]
	}
	if limit > 0 && len(infos) > limit {
		infos = infos[:limit]
	}
	return infos
}

// Snapshot returns the latest complete checkpoint for a run, falling
// back to the snapshot store for runs reloaded as records. A live run
// that has not reached its first checkpoint is ErrSnapshotPending
// (retryable, HTTP 409); a terminal run that never checkpointed is
// ErrNoSnapshot (HTTP 404). The in-memory copy is published atomically
// after the durable store write, so this never serves a torn or
// non-durable state.
func (m *Manager) Snapshot(id string) ([]byte, error) {
	snap, _, err := m.snapshotHash(id)
	return snap, err
}

// SnapshotETag is Snapshot plus the checkpoint's strong ETag — the
// quoted sha256 of the bytes, straight from the content-addressed
// store, so If-None-Match revalidation is an index lookup, not a read.
func (m *Manager) SnapshotETag(id string) ([]byte, string, error) {
	snap, h, err := m.snapshotHash(id)
	if err != nil {
		return nil, "", err
	}
	return snap, etagOf(h), nil
}

// etagOf renders a content hash as a strong HTTP entity tag.
func etagOf(h store.Hash) string { return `"sha256-` + h.Hex() + `"` }

// snapshotHash resolves a run's latest checkpoint bytes and content
// hash under the usual pending/no-snapshot classification.
func (m *Manager) snapshotHash(id string) ([]byte, store.Hash, error) {
	m.mu.Lock()
	r := m.runs[id]
	m.mu.Unlock()
	if r == nil {
		return nil, store.Hash{}, ErrNotFound
	}
	r.mu.Lock()
	snap, h := r.snap, r.snapHash
	terminal := r.state.Terminal()
	r.mu.Unlock()
	if snap != nil {
		return snap, h, nil
	}
	if m.sp != nil {
		disk, dh, err := m.sp.loadSnap(id)
		if err != nil {
			return nil, store.Hash{}, err
		}
		if disk != nil {
			return disk, dh, nil
		}
	}
	if terminal {
		return nil, store.Hash{}, ErrNoSnapshot
	}
	return nil, store.Hash{}, ErrSnapshotPending
}

// Archive returns the decoded gait archive of a repertoire run's
// latest checkpoint — the GET /v1/gaits backend. The result comes from
// the decoded-archive cache: the run's current snapshot hash is the
// cache key, so a hit costs two map lookups and no disk; a miss
// decodes once no matter how many queries stampede in (singleflight);
// a run that checkpointed again is re-decoded on its next query.
func (m *Manager) Archive(id string) (*repertoire.Archive, error) {
	m.mu.Lock()
	r := m.runs[id]
	m.mu.Unlock()
	if r == nil {
		return nil, ErrNotFound
	}
	if r.spec.Kind != leonardo.KindRepertoire {
		return nil, fmt.Errorf("%w (run %s is %q)", ErrWrongKind, id, r.spec.Kind)
	}
	// snap and hash are read under one lock, so the loader below can
	// never pair one checkpoint's bytes with another's hash.
	r.mu.Lock()
	snap, h := r.snap, r.snapHash
	terminal := r.state.Terminal()
	r.mu.Unlock()
	if snap == nil && h == (store.Hash{}) {
		if terminal {
			return nil, ErrNoSnapshot
		}
		return nil, ErrSnapshotPending
	}
	return m.gaits.Get(id, h.Hex(), func() ([]byte, error) {
		if snap != nil {
			return snap, nil
		}
		// Reloaded record: fetch by the exact hash the cache keys on.
		return m.sp.loadSnapAt(id, h)
	})
}

// Events subscribes to a run's SSE progress stream. The caller owns
// the subscription and must Close it.
func (m *Manager) Events(id string) (*gaitserve.Sub, error) {
	m.mu.Lock()
	r := m.runs[id]
	m.mu.Unlock()
	if r == nil {
		return nil, ErrNotFound
	}
	return m.hub.Subscribe(id), nil
}

// Cancel stops a run: a queued run is removed from the queue and
// finalized immediately; a running run is cancelled at its next
// generation boundary (the final state lands asynchronously). Terminal
// runs return ErrFinished.
func (m *Manager) Cancel(id string) (Info, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r := m.runs[id]
	if r == nil {
		return Info{}, ErrNotFound
	}
	r.mu.Lock()
	state := r.state
	r.mu.Unlock()
	switch state {
	case StateQueued:
		for i, q := range m.queue {
			if q == r {
				m.queue = append(m.queue[:i], m.queue[i+1:]...)
				break
			}
		}
		r.mu.Lock()
		r.state = StateCancelled
		r.finished = now()
		r.mu.Unlock()
		m.persistMetaLocked(r)
	case StateRunning:
		r.mu.Lock()
		r.userCancel = true
		cancel := r.cancel
		r.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		// A cluster run may be parked at an epoch barrier; wake it so
		// cancellation does not ride out the epoch timeout.
		if m.cluster != nil && r.spec.Kind == leonardo.KindCluster {
			m.cluster.abortRun(r.spec.Name)
		}
	default:
		return Info{}, ErrFinished
	}
	return r.info(), nil
}

// QueueDepth reports how many admitted runs are waiting for a worker.
func (m *Manager) QueueDepth() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.queue)
}

// stateCounts returns the registry tally by state plus queue depth,
// consistent under one lock acquisition.
func (m *Manager) stateCounts() (map[State]int, int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	counts := make(map[State]int, len(States))
	for _, id := range m.order {
		r := m.runs[id]
		r.mu.Lock()
		counts[r.state]++
		r.mu.Unlock()
	}
	return counts, len(m.queue)
}

// WriteMetrics renders the Prometheus text exposition of the manager,
// plus the per-node migration counters on cluster-configured nodes.
func (m *Manager) WriteMetrics(w io.Writer) {
	counts, depth := m.stateCounts()
	m.met.writeMetrics(w, counts, depth)
	m.met.writeGaitMetrics(w, m.gaits.Stats(), m.hub.Subscribers(), m.hub.Published())
	if m.cluster != nil {
		m.cluster.met.writeMetrics(w, len(m.cluster.peers))
	}
}

// Close shuts the manager down gracefully: no new admissions, every
// running run is cancelled and — classified interrupted — writes a
// final checkpoint before its driver exits, and queued runs stay
// persisted as queued. A subsequent New on the same spool resumes all
// of them. Close blocks until every driver goroutine has finished.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.wg.Wait()
		return
	}
	m.closed = true
	m.mu.Unlock()
	m.cancel()
	// Closing the cluster releases any driver blocked in an epoch
	// barrier wait or sender retry; it must precede the join below or a
	// cluster run could hold Close hostage for a full epoch timeout.
	m.shutdownCluster()
	m.wg.Wait()
}
