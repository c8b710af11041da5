package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"leonardo"
	"leonardo/internal/gaitserve"
)

// NewAPI wraps a manager in the leonardod HTTP JSON API:
//
//	POST /v1/runs               submit a RunSpec            → 201 Info
//	GET  /v1/runs               list the registry           → 200 []Info
//	                            (?limit=N&after=ID paginates)
//	GET  /v1/runs/{id}          live view of one run        → 200 Info
//	POST /v1/runs/{id}/cancel   cancel a run                → 200 Info
//	GET  /v1/runs/{id}/snapshot latest checkpoint (binary)  → 200 bytes
//	                            (ETag + If-None-Match → 304)
//	GET  /v1/runs/{id}/events   progress stream             → 200 SSE
//	GET  /v1/gaits              gait lookup / listing       → 200 JSON
//	POST /v1/migrate            peer migration batch        → 200 ack
//	GET  /healthz               liveness                    → 200
//	GET  /metrics               Prometheus text exposition  → 200
//
// The snapshot endpoint serves only complete, durable checkpoints: a
// live run that has not written its first one yet answers 409 (retry
// shortly), a terminal run that never checkpointed answers 404. Its
// ETag is the checkpoint's sha256 straight from the content-addressed
// store, so a poller revalidating with If-None-Match costs an index
// lookup and an empty 304 until the run actually checkpoints again.
//
// GET /v1/gaits?run=ID&heading=RAD&stride=MM answers "which gait walks
// that way" from the run's decoded archive: the elite of the cell the
// query bins into, or 404 when the cell is empty or the query falls
// off the grid. Without heading/stride it lists every occupied cell.
// Responses are rendered allocation-free into pooled buffers
// (//leo:hotpath); archives come from the manager's singleflight LRU
// cache, so steady-state queries never touch the store.
//
// GET /v1/runs/{id}/events streams progress as Server-Sent Events: one
// event per engine step (JSON gaitserve.Progress, the event id is the
// per-run sequence number), a final event when the run reaches a
// terminal state, then the stream closes. A late subscriber replays
// the retained tail (Config.EventBuffer events); Last-Event-ID or
// ?after=SEQ resumes past what a client already saw.
//
// /v1/migrate is node-to-node traffic: peers of a cluster-configured
// node deliver epoch-stamped emigrant batches here. Delivery is
// idempotent — the ack distinguishes "accepted" from "duplicate", and
// both mean the sender can stop retrying.
//
// Errors come back as {"error": "..."} with the status the registry
// error maps to: 400 bad spec, 404 unknown run or no snapshot, 409
// already finished or snapshot pending, 413 run spec body over 1 MiB,
// 429 queue full, 503 shutting down.
func NewAPI(m *Manager) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", func(w http.ResponseWriter, req *http.Request) {
		handleSubmit(m, w, req)
	})
	mux.HandleFunc("GET /v1/runs", func(w http.ResponseWriter, req *http.Request) {
		handleList(m, w, req)
	})
	mux.HandleFunc("GET /v1/runs/{id}", func(w http.ResponseWriter, req *http.Request) {
		info, err := m.Get(req.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, info)
	})
	mux.HandleFunc("POST /v1/runs/{id}/cancel", func(w http.ResponseWriter, req *http.Request) {
		info, err := m.Cancel(req.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, info)
	})
	mux.HandleFunc("GET /v1/runs/{id}/snapshot", func(w http.ResponseWriter, req *http.Request) {
		handleSnapshot(m, w, req)
	})
	mux.HandleFunc("GET /v1/runs/{id}/events", func(w http.ResponseWriter, req *http.Request) {
		handleEvents(m, w, req)
	})
	mux.HandleFunc("GET /v1/gaits", func(w http.ResponseWriter, req *http.Request) {
		handleGaits(m, w, req)
	})
	mux.HandleFunc("POST /v1/migrate", func(w http.ResponseWriter, req *http.Request) {
		handleMigrate(m, w, req)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		m.WriteMetrics(w)
	})
	return mux
}

// maxSpecBytes caps a POST /v1/runs body. A RunSpec is a few hundred
// bytes of JSON, so a larger body is refused with 413 before it is
// read into memory.
const maxSpecBytes = 1 << 20

func handleSubmit(m *Manager, w http.ResponseWriter, req *http.Request) {
	var spec leonardo.RunSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, req.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, status, map[string]string{"error": "bad request body: " + err.Error()})
		return
	}
	info, err := m.Submit(spec)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Location", "/v1/runs/"+info.ID)
	writeJSON(w, http.StatusCreated, info)
}

// handleList serves the registry, optionally paginated: ?limit=N caps
// the page, ?after=ID resumes past the last id of the previous page.
func handleList(m *Manager, w http.ResponseWriter, req *http.Request) {
	q := req.URL.Query()
	limit := 0
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "limit must be a non-negative integer"})
			return
		}
		limit = n
	}
	writeJSON(w, http.StatusOK, m.ListPage(limit, q.Get("after")))
}

func handleSnapshot(m *Manager, w http.ResponseWriter, req *http.Request) {
	snap, etag, err := m.SnapshotETag(req.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("ETag", etag)
	if etagMatch(req.Header.Get("If-None-Match"), etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	w.Write(snap)
}

// etagMatch implements If-None-Match for a strong validator: any
// listed tag (weak-prefixed or not) equal to etag, or "*", matches.
func etagMatch(header, etag string) bool {
	for header != "" {
		var part string
		part, header, _ = strings.Cut(header, ",")
		part = strings.TrimSpace(part)
		part = strings.TrimPrefix(part, "W/")
		if part == "*" || part == etag {
			return true
		}
	}
	return false
}

// gaitBufs pools response buffers for the gait endpoints: rendering is
// pure appends (gaitserve encoders), so a steady QPS reuses a few
// steady-state buffers and the query path stays allocation-free.
var gaitBufs = sync.Pool{
	New: func() any { b := make([]byte, 0, 4096); return &b },
}

// handleGaits answers GET /v1/gaits. With heading+stride it is the hot
// lookup; with only run= it lists every occupied cell.
func handleGaits(m *Manager, w http.ResponseWriter, req *http.Request) {
	t0 := now()
	q := req.URL.Query()
	id := q.Get("run")
	if id == "" {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "run parameter is required"})
		return
	}
	arch, err := m.Archive(id)
	if err != nil {
		writeError(w, err)
		return
	}

	hs, ss := q.Get("heading"), q.Get("stride")
	bufp := gaitBufs.Get().(*[]byte)
	defer gaitBufs.Put(bufp)
	buf := (*bufp)[:0]

	if hs == "" && ss == "" {
		filled, total := arch.Coverage()
		buf = gaitserve.AppendCellsHeader(buf, id, filled, total)
		g := arch.Grid()
		first := true
		for i := 0; i < g.Cells(); i++ {
			if !arch.Filled(i) {
				continue
			}
			if !first {
				buf = append(buf, ',')
			}
			first = false
			buf = gaitserve.AppendCell(buf, i/g.Strides, i%g.Strides, arch.Cell(i))
		}
		buf = append(buf, "]}"...)
	} else {
		heading, herr := strconv.ParseFloat(hs, 64)
		stride, serr := strconv.ParseFloat(ss, 64)
		if hs == "" || ss == "" || herr != nil || serr != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "heading and stride must both be numbers"})
			return
		}
		h, s, ok := arch.Grid().Bin(heading, stride)
		if !ok {
			writeJSON(w, http.StatusNotFound, map[string]string{"error": "query falls outside the descriptor grid"})
			return
		}
		el, ok := arch.Lookup(heading, stride)
		if !ok {
			writeJSON(w, http.StatusNotFound, map[string]string{"error": fmt.Sprintf("no gait evolved for cell (%d,%d) yet", h, s)})
			return
		}
		buf = gaitserve.AppendLookup(buf, id, heading, stride, h, s, el)
	}

	*bufp = buf
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(buf)))
	w.WriteHeader(http.StatusOK)
	w.Write(buf)
	m.met.gaitObserved(now().Sub(t0))
}

// sseHeartbeat keeps idle event streams alive through proxies.
const sseHeartbeat = 15 * time.Second

// handleEvents streams a run's progress as Server-Sent Events. The
// handler goroutine does all the work — subscribe, replay, follow —
// so the hub itself never spawns goroutines; the stream ends at the
// run's final event or when the client goes away.
func handleEvents(m *Manager, w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	sub, err := m.Events(id)
	if err != nil {
		writeError(w, err)
		return
	}
	defer sub.Close()
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": "response writer does not support streaming"})
		return
	}

	after := int64(-1)
	if v := req.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			after = n
		}
	} else if v := req.URL.Query().Get("after"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			after = n
		}
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	ticker := time.NewTicker(sseHeartbeat)
	defer ticker.Stop()
	var evs []gaitserve.Progress
	for {
		var closed bool
		evs, closed = sub.Since(after, evs[:0])
		for _, ev := range evs {
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			fmt.Fprintf(w, "id: %d\ndata: %s\n\n", ev.Seq, data)
			after = ev.Seq
		}
		if len(evs) > 0 {
			fl.Flush()
		}
		if closed {
			// An explicit end event lets clients distinguish "run over"
			// from a dropped connection and stop reconnecting.
			fmt.Fprint(w, "event: end\ndata: {}\n\n")
			fl.Flush()
			return
		}
		select {
		case <-sub.Ready():
		case <-req.Context().Done():
			return
		case <-ticker.C:
			fmt.Fprint(w, ": heartbeat\n\n")
			fl.Flush()
		}
	}
}

// handleMigrate applies one inbound peer batch with idempotent
// delivery semantics. The 200 ack — accepted or duplicate — is the
// sender's license to stop retrying, so it is only written after the
// batch is durable on this node.
func handleMigrate(m *Manager, w http.ResponseWriter, req *http.Request) {
	var b wireBatch
	dec := json.NewDecoder(req.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad request body: " + err.Error()})
		return
	}
	status, err := m.Migrate(b)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, migrateAck{Status: status})
}

// writeError maps a registry error onto its HTTP status.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrBadSpec), errors.Is(err, ErrNoCluster), errors.Is(err, ErrWrongKind):
		status = http.StatusBadRequest
	case errors.Is(err, ErrNotFound), errors.Is(err, ErrNoSnapshot):
		status = http.StatusNotFound
	case errors.Is(err, ErrFinished), errors.Is(err, ErrSnapshotPending):
		status = http.StatusConflict
	case errors.Is(err, ErrQueueFull):
		status = http.StatusTooManyRequests
	case errors.Is(err, ErrClosed):
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
