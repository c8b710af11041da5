package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"leonardo"
	"leonardo/internal/store"
)

// The spool is the manager's crash-safe persistence:
//
//	<spool>/<id>.meta.json   registry entry (spec, state, timestamps)
//	<spool>/store/           content-addressed snapshot store
//
// Meta files are mutable registry records, written atomically (temp
// file + rename) under a flat directory. Snapshots are immutable
// artifacts and live in the store (DESIGN.md §15): each checkpoint is a
// sha256-named object plus an index link <id> → hash, so the snapshot
// a run serves, the one its gait cache keys on, and the one a restart
// resumes from are provably the same bytes — the hash IS the identity.
// A crash never loses the previous checkpoint: the object lands
// durably before the index points at it, and the superseded object is
// deleted only after the new link is durable.
//
// The meta file alone is enough to rebuild a run that never
// checkpointed — the trajectory is a pure function of the spec — and
// the snapshot, when present, wins.

// meta is the persisted registry entry for one run.
type meta struct {
	ID        string           `json:"id"`
	Seq       int              `json:"seq"`
	State     State            `json:"state"`
	Spec      leonardo.RunSpec `json:"spec"`
	Submitted string           `json:"submitted,omitempty"`
	Started   string           `json:"started,omitempty"`
	Finished  string           `json:"finished,omitempty"`
	Error     string           `json:"error,omitempty"`
	Event     leonardo.Event   `json:"event"`
}

// spool reads and writes the per-run registry files and the snapshot
// store in one directory.
type spool struct {
	dir string
	st  *store.Store
}

func newSpool(dir string) (*spool, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: spool: %w", err)
	}
	st, err := store.Open(filepath.Join(dir, "store"))
	if err != nil {
		return nil, fmt.Errorf("serve: spool: %w", err)
	}
	return &spool{dir: dir, st: st}, nil
}

// atomicWrite lands data at path via a temp file and rename, so readers
// and the next boot never observe a partial file.
func (s *spool) atomicWrite(path string, data []byte) error {
	tmp, err := os.CreateTemp(s.dir, ".tmp-*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr != nil {
			return werr
		}
		return cerr
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

func (s *spool) saveMeta(m meta) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("serve: spool meta %s: %w", m.ID, err)
	}
	path := filepath.Join(s.dir, m.ID+".meta.json")
	if err := s.atomicWrite(path, data); err != nil {
		return fmt.Errorf("serve: spool meta %s: %w", m.ID, err)
	}
	return nil
}

// saveSnap lands a checkpoint in the store and points the run's name
// at it, returning the content hash. The superseded object (if any) is
// garbage once the new link is durable; the store deletes it.
func (s *spool) saveSnap(id string, snap []byte) (store.Hash, error) {
	h, err := s.st.Put(snap)
	if err != nil {
		return store.Hash{}, fmt.Errorf("serve: spool snapshot %s: %w", id, err)
	}
	if err := s.st.Link(id, h); err != nil {
		return store.Hash{}, fmt.Errorf("serve: spool snapshot %s: %w", id, err)
	}
	return h, nil
}

// snapHash resolves a run's current checkpoint hash without touching
// the object — an in-memory index lookup.
func (s *spool) snapHash(id string) (store.Hash, bool) {
	return s.st.Resolve(id)
}

// loadSnap returns the latest checkpoint for id with its content hash,
// or nil with no error when the run never checkpointed.
func (s *spool) loadSnap(id string) ([]byte, store.Hash, error) {
	h, ok := s.st.Resolve(id)
	if !ok {
		return nil, store.Hash{}, nil
	}
	data, err := s.st.Get(h)
	if err != nil {
		return nil, store.Hash{}, fmt.Errorf("serve: spool snapshot %s: %w", id, err)
	}
	return data, h, nil
}

// loadSnapAt returns the checkpoint bytes for a specific content hash
// — the gait cache's loader path: bytes fetched by hash can never
// diverge from the hash the cache keyed on.
func (s *spool) loadSnapAt(id string, h store.Hash) ([]byte, error) {
	data, err := s.st.Get(h)
	if err != nil {
		return nil, fmt.Errorf("serve: spool snapshot %s@%s: %w", id, h.Hex()[:12], err)
	}
	return data, nil
}

// loadAll reads every meta file in the spool, sorted by submission
// sequence, so the boot-time registry preserves the original admission
// order. Unreadable or unparsable entries are skipped with the error
// reported to the caller's logger — a corrupt entry must not block the
// rest of the registry from resuming.
func (s *spool) loadAll(logf func(string, ...any)) ([]meta, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("serve: spool: %w", err)
	}
	var metas []meta
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".meta.json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(s.dir, name))
		if err != nil {
			logf("serve: spool: skipping %s: %v", name, err)
			continue
		}
		var m meta
		if err := json.Unmarshal(data, &m); err != nil {
			logf("serve: spool: skipping %s: %v", name, err)
			continue
		}
		if m.ID == "" || m.ID+".meta.json" != name {
			logf("serve: spool: skipping %s: id %q does not match filename", name, m.ID)
			continue
		}
		metas = append(metas, m)
	}
	sort.Slice(metas, func(i, j int) bool { return metas[i].Seq < metas[j].Seq })
	return metas, nil
}
