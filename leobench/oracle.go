package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"sync"

	"leonardo"
	"leonardo/internal/engine"
	"leonardo/internal/gaitserve"
	"leonardo/internal/repertoire"
)

// The answer oracle. Every response the daemon gives is checked
// against an independent in-process computation; a mismatch counts as
// a failed operation.

// checkpointStride is leonardod's default checkpoint stride in engine
// steps. The daemon is started without -snapshot-every, so a replay
// with this stride visits exactly the checkpoints the daemon serves.
const checkpointStride = 50

// replay runs spec in-process the way the daemon's run loop does —
// checkpoint strides of engine steps until done — and returns every
// checkpoint's snapshot; the last one is the final state.
func replay(spec leonardo.RunSpec) ([][]byte, error) {
	r, err := spec.NewRunner()
	if err != nil {
		return nil, err
	}
	var snaps [][]byte
	for !r.Done() {
		if err := engine.Steps(context.Background(), r, nil, checkpointStride); err != nil {
			return nil, err
		}
		snaps = append(snaps, r.Snapshot())
	}
	return snaps, nil
}

// etagOf renders a snapshot's strong ETag the way leonardod does.
func etagOf(snap []byte) string {
	h := sha256.Sum256(snap)
	return `"sha256-` + hex.EncodeToString(h[:]) + `"`
}

// expectLookup renders what GET /v1/gaits must answer for p on run id
// with archive a: 200 with the AppendLookup bytes, or 404 for an empty
// cell (ok false).
func expectLookup(id string, p point, a *repertoire.Archive) (body []byte, ok bool) {
	h, s, in := a.Grid().Bin(p.Heading, p.Stride)
	if !in {
		return nil, false
	}
	el, filled := a.Lookup(p.Heading, p.Stride)
	if !filled {
		return nil, false
	}
	return gaitserve.AppendLookup(nil, id, p.Heading, p.Stride, h, s, el), true
}

// emptyCellMessage is the fragment of leonardod's 404 body for an
// empty cell.
func emptyCellMessage(a *repertoire.Archive, p point) []byte {
	h, s, _ := a.Grid().Bin(p.Heading, p.Stride)
	return []byte(fmt.Sprintf("no gait evolved for cell (%d,%d) yet", h, s))
}

// answerMatches reports whether (status, body) is the right answer for
// p on run id against archive a.
func answerMatches(id string, p point, a *repertoire.Archive, status int, body []byte) bool {
	want, ok := expectLookup(id, p, a)
	switch status {
	case http.StatusOK:
		return ok && bytes.Equal(body, want)
	case http.StatusNotFound:
		return !ok && bytes.Contains(body, emptyCellMessage(a, p))
	}
	return false
}

// answerMatchesAny accepts an answer that is right at some checkpoint.
func answerMatchesAny(id string, p point, archives []*repertoire.Archive, status int, body []byte) bool {
	for _, a := range archives {
		if answerMatches(id, p, a, status, body) {
			return true
		}
	}
	return false
}

// decodeAll decodes every checkpoint snapshot of a repertoire replay.
func decodeAll(snaps [][]byte) ([]*repertoire.Archive, error) {
	out := make([]*repertoire.Archive, len(snaps))
	for i, s := range snaps {
		a, err := repertoire.DecodeArchive(s)
		if err != nil {
			return nil, err
		}
		out[i] = a
	}
	return out, nil
}

// replayAll replays specs on at most workers goroutines and returns
// each spec's checkpoints in order.
func replayAll(specs []leonardo.RunSpec, workers int) ([][][]byte, error) {
	out := make([][][]byte, len(specs))
	errs := make([]error, len(specs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i], errs[i] = replay(specs[i])
			}
		}()
	}
	for i := range specs {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("replay %s seed %d: %w", specs[i].Kind, specs[i].Seed, err)
		}
	}
	return out, nil
}
