package repertoire

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"

	"leonardo/internal/engine"
)

// fuzzSnapshotSeed builds a real mid-run snapshot for the corpus so the
// fuzzer starts from a structurally valid archive rather than having to
// discover the framing from scratch.
func fuzzSnapshotSeed(tb testing.TB, seed uint64, batches int) []byte {
	r, err := New(testParams(seed))
	if err != nil {
		tb.Fatal(err)
	}
	if err := engine.Steps(context.Background(), r, nil, batches); err != nil {
		tb.Fatal(err)
	}
	return r.Snapshot()
}

// FuzzRepertoireSnapshot is the snapshot wall: Restore on arbitrary
// (mutated, truncated) bytes must fail with a typed header error or a
// descriptive validation error — never panic — and any archive it does
// accept must re-serialize byte-identically and keep stepping. The
// seed corpus includes real snapshots at several run depths plus the
// classic short/foreign headers.
func FuzzRepertoireSnapshot(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("LEO"))
	f.Add([]byte("LEOSNAP\x00"))
	f.Add([]byte("XEOSNAP\x00\x0arepertoire"))
	f.Add(engine.NewEnc(SnapKind, snapVersion).Bytes())   // header only, no body
	f.Add(engine.NewEnc(SnapKind, snapVersion+1).Bytes()) // future version
	f.Add(engine.NewEnc("island", 1).Bytes())             // wrong kind
	f.Add(fuzzSnapshotSeed(f, 5, 1))
	f.Add(fuzzSnapshotSeed(f, 9, 6))
	full := fuzzSnapshotSeed(f, 2, 3)
	f.Add(full[:len(full)/2]) // truncated mid-body
	mut := append([]byte(nil), full...)
	mut[len(mut)/3] ^= 0x40 // bit-flipped body
	f.Add(mut)

	f.Fuzz(func(t *testing.T, raw []byte) {
		r, err := Restore(raw)
		if err != nil {
			// Header failures must carry the engine sentinels so callers
			// can classify them; body validation failures are plain
			// descriptive errors.
			if _, kerr := engine.SnapshotKind(raw); kerr != nil {
				if !errors.Is(err, engine.ErrTruncated) && !errors.Is(err, engine.ErrBadMagic) {
					t.Fatalf("header-stage error %v wraps neither ErrTruncated nor ErrBadMagic", err)
				}
			}
			return
		}
		// Accepted: re-serializing must reach a canonical fixpoint in one
		// pass. (Exact input-byte equality is too strong for mutated
		// input — the codec reads any nonzero byte as Bool true but
		// always writes 1 — so the contract is on Snapshot output.)
		canon := r.Snapshot()
		again, err := Restore(canon)
		if err != nil {
			t.Fatalf("canonical snapshot rejected on restore: %v", err)
		}
		if got := again.Snapshot(); !bytes.Equal(got, canon) {
			t.Fatalf("snapshot is not a round-trip fixpoint: %d bytes vs %d", len(canon), len(got))
		}
		// ...every truncated prefix of the canonical form must be
		// rejected...
		for cut := 0; cut < len(canon); cut++ {
			if _, err := Restore(canon[:cut]); err == nil {
				t.Fatalf("prefix %d/%d bytes restored cleanly", cut, len(canon))
			}
		}
		// ...and the archive must be consistent enough to keep running.
		// (Skip stepping when a mutated-but-valid Batch/Cycles would make
		// one batch expensive; correctness is covered by the small seeds.)
		if p := r.Params(); !r.Done() && p.Batch <= 1024 && p.Cycles <= 64 {
			if err := engine.Steps(context.Background(), r, nil, 1); err != nil {
				t.Fatalf("restored archive cannot step: %v", err)
			}
		}
	})
}

// FuzzDescriptorBinning throws arbitrary grids and descriptor pairs at
// Bin: it must never panic, and every accepted pair must land inside
// the grid with the cell's descriptor range actually containing the
// input (modulo heading wrap). Rejections are only allowed for the
// documented reasons: non-finite input or stride outside [0, max].
func FuzzDescriptorBinning(f *testing.F) {
	f.Add(16, 8, 80.0, 0.0, 0.0)
	f.Add(1, 1, 40.0, math.Pi, 40.0)
	f.Add(8, 4, 40.0, -math.Pi, 0.0)
	f.Add(1, 5, 33.0, 2.5, 33.0)
	f.Add(5, 1, 0.125, -7.0, 0.0626)
	f.Add(3, 3, 1e-9, 1e300, 5e-10)
	f.Add(256, 256, 1e300, math.Inf(1), math.NaN())
	f.Add(-1, 4, 40.0, 0.0, 1.0)
	f.Add(0, 0, -1.0, 0.0, 0.0)

	f.Fuzz(func(t *testing.T, headings, strides int, maxMM, heading, stride float64) {
		g := Grid{Headings: headings, Strides: strides, StrideMaxMM: maxMM}
		h, s, ok := g.Bin(heading, stride) // must not panic, even on invalid grids
		if g.Validate() != nil {
			return // invalid grid: any non-panicking answer is acceptable
		}
		if !ok {
			if !math.IsNaN(heading) && !math.IsInf(heading, 0) &&
				!math.IsNaN(stride) && !math.IsInf(stride, 0) &&
				stride >= 0 && stride <= g.StrideMaxMM {
				t.Fatalf("grid %dx%d max %v rejected finite in-range (%v, %v)",
					headings, strides, maxMM, heading, stride)
			}
			return
		}
		if h < 0 || h >= g.Headings || s < 0 || s >= g.Strides {
			t.Fatalf("Bin(%v, %v) = (%d,%d) outside %dx%d grid", heading, stride, h, s, headings, strides)
		}
		// The accepted cell must be a real index and its center must be
		// reachable — the O(1) Lookup path relies on both.
		if idx := g.CellIndex(h, s); idx < 0 || idx >= g.Cells() {
			t.Fatalf("CellIndex(%d,%d) = %d outside %d cells", h, s, idx, g.Cells())
		}
		ch, cs := g.CellCenter(h, s)
		if math.IsNaN(ch) || math.IsNaN(cs) {
			t.Fatalf("CellCenter(%d,%d) produced NaN", h, s)
		}
	})
}
