package island

import (
	"bytes"
	"fmt"

	"leonardo/internal/engine"
	"leonardo/internal/gap"
)

// The "cluster" snapshot kind checkpoints one shard of a distributed
// archipelago: the fleet placement (Nodes, Index), the same parameter
// header as the "island" kind, the shard's migration cursor, the
// fleet-done flag learned at the last barrier, and the local demes'
// sub-snapshots. K such shard snapshots — one per node, all taken at
// the same epoch — merge losslessly into the byte-identical "island"
// snapshot a single-node run of the same parameters would have written
// (MergeShardSnapshots), which is the acceptance check the distributed
// differential tests pin.

// ClusterSnapKind is the snapshot kind written by shard archipelagos.
const ClusterSnapKind = "cluster"

const clusterSnapVersion = 1

// shardSnapshot serializes a shard (called from Snapshot when the
// archipelago was built by NewShard or RestoreShard).
func (a *Archipelago) shardSnapshot() []byte {
	e := engine.NewEnc(ClusterSnapKind, clusterSnapVersion)
	e.Int(a.shard.Nodes)
	e.Int(a.shard.Index)
	encodeHeader(e, a.p)
	e.Int(a.epochs)
	e.Int(a.migrants)
	e.Bool(a.fleetDone)
	for _, d := range a.demes {
		e.Blob(d.Snapshot())
	}
	return e.Bytes()
}

// shardSnap is one decoded "cluster" snapshot.
type shardSnap struct {
	sh        Shard
	p         Params
	epochs    int
	migrants  int
	fleetDone bool
	demes     [][]byte // local deme sub-snapshots, in global order
}

// decodeShard parses a "cluster" snapshot without rebuilding demes.
func decodeShard(data []byte, obj gap.Objective) (*shardSnap, error) {
	d, err := engine.NewDec(data, ClusterSnapKind)
	if err != nil {
		return nil, err
	}
	if d.Version != clusterSnapVersion {
		return nil, fmt.Errorf("island: cluster snapshot version %d, want %d", d.Version, clusterSnapVersion)
	}
	s := &shardSnap{}
	s.sh.Nodes = d.Int()
	s.sh.Index = d.Int()
	s.p = decodeHeader(d, obj)
	s.epochs = d.Int()
	s.migrants = d.Int()
	s.fleetDone = d.Bool()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if err := validateHeader(s.p, s.epochs, s.migrants); err != nil {
		return nil, err
	}
	if err := s.sh.Validate(s.p.Demes); err != nil {
		return nil, fmt.Errorf("island: cluster snapshot placement invalid: %w", err)
	}
	lo, hi := s.sh.Range(s.p.Demes)
	s.demes = make([][]byte, hi-lo)
	for i := range s.demes {
		s.demes[i] = d.Blob()
		if err := d.Err(); err != nil {
			return nil, err
		}
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return s, nil
}

// RestoreShard rebuilds a shard archipelago from a "cluster" snapshot.
// obj supplies the per-deme objective exactly as in Restore; tr is the
// migration transport for the continued run (nil means Loopback, only
// sensible for a 1-node fleet). The restored shard re-enters the fleet
// at its checkpointed epoch and replays bit-identically — peers
// acknowledge its re-sent emigrant batches as duplicates, and its own
// missed immigrants are re-read from the durable inbox (DESIGN.md §12).
func RestoreShard(data []byte, obj gap.Objective, tr Transport) (*Archipelago, error) {
	s, err := decodeShard(data, obj)
	if err != nil {
		return nil, err
	}
	lo, _ := s.sh.Range(s.p.Demes)
	demes := make([]Deme, len(s.demes))
	for i, sub := range s.demes {
		dm, err := restoreDeme(sub, obj, lo+i)
		if err != nil {
			return nil, err
		}
		demes[i] = dm
	}
	sh := s.sh
	return &Archipelago{
		p:         s.p,
		obj:       resolveObjective(s.p.Base),
		demes:     demes,
		shard:     &sh,
		offset:    lo,
		tr:        tr,
		epochs:    s.epochs,
		migrants:  s.migrants,
		fleetDone: s.fleetDone,
	}, nil
}

// MergeShardSnapshots reassembles the K shard snapshots of one fleet —
// all taken at the same epoch — into the canonical "island" snapshot:
// byte for byte what a single-node run of the same parameters would
// have written at that epoch. Parts may arrive in any order; each node
// index must appear exactly once.
func MergeShardSnapshots(parts [][]byte) ([]byte, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("island: merge of zero shard snapshots")
	}
	byIndex := make([]*shardSnap, len(parts))
	var ref *shardSnap
	var refHeader []byte
	for i, part := range parts {
		s, err := decodeShard(part, nil)
		if err != nil {
			return nil, fmt.Errorf("island: shard snapshot %d: %w", i, err)
		}
		if s.sh.Nodes != len(parts) {
			return nil, fmt.Errorf("island: shard %d says the fleet has %d nodes, %d snapshots supplied",
				s.sh.Index, s.sh.Nodes, len(parts))
		}
		if byIndex[s.sh.Index] != nil {
			return nil, fmt.Errorf("island: node index %d appears twice", s.sh.Index)
		}
		byIndex[s.sh.Index] = s
		he := engine.NewEnc("hdr", 1)
		encodeHeader(he, s.p)
		hb := he.Bytes()
		if ref == nil {
			ref, refHeader = s, hb
			continue
		}
		if !bytes.Equal(hb, refHeader) {
			return nil, fmt.Errorf("island: shard %d was checkpointed with different parameters than shard %d",
				s.sh.Index, ref.sh.Index)
		}
		if s.epochs != ref.epochs {
			return nil, fmt.Errorf("island: shard %d is at epoch %d, shard %d at %d — snapshots are from different barriers",
				s.sh.Index, s.epochs, ref.sh.Index, ref.epochs)
		}
	}
	e := engine.NewEnc(SnapKind, snapVersion)
	encodeHeader(e, ref.p)
	e.Int(ref.epochs)
	migrants := 0
	for _, s := range byIndex {
		migrants += s.migrants
	}
	e.Int(migrants)
	for _, s := range byIndex {
		for _, sub := range s.demes {
			e.Blob(sub)
		}
	}
	return e.Bytes(), nil
}
