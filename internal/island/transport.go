package island

import (
	"fmt"

	"leonardo/internal/genome"
)

// Migration transport: the latch-then-commit exchange of island.go
// factored behind an interface, so the same migration logic drives an
// in-process archipelago (Loopback), a sharded archipelago inside one
// test process, and a fleet of leonardod nodes over HTTP
// (internal/serve). There is exactly one latch/commit implementation —
// Archipelago.migrate — and transports only move epoch-stamped batches.
//
// Determinism contract (DESIGN.md §12): for epoch e, Exchange must
// return precisely the emigrants every shard latched at epoch e whose
// destination deme is local to this shard — no more, no fewer, no
// re-ordering requirements (the archipelago sorts immigrants by their
// global source index before committing). Each global deme index
// appears as a source at most once per epoch, so the sorted commit
// order is unique and the distributed trajectory replays the
// single-node one bit for bit.

// Emigrant is one latched champion in flight between demes. From and To
// are global deme indices (0 ≤ From,To < Params.Demes), and Epoch is
// the migration barrier that latched it.
type Emigrant struct {
	Epoch  int
	From   int
	To     int
	Genome genome.Extended
}

// Transport moves migration traffic for one archipelago (or one shard
// of it). Both methods are called exactly once per epoch, in order:
// Exchange immediately after the epoch's generations are stepped and
// the local emigrants latched, then Barrier with the shard's local
// done status.
type Transport interface {
	// Exchange hands the transport this shard's latched emigrants for
	// the epoch and returns the immigrants destined to this shard's
	// demes (its own loop-back emigrants included). Returning an empty
	// slice with a nil error means "no migration this epoch" — the
	// degraded mode a networked transport falls back to when a peer
	// misses the epoch deadline. A non-nil error aborts the run's
	// current step without committing anything.
	Exchange(epoch int, out []Emigrant) ([]Emigrant, error)

	// Barrier completes the epoch with a done handshake: every shard
	// reports whether it is locally finished (a deme converged or
	// exhausted its budget), and learns whether any shard in the fleet
	// is. This is what lets a convergence on one node end the whole
	// archipelago in the same epoch, exactly as a single-node run stops
	// the epoch any deme finishes.
	Barrier(epoch int, localDone bool) (fleetDone bool, err error)
}

// Loopback is the in-process transport: every deme is local, so the
// emigrant batch is returned unchanged and the fleet is done exactly
// when the local shard is. New and NewLanePack use it implicitly.
type Loopback struct{}

// Exchange implements Transport.
func (Loopback) Exchange(_ int, out []Emigrant) ([]Emigrant, error) { return out, nil }

// Barrier implements Transport.
func (Loopback) Barrier(_ int, localDone bool) (bool, error) { return localDone, nil }

// Shard places one node inside a fleet: Nodes cooperating processes,
// this one holding Index. The global deme space [0, Demes) is split
// into contiguous blocks — shard k owns [k·Demes/Nodes, (k+1)·Demes/Nodes)
// — so merged shard snapshots concatenate back into the single-node
// deme order.
type Shard struct {
	// Nodes is the fleet size (at least 1).
	Nodes int
	// Index is this node's position, 0 ≤ Index < Nodes.
	Index int
}

// Validate reports whether the shard shape is usable for an
// archipelago of the given global deme count. Every shard must own at
// least one deme, so Nodes may not exceed demes.
func (s Shard) Validate(demes int) error {
	if s.Nodes < 1 {
		return fmt.Errorf("island: shard needs at least 1 node, got %d", s.Nodes)
	}
	if s.Index < 0 || s.Index >= s.Nodes {
		return fmt.Errorf("island: shard index %d outside fleet of %d", s.Index, s.Nodes)
	}
	if s.Nodes > demes {
		return fmt.Errorf("island: %d nodes cannot shard %d demes (every node needs a deme)", s.Nodes, demes)
	}
	return nil
}

// Range returns this shard's half-open global deme interval [lo, hi).
func (s Shard) Range(demes int) (lo, hi int) {
	return s.Index * demes / s.Nodes, (s.Index + 1) * demes / s.Nodes
}

// OwnerOf returns the shard index that owns global deme g in a fleet
// of nodes sharding demes demes.
func OwnerOf(nodes, demes, g int) int {
	for k := 0; k < nodes; k++ {
		lo := k * demes / nodes
		hi := (k + 1) * demes / nodes
		if g >= lo && g < hi {
			return k
		}
	}
	return -1
}
