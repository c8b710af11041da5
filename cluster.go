package leonardo

import (
	"context"

	"leonardo/internal/island"
)

// Distributed archipelago facade: one island-model run sharded across K
// cooperating processes (leonardod nodes), each owning a contiguous
// block of the global deme space and exchanging champions through a
// MigrationTransport at every epoch barrier. The migration logic itself
// lives in internal/island and is byte-for-byte the single-node
// latch-then-commit path; a transport only moves epoch-stamped batches.
// internal/serve provides the HTTP transport and the fleet plumbing
// (peer registry, epoch barrier handshake, durable idempotent inbox);
// this file is the process-agnostic surface.

// ClusterShard places one node in a fleet: Nodes cooperating processes,
// this one holding Index. Shard k owns global demes
// [k·Demes/Nodes, (k+1)·Demes/Nodes).
type ClusterShard = island.Shard

// MigrationTransport carries emigrant batches between shards and runs
// the per-epoch done handshake; see island.Transport for the
// determinism contract.
type MigrationTransport = island.Transport

// Emigrant is one champion in flight between demes (global indices).
type Emigrant = island.Emigrant

// LoopbackTransport is the in-process transport: all demes local. It is
// the correct transport for a 1-node cluster.
type LoopbackTransport = island.Loopback

// ClusterRun is the pausable, resumable handle on one shard of a
// distributed archipelago — the Runner a cluster-configured leonardod
// node drives. One Step is one epoch: MigrateEvery generations of every
// local deme, the transport exchange, and the fleet-done barrier.
//
// Snapshot returns the state at the last completed epoch barrier, not
// the live archipelago: a Step that fails mid-exchange (peer timeout
// escalated to an error, node shutdown) leaves the archipelago with
// generations stepped but no migration committed, and checkpointing
// that torn state would diverge from the fleet. The cached snapshot
// makes every checkpoint a true barrier state, which is what the
// crash+resume differential tests replay from.
type ClusterRun struct {
	a    *island.Archipelago
	snap []byte
	// snapEpoch is the epoch of snap. It deliberately lags a.Epochs()
	// after a failed Step: callers pruning replay state (the serve
	// inbox) must key off the durable barrier, not the torn live state.
	snapEpoch int
}

// NewClusterRun starts this node's shard of a fresh distributed
// archipelago. Every node of the fleet must construct from identical
// IslandParams; deme i is seeded with DemeSeed(p.Base.Seed, i) whichever
// node hosts it, so the fleet trajectory is the single-node trajectory.
// A nil transport means LoopbackTransport (1-node fleets only).
func NewClusterRun(p IslandParams, shard ClusterShard, tr MigrationTransport) (*ClusterRun, error) {
	a, err := island.NewShard(p, shard, tr)
	if err != nil {
		return nil, err
	}
	return &ClusterRun{a: a, snap: a.Snapshot(), snapEpoch: a.Epochs()}, nil
}

// ResumeCluster reconstructs a shard from a KindCluster snapshot and
// re-enters the fleet with the given transport. The resumed shard
// replays deterministically from its checkpointed barrier: re-sent
// emigrant batches are acknowledged by peers as duplicates, and the
// immigrants it missed are re-read from the durable inbox.
func ResumeCluster(snapshot []byte, tr MigrationTransport) (*ClusterRun, error) {
	a, err := island.RestoreShard(snapshot, nil, tr)
	if err != nil {
		return nil, err
	}
	return &ClusterRun{a: a, snap: a.Snapshot(), snapEpoch: a.Epochs()}, nil
}

// EvolveDistributed runs this node's shard to completion under ctx; obs
// — if non-nil — receives one aggregate Event per epoch (local demes
// only). The fleet finishes together: a deme converging anywhere ends
// every shard at the same barrier.
func EvolveDistributed(ctx context.Context, p IslandParams, shard ClusterShard, tr MigrationTransport, obs Observer) (IslandResult, error) {
	a, err := island.NewShard(p, shard, tr)
	if err != nil {
		return IslandResult{}, err
	}
	return a.RunCtx(ctx, obs)
}

// MergeClusterSnapshots reassembles the K shard snapshots of one fleet
// — all taken at the same epoch barrier — into the canonical KindIsland
// snapshot: byte for byte what a single-node run would have written.
// The merged snapshot restores with ResumeIslands.
func MergeClusterSnapshots(parts [][]byte) ([]byte, error) {
	return island.MergeShardSnapshots(parts)
}

// Step advances the shard one epoch and, on success, refreshes the
// cached barrier snapshot.
func (r *ClusterRun) Step() error {
	if err := r.a.Step(); err != nil {
		return err
	}
	r.snap = r.a.Snapshot()
	r.snapEpoch = r.a.Epochs()
	return nil
}

// Done reports whether any deme — local or on a peer, as learned at the
// last barrier — has converged or exhausted its budget.
func (r *ClusterRun) Done() bool { return r.a.Done() }

// Event returns the aggregate telemetry of the most recent epoch
// (local demes only).
func (r *ClusterRun) Event() Event { return r.a.Event() }

// Snapshot returns the serialized shard state at the last completed
// epoch barrier.
func (r *ClusterRun) Snapshot() []byte { return r.snap }

// SetWorkers re-chooses the worker bound for the local deme fan-out
// (0 = GOMAXPROCS); never affects the trajectory.
func (r *ClusterRun) SetWorkers(n int) { r.a.SetWorkers(n) }

// Epoch returns the epoch of the cached barrier snapshot — the state
// Snapshot serves. After a failed Step this lags the live archipelago
// by design (see ClusterRun).
func (r *ClusterRun) Epoch() int { return r.snapEpoch }

// Shard returns this run's fleet placement.
func (r *ClusterRun) Shard() ClusterShard {
	sh, _ := r.a.Shard()
	return sh
}

// Result reports the shard outcome so far (local demes only; merge the
// fleet's snapshots for the global champion).
func (r *ClusterRun) Result() IslandResult { return r.a.Result() }
