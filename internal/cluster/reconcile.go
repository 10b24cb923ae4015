package cluster

import (
	"path/filepath"
	"sync"

	"repro/internal/durable"
)

// This file implements the coordinator's half of the worker-restart
// handshake. Every successfully dispatched shard is remembered by its
// server.EvaluateRequest.ShardKey; when a worker re-registers after a crash
// it advertises the shard keys of the journaled jobs it is about to re-run,
// and the coordinator answers with the subset it already saw complete —
// work another node absorbed via failover while the worker was down. The
// worker abandons those, so a crash costs at most the unfinished remainder,
// never a double evaluation of work the fleet already finished.
//
// The set is an optimization, not a correctness mechanism: every evaluation
// is deterministic, so a forgotten key merely lets a recovered job recompute
// a result the cluster already has. That is why eviction (the bound) and a
// lost journal entry are both harmless.

// completedSet is a bounded FIFO set of completed shard keys, optionally
// persisted through a durable.Journal so a coordinator restart keeps the
// reconcile handshake useful.
type completedSet struct {
	mu      sync.Mutex
	max     int
	set     map[string]struct{}
	order   []string
	journal *durable.Journal // nil without a state dir
	logf    func(string, ...any)
}

// openCompletedSet builds the set, holding at most max keys, replaying
// StateDir/completed.journal when a state dir is configured.
func openCompletedSet(stateDir string, max int, logf func(string, ...any)) (*completedSet, error) {
	cs := &completedSet{max: max, set: make(map[string]struct{}), logf: logf}
	if stateDir == "" {
		return cs, nil
	}
	journal, raw, err := durable.OpenJournal(filepath.Join(stateDir, "completed.journal"))
	if err != nil {
		return nil, err
	}
	cs.journal = journal
	for _, e := range raw {
		cs.addLocked(string(e))
	}
	// Start compact: the journal on disk may carry evicted duplicates.
	if int64(len(cs.order)) != journal.Entries() {
		cs.compactLocked()
	}
	return cs, nil
}

// addLocked inserts a key and evicts the oldest past the bound. The caller
// holds mu (or, at open time, has exclusive access).
func (cs *completedSet) addLocked(key string) {
	if _, ok := cs.set[key]; ok {
		return
	}
	cs.set[key] = struct{}{}
	cs.order = append(cs.order, key)
	for len(cs.order) > cs.max {
		delete(cs.set, cs.order[0])
		cs.order = cs.order[1:]
	}
}

// compactLocked rewrites the journal down to the live set. Failure is logged
// and tolerated — the in-memory set stays authoritative for this process.
func (cs *completedSet) compactLocked() {
	entries := make([][]byte, len(cs.order))
	for i, k := range cs.order {
		entries[i] = []byte(k)
	}
	if err := cs.journal.Rewrite(entries); err != nil && cs.logf != nil {
		cs.logf("cluster: completed-set journal compaction failed: %v", err)
	}
}

// record remembers one completed shard key, appending it to the journal when
// one is configured. Append failures are logged, not fatal: the set degrades
// to process-lifetime memory.
func (cs *completedSet) record(key string) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if _, ok := cs.set[key]; ok {
		return
	}
	cs.addLocked(key)
	if cs.journal == nil {
		return
	}
	if err := cs.journal.Append([]byte(key)); err != nil {
		if cs.logf != nil {
			cs.logf("cluster: persist completed shard key: %v", err)
		}
		return
	}
	// The append-only journal accumulates evicted keys; fold it back down
	// once it doubles the live set.
	if cs.journal.Entries() > int64(2*cs.max) {
		cs.compactLocked()
	}
}

// has reports whether key was recorded (and not yet evicted).
func (cs *completedSet) has(key string) bool {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	_, ok := cs.set[key]
	return ok
}

func (cs *completedSet) size() int {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return len(cs.order)
}

func (cs *completedSet) close() {
	if cs.journal != nil {
		cs.journal.Close()
	}
}

// Reconcile answers a registering worker's incomplete shard-key list with
// the subset the coordinator already saw complete — the keys the worker
// should abandon instead of re-running. Exported alongside Register for the
// in-process embedding path.
func (co *Coordinator) Reconcile(nodeID string, incomplete []string) []string {
	if len(incomplete) == 0 {
		return nil
	}
	var abandon []string
	for _, key := range incomplete {
		if co.completed.has(key) {
			abandon = append(abandon, key)
		}
	}
	if len(abandon) > 0 {
		co.metrics.ShardsReconciled.Add(int64(len(abandon)))
		co.cfg.Logf("cluster: node %s re-registered with %d incomplete shard(s), %d already completed elsewhere — told to abandon",
			nodeID, len(incomplete), len(abandon))
	}
	return abandon
}
