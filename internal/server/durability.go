package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/annotate"
	"repro/internal/durable"
	"repro/internal/isa"
	"repro/internal/profiler"
	"repro/internal/program"
	"repro/internal/report"
	"repro/internal/workload"
)

// This file is the daemon's durability layer (DESIGN.md §13): a disk tier
// under the in-memory LRU caches and a write-ahead job journal, both from
// package durable. With Config.StateDir unset the daemon behaves exactly as
// before — everything here is nil-guarded off the s.dur pointer.

// Artifact kinds, each a subdirectory of the state dir.
const (
	kindResults  = "results"
	kindImages   = "images"
	kindAnnos    = "annos"
	kindPrograms = "programs"
)

// ErrJournal wraps journal-append failures surfaced to submitters: the job
// was NOT accepted (nothing durable records it), so the client should retry,
// ideally against another node.
var ErrJournal = errors.New("job journal unavailable")

// journalEntry is one WAL record, JSON inside a CRC-32C frame. Types:
//
//	accept  {id, req}          appended before the submit is acknowledged
//	shard   {id, chunk, run}   one completed sweep-checkpoint chunk
//	done    {id}               job finished successfully (result persisted)
//	fail    {id, err}          job failed for a non-crash reason
//
// Recovery re-enqueues every accepted job without a done/fail, seeding it
// with its journaled shard runs so a sweep resumes at its last checkpoint.
type journalEntry struct {
	Type  string           `json:"type"`
	ID    string           `json:"id"`
	Req   *EvaluateRequest `json:"req,omitempty"`
	Chunk int              `json:"chunk,omitempty"`
	Run   *report.Run      `json:"run,omitempty"`
	Err   string           `json:"err,omitempty"`
}

// durability is the open state-dir handle hanging off a Server.
type durability struct {
	store   *durable.Store
	journal *durable.Journal
	logf    func(string, ...any)

	recoveredJobs    atomic.Int64
	sweepCheckpoints atomic.Int64
	chunksResumed    atomic.Int64
	diskHits         atomic.Int64
	jobsAbandoned    atomic.Int64

	// recovered holds journaled shard runs per re-enqueued job id, consumed
	// by the checkpointed sweep path on the job's (re-)execution.
	mu        sync.Mutex
	recovered map[string]map[int]*report.Run
}

// DurableSnapshot is the `durable` block of /metrics.
type DurableSnapshot struct {
	JournalEntries     int64 `json:"journal_entries"`
	RecoveredJobs      int64 `json:"recovered_jobs"`
	SweepCheckpoints   int64 `json:"sweep_checkpoints"`
	SweepChunksResumed int64 `json:"sweep_chunks_resumed"`
	JobsAbandoned      int64 `json:"jobs_abandoned"`
	durable.StoreStats
}

func (d *durability) snapshot() *DurableSnapshot {
	return &DurableSnapshot{
		RecoveredJobs:      d.recoveredJobs.Load(),
		SweepCheckpoints:   d.sweepCheckpoints.Load(),
		SweepChunksResumed: d.chunksResumed.Load(),
		JobsAbandoned:      d.jobsAbandoned.Load(),
		StoreStats:         d.store.Stats(),
		JournalEntries:     d.journal.Entries(),
	}
}

func (d *durability) close() {
	if d != nil {
		d.journal.Close()
	}
}

// openDurability opens the store and journal and replays the journal into a
// recovery plan. Called from Open before the worker pool accepts jobs.
func openDurability(cfg Config) (*durability, []*recoveredJob, error) {
	logf := cfg.Logf
	if logf == nil {
		logf = log.Printf
	}
	store, err := durable.OpenStore(cfg.StateDir, logf)
	if err != nil {
		return nil, nil, err
	}
	d := &durability{store: store, logf: logf, recovered: make(map[string]map[int]*report.Run)}
	path := cfg.JournalPath
	if path == "" {
		path = filepath.Join(cfg.StateDir, "jobs.journal")
	}
	journal, raw, err := durable.OpenJournal(path)
	if err != nil {
		return nil, nil, err
	}
	d.journal = journal

	// Replay: collate entries per job, oldest first.
	type jobState struct {
		id     string
		req    *EvaluateRequest
		chunks map[int]*report.Run
		closed bool // done or fail observed
	}
	states := make(map[string]*jobState)
	var order []string
	maxID := int64(0)
	for _, e := range raw {
		var je journalEntry
		if err := json.Unmarshal(e, &je); err != nil {
			logf("durable: skipping undecodable journal entry: %v", err)
			continue
		}
		if n, ok := strings.CutPrefix(je.ID, "job-"); ok {
			if v, err := strconv.ParseInt(n, 10, 64); err == nil && v > maxID {
				maxID = v
			}
		}
		st := states[je.ID]
		switch je.Type {
		case "accept":
			if st == nil && je.Req != nil {
				states[je.ID] = &jobState{id: je.ID, req: je.Req, chunks: make(map[int]*report.Run)}
				order = append(order, je.ID)
			}
		case "shard":
			if st != nil && je.Run != nil {
				st.chunks[je.Chunk] = je.Run
			}
		case "done", "fail":
			if st != nil {
				st.closed = true
			}
		}
	}

	// Build the re-enqueue list and compact the journal down to it: a journal
	// only ever needs to carry jobs that are not finished.
	var plan []*recoveredJob
	var keep [][]byte
	for _, id := range order {
		st := states[id]
		if st.closed {
			continue
		}
		plan = append(plan, &recoveredJob{id: st.id, req: *st.req, maxSeen: maxID})
		d.recovered[st.id] = st.chunks
		keep = append(keep, mustJSON(journalEntry{Type: "accept", ID: st.id, Req: st.req}))
		for _, ci := range sortedChunks(st.chunks) {
			keep = append(keep, mustJSON(journalEntry{Type: "shard", ID: st.id, Chunk: ci, Run: st.chunks[ci]}))
		}
	}
	if int64(len(keep)) != journal.Entries() {
		if err := journal.Rewrite(keep); err != nil {
			logf("durable: journal compaction failed (continuing uncompacted): %v", err)
		}
	}
	return d, plan, nil
}

// recoveredJob is one journaled-but-unfinished job the restarted daemon
// re-enqueues, keeping its original id so pollers from before the restart
// keep working.
type recoveredJob struct {
	id      string
	req     EvaluateRequest
	maxSeen int64 // highest job ordinal seen anywhere in the journal
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // journalEntry is marshallable by construction
	}
	return b
}

func sortedChunks(m map[int]*report.Run) []int {
	out := make([]int, 0, len(m))
	for ci := range m {
		out = append(out, ci)
	}
	sort.Ints(out)
	return out
}

// appendEntry journals one record; callers decide whether a failure is fatal
// to the operation (accept, shard) or merely logged (done, fail).
func (d *durability) appendEntry(e journalEntry) error {
	if d == nil {
		return nil
	}
	return d.journal.Append(mustJSON(e))
}

// chunksFor returns a re-enqueued job's journaled chunk runs (nil for jobs
// with no pre-crash checkpoints).
func (d *durability) chunksFor(id string) map[int]*report.Run {
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.recovered[id]
}

// jobFinished retires a job from the recovered set once it completes (or is
// dropped), so incompleteIDs reflects only work still owed.
func (d *durability) jobFinished(id string) {
	if d == nil {
		return
	}
	d.mu.Lock()
	delete(d.recovered, id)
	d.mu.Unlock()
}

// incompleteIDs lists recovered jobs not yet (re-)completed, for the cluster
// registration handshake.
func (d *durability) incompleteIDs() []string {
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, 0, len(d.recovered))
	for id := range d.recovered {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// IncompleteJobKeys lists the shard keys of journal-recovered jobs that have
// not yet (re-)completed. A cluster agent advertises them at registration so
// the coordinator can tell the node which of them were already completed
// elsewhere while it was down (see AbandonJobs). Empty without a state dir.
func (s *Server) IncompleteJobKeys() []string {
	ids := s.dur.incompleteIDs()
	if len(ids) == 0 {
		return nil
	}
	out := make([]string, 0, len(ids))
	seen := make(map[string]bool, len(ids))
	s.mu.Lock()
	for _, id := range ids {
		if j, ok := s.jobs[id]; ok {
			if key := j.req.ShardKey(); !seen[key] {
				seen[key] = true
				out = append(out, key)
			}
		}
	}
	s.mu.Unlock()
	sort.Strings(out)
	return out
}

// AbandonJobs cancels recovered jobs whose shard keys the coordinator reports
// as already completed elsewhere, journaling their retirement so the next
// restart does not resurrect them either. It returns how many jobs were
// abandoned. Duplicate work this prevents was never wrong — every evaluation
// is deterministic — just wasted.
func (s *Server) AbandonJobs(keys []string) int {
	if s.dur == nil || len(keys) == 0 {
		return 0
	}
	keySet := make(map[string]bool, len(keys))
	for _, k := range keys {
		keySet[k] = true
	}
	n := 0
	for _, id := range s.dur.incompleteIDs() {
		s.mu.Lock()
		j := s.jobs[id]
		s.mu.Unlock()
		if j == nil || !keySet[j.req.ShardKey()] {
			continue
		}
		// The fail entry is what keeps the abandonment durable: without it a
		// wedge-free restart would replay the accept and re-run the job.
		if err := s.dur.appendEntry(journalEntry{Type: "fail", ID: id, Err: "abandoned: shard completed elsewhere"}); err != nil {
			s.dur.logf("durable: journal abandonment of %s: %v", id, err)
		}
		s.dur.jobFinished(id)
		j.cancel()
		s.dur.jobsAbandoned.Add(1)
		s.dur.logf("durable: abandoned recovered job %s (%s): completed elsewhere", id, j.req.ShardKey())
		n++
	}
	return n
}

// durableDo threads a disk tier through a Cache fill: memory first, then the
// artifact store, then compute (persisting the result best-effort). The hit
// flag covers both tiers — a disk hit spared the computation just the same.
func durableDo[V any](s *Server, c *Cache[V], kind, key string,
	enc func(V) ([]byte, error), dec func([]byte) (V, error),
	fill func() (V, error)) (V, bool, error) {

	diskHit := false
	val, hit, err := c.Do(key, func() (V, error) {
		if s.dur != nil {
			if data, ok, _ := s.dur.store.Get(kind, key); ok {
				if v, derr := dec(data); derr == nil {
					diskHit = true
					s.dur.diskHits.Add(1)
					return v, nil
				} else {
					// CRC held but the schema didn't (an old binary's
					// artifact): recompute and overwrite.
					s.dur.logf("durable: %s/%s: stale artifact (%v), recomputing", kind, key, derr)
				}
			}
		}
		v, ferr := fill()
		if ferr == nil && s.dur != nil {
			if data, eerr := enc(v); eerr == nil {
				if perr := s.dur.store.Put(kind, key, data); perr != nil {
					s.dur.logf("durable: persist %s/%s: %v", kind, key, perr)
				}
			}
		}
		return v, ferr
	})
	return val, hit || diskHit, err
}

// ---- per-kind codecs ----

func encodeRun(r *report.Run) ([]byte, error) { return json.Marshal(r) }
func decodeRun(b []byte) (*report.Run, error) {
	r := new(report.Run)
	if err := json.Unmarshal(b, r); err != nil {
		return nil, err
	}
	return r, nil
}

func encodeImage(im *profiler.Image) ([]byte, error) {
	var buf bytes.Buffer
	if err := im.Encode(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
func decodeImage(b []byte) (*profiler.Image, error) { return profiler.Decode(bytes.NewReader(b)) }

// diskAnnotation is the JSON shape of a cached annotation artifact.
type diskAnnotation struct {
	Dirs  []isa.Directive `json:"dirs"`
	Stats annotate.Stats  `json:"stats"`
}

func encodeAnnotation(a *annotation) ([]byte, error) {
	return json.Marshal(diskAnnotation{Dirs: a.dirs, Stats: a.stats})
}
func decodeAnnotation(b []byte) (*annotation, error) {
	var da diskAnnotation
	if err := json.Unmarshal(b, &da); err != nil {
		return nil, err
	}
	return &annotation{dirs: da.Dirs, stats: da.Stats}, nil
}

func encodeProgram(p *program.Program) ([]byte, error) {
	var buf bytes.Buffer
	if err := program.Write(&buf, p); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// programByID resolves a submitted program from the memory cache, falling
// back to the artifact store after a restart (re-registering the image in
// memory on a disk hit).
func (s *Server) programByID(id string) (*program.Program, bool) {
	if p, ok := s.programs.Get(id); ok {
		return p, true
	}
	if s.dur == nil {
		return nil, false
	}
	data, ok, _ := s.dur.store.Get(kindPrograms, id)
	if !ok {
		return nil, false
	}
	p, err := program.ReadBytes(data)
	if err != nil {
		s.dur.logf("durable: stale program artifact %s: %v", id, err)
		return nil, false
	}
	s.dur.diskHits.Add(1)
	stored, _, err := s.programs.Do(id, func() (*program.Program, error) { return p, nil })
	if err != nil {
		return nil, false
	}
	return stored, true
}

// ---- checkpointed sweep execution ----

// shouldCheckpoint reports whether a request's sweep runs chunk-by-chunk with
// journaled partial results. Only journaled sweeps longer than one chunk
// benefit — anything shorter is all-or-nothing either way.
func (s *Server) shouldCheckpoint(req *EvaluateRequest) bool {
	return s.dur != nil &&
		s.cfg.SweepCheckpoint > 0 && len(req.Thresholds) > s.cfg.SweepCheckpoint
}

// sweepChunks splits a threshold list into contiguous chunks of at most size.
func sweepChunks(ths []float64, size int) [][]float64 {
	var out [][]float64
	for len(ths) > size {
		out = append(out, ths[:size])
		ths = ths[size:]
	}
	return append(out, ths)
}

// computeCheckpointed evaluates a threshold sweep in journaled chunks: each
// chunk is one MultiEval pass whose partial Run is appended to the journal
// before the next chunk starts, so a crash loses at most one chunk of work.
// Chunks already journaled by a pre-crash incarnation of the job (handed over
// via takeRecovered) are reused verbatim. The merge path is the cluster's
// report.MergeSweep with the same passes-saved normalization, so the output
// is byte-identical to an uninterrupted single-pass sweep.
func (s *Server) computeCheckpointed(ctx context.Context, p *program.Program, fp string, input workload.Input, req *EvaluateRequest, jid string) (*report.Run, error) {
	ths := req.Thresholds
	chunks := sweepChunks(ths, s.cfg.SweepCheckpoint)
	recovered := s.dur.chunksFor(jid)

	parts := make([]*report.Run, len(chunks))
	for ci, chunkThs := range chunks {
		if prev, ok := recovered[ci]; ok && chunkMatches(prev, chunkThs) {
			parts[ci] = prev
			s.dur.chunksResumed.Add(1)
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		creq := *req
		creq.Thresholds = chunkThs
		run, err := s.compute(ctx, p, fp, input, &creq)
		if err != nil {
			return nil, err
		}
		// Journal the checkpoint before moving on; a failed append is a
		// crash-equivalent stop (the journal is wedged — nothing later could
		// be recorded, so nothing later should be computed).
		if err := s.dur.appendEntry(journalEntry{Type: "shard", ID: jid, Chunk: ci, Run: run}); err != nil {
			return nil, fmt.Errorf("sweep checkpoint %d: %w", ci, err)
		}
		s.dur.sweepCheckpoints.Add(1)
		parts[ci] = run
	}

	// Normalize passes-saved to the single-pass figure, exactly as the
	// cluster merge does, so chunking never shows up in the science artifact.
	saved := int64(len(ths) - 1)
	if req.ILP {
		saved++
	}
	return report.MergeSweep(parts, ths, saved)
}

// chunkMatches validates a journaled chunk run against the thresholds the
// chunk should cover, so a stale or reordered journal entry recomputes
// instead of corrupting the merge.
func chunkMatches(run *report.Run, ths []float64) bool {
	if run == nil || len(run.Sweep) != len(ths) {
		return false
	}
	for i, th := range ths {
		if run.Sweep[i] == nil || run.Sweep[i].Threshold != th {
			return false
		}
	}
	return true
}
