package trace

import (
	"runtime"
	"sync"

	"repro/internal/isa"
)

// This file implements single-pass multi-configuration trace evaluation.
// The Section 5 experiment drivers sweep one recorded trace across many
// predictor/classifier configurations — the FSM baseline plus one
// profile-annotated configuration per accuracy threshold. Replaying the
// trace once per configuration re-reads the whole multi-megabyte buffer T
// times; MultiEval walks the buffer exactly once and fans every record out
// to all configurations, turning the sweep from O(configs × replay) into
// O(replay + configs × table-update). Each configuration still observes
// exactly the record sequence its own ReplayDirs/Replay call would have
// produced, so per-configuration results are bit-identical to separate
// replays (the equivalence is asserted by TestMultiEvalMatchesSeparateReplays).

// EvalConfig is one independent evaluation configuration of a MultiEval
// pass: a consumer plus the per-address directive table to patch into each
// record before the consumer sees it. A nil Dirs replays the plain recorded
// stream (the FSM baseline and no-prediction ILP machines); a non-nil Dirs
// reproduces ReplayDirs for that annotation (out-of-range addresses patch to
// DirNone). Configurations share nothing but the immutable trace: each
// consumer owns its prediction tables, counters and statistics.
type EvalConfig struct {
	Dirs     []isa.Directive
	Consumer Consumer
}

// MultiEval replays the recorded stream once, feeding every record to each
// configuration. It returns the number of full replay passes saved versus
// evaluating the configurations with one replay each (len(cfgs)-1, never
// negative) — the quantity the vpserve trace_replay_passes_saved metric
// accumulates.
//
// The walk is chunk-tiled: each columnar chunk is decoded once and then run
// through every configuration's tight per-consumer loop before the walk
// advances, so the decode cost amortizes over all configurations and
// configurations 2..N read the decoded chunk from cache instead of
// re-streaming (or re-decoding) the multi-megabyte buffer. Every consumer
// still observes exactly the record sequence its own ReplayDirs/Replay call
// would have produced — configurations share nothing, so the tiling
// granularity is unobservable. For the same reason batch-kernel
// configurations are evaluated in parallel lanes on multi-core machines
// (see multiEvalBatch) without changing any result.
//
// Directive patching writes to per-call scratch, never to the recorded
// chunks, so concurrent MultiEval/Replay calls on one sealed Recorder are
// safe. Consumers receive records under the standard read-only,
// duration-of-the-call contract.
func (rc *Recorder) MultiEval(cfgs ...EvalConfig) int64 {
	if len(cfgs) == 0 {
		return 0
	}
	rc.passes.Add(1)
	rc.drainEncode()
	staged := rc.tailRecords()
	nbatch := 0
	for _, cfg := range cfgs {
		if _, ok := cfg.Consumer.(BatchConsumer); ok {
			nbatch++
		}
	}
	if nbatch > 0 {
		rc.multiEvalBatch(cfgs)
	} else {
		var scratch Record
		rc.walkSlabs(func(chunk []Record) { evalRecords(cfgs, chunk, &scratch) })
	}
	if len(staged) > 0 {
		var scratch Record
		evalRecords(cfgs, staged, &scratch)
	}
	return int64(len(cfgs) - 1)
}

// evalRecords runs one decoded chunk through every configuration's
// per-record consumer loop: the kernel of all-scalar configuration sets,
// scalar consumers in a batch lane, and the staging tail of an unsealed
// Recorder.
func evalRecords(cfgs []EvalConfig, chunk []Record, scratch *Record) {
	for _, cfg := range cfgs {
		if cfg.Dirs == nil {
			c := cfg.Consumer
			for i := range chunk {
				c.Consume(&chunk[i])
			}
			continue
		}
		dirs, c := cfg.Dirs, cfg.Consumer
		for i := range chunk {
			*scratch = chunk[i]
			if a := scratch.Addr; a >= 0 && a < int64(len(dirs)) {
				scratch.Dir = dirs[a]
			} else {
				scratch.Dir = isa.DirNone
			}
			c.Consume(scratch)
		}
	}
}

// multiEvalBatch is the column-batch MultiEval walk. Each chunk is decoded
// once into a Batch, and the configurations, dealt round-robin into
// min(GOMAXPROCS, len(cfgs)) lanes, evaluate it: lane 0 on the walking
// goroutine, the others on goroutines of their own that receive the same
// read-only batch, so the kernels of one chunk run in parallel while the
// decode-ahead lanes (walkPipe) decode the next. The walk waits for every
// lane before advancing, since the batch is recycled when it returns. At
// one proc there is one lane and no goroutine. The split is unobservable
// because configurations share nothing (see EvalConfig): each is run by
// exactly one lane, over the same batch sequence. A consumer panic stops
// the walk once every lane has finished the batch, and is re-raised on the
// caller.
func (rc *Recorder) multiEvalBatch(cfgs []EvalConfig) {
	lanes := make([]*evalLane, min(runtime.GOMAXPROCS(0), len(cfgs)))
	for k := range lanes {
		lanes[k] = &evalLane{}
	}
	for i, cfg := range cfgs {
		l := lanes[i%len(lanes)]
		l.cfgs = append(l.cfgs, cfg)
		if _, ok := cfg.Consumer.(BatchConsumer); !ok && l.slab == nil {
			l.slab = getSlab()
		}
	}
	defer func() {
		for _, l := range lanes {
			if l.slab != nil {
				putSlab(l.slab)
			}
		}
	}()
	if len(lanes) == 1 || len(rc.chunks) == 0 {
		rc.walkBatches(lanes[0].eval)
		return
	}

	var wg sync.WaitGroup
	others := lanes[1:]
	for _, l := range others {
		l.in, l.done = make(chan *Batch), make(chan struct{})
		wg.Add(1)
		go func(l *evalLane) {
			defer wg.Done()
			for b := range l.in {
				l.failure = l.tryEval(b)
				l.done <- struct{}{}
			}
		}(l)
	}
	defer func() {
		for _, l := range others {
			close(l.in)
		}
		wg.Wait()
	}()
	rc.walkBatches(func(b *Batch) {
		for _, l := range others {
			l.in <- b
		}
		// Every lane finishes with b before anything is raised: the batch
		// goes back to the decode pool when this function returns.
		lanes[0].failure = lanes[0].tryEval(b)
		for _, l := range others {
			<-l.done
		}
		for _, l := range lanes {
			if l.failure != nil {
				panic(l.failure)
			}
		}
	})
}

// evalLane is one lane's share of a MultiEval pass and its private scratch.
type evalLane struct {
	cfgs    []EvalConfig
	slab    *recSlab // materialized records for scalar consumers; nil when all are batch kernels
	view    Batch    // the lane's view of the shared batch, with its own Dir column
	dirs    []isa.Directive
	scratch Record

	in      chan *Batch
	done    chan struct{}
	failure any // recovered consumer panic
}

// eval runs one shared batch through the lane's configurations: batch
// kernels over the columns (directive-carrying configurations see the
// lane's patched Dir column), scalar consumers through the per-record loop
// over the batch materialized once into the lane's slab. The shared batch
// itself is only read.
func (l *evalLane) eval(shared *Batch) {
	b := &l.view
	*b = *shared
	var recs []Record
	if l.slab != nil {
		recs = b.Records(l.slab.recs)
	}
	for j := range l.cfgs {
		cfg := &l.cfgs[j]
		bc, ok := cfg.Consumer.(BatchConsumer)
		if !ok {
			evalRecords(l.cfgs[j:j+1], recs, &l.scratch)
			continue
		}
		b.Dir = shared.Dir
		if cfg.Dirs != nil {
			if cap(l.dirs) < b.N {
				l.dirs = make([]isa.Directive, b.N)
			}
			l.dirs = l.dirs[:b.N]
			patchDirs(l.dirs, b.Addr, cfg.Dirs)
			b.Dir = l.dirs
		}
		bc.ConsumeBatch(b)
	}
}

// tryEval is eval with a consumer panic returned instead of raised.
func (l *evalLane) tryEval(b *Batch) (failure any) {
	defer func() { failure = recover() }()
	l.eval(b)
	return nil
}
