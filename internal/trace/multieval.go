package trace

import (
	"runtime"
	"slices"
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
// lanePass is the only fan-out: Replay and ReplayDirs run their consumers
// as the configurations of a pass with one lane, and a ColumnSink feeds a
// live run's stages through the same lanes (NewEvalSink is MultiEval
// without the recording).

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

// GroupConsumer is a BatchConsumer whose ConsumeBatch is PrepareBatch, the
// part that reads the Dir column, then a part over the shared columns that a
// pass runs for a lane's consumers of equal non-nil (comparable) GroupKey
// in one ConsumeGroup call, each member already prepared with b.
type GroupConsumer interface {
	BatchConsumer
	GroupKey() any
	PrepareBatch(b *Batch)
	ConsumeGroup(b *Batch, group []GroupConsumer)
}

// MultiEval replays the recorded stream once, feeding every record to each
// configuration. It returns the number of full replay passes saved versus
// evaluating the configurations with one replay each (len(cfgs)-1, never
// negative) — the quantity the vpserve trace_replay_passes_saved metric
// accumulates.
//
// The walk is batch-tiled: each chunk is decoded once and then run through
// every configuration before the walk advances, so the decode cost
// amortizes over all configurations and configurations 2..N read the
// decoded batch from cache instead of re-streaming (or re-decoding) the
// multi-megabyte buffer. Every consumer still observes exactly the record
// sequence its own ReplayDirs/Replay call would have produced —
// configurations share nothing, so the tiling granularity is unobservable.
// For the same reason configurations are evaluated in parallel lanes on
// multi-core machines (see evalPass) without changing any result.
//
// Directive patching writes to per-lane scratch, never to the recorded
// chunks, so concurrent MultiEval/Replay calls on one sealed Recorder are
// safe. Consumers receive records under the standard read-only,
// duration-of-the-call contract.
func (rc *Recorder) MultiEval(cfgs ...EvalConfig) int64 {
	if len(cfgs) == 0 {
		return 0
	}
	rc.evalPass(cfgs, runtime.GOMAXPROCS(0))
	return int64(len(cfgs) - 1)
}

// evalPass is one replay pass — Replay, ReplayDirs or MultiEval: one walk
// over the stream, every batch evaluated by every configuration through a
// lanePass. The lanes' kernels of one chunk run in parallel while the
// decode-ahead lanes (walkPipe) decode the next.
func (rc *Recorder) evalPass(cfgs []EvalConfig, maxLanes int) {
	rc.passes.Add(1)
	rc.drainEncode()
	var p lanePass
	p.start(cfgs, maxLanes)
	defer p.stop()
	rc.walk(p.eval)
}

// lanePass is the fan-out shared by replay passes and ColumnSinks: the
// configurations are dealt round-robin into min(maxLanes, len(cfgs)) lanes.
// If any configuration is a per-record consumer, each batch is first
// materialized once into Records that every lane reads. Lane 0 runs on the
// goroutine that calls eval, the others on goroutines of their own that
// receive the same read-only batch. With one lane there is no goroutine.
type lanePass struct {
	lanes []evalLane
	one   [1]evalLane // backs lanes in a one-lane pass: no allocation per VM run
	view  recordView
	wg    sync.WaitGroup
}

// start deals cfgs into the lanes and starts the goroutines of lanes 1..
func (p *lanePass) start(cfgs []EvalConfig, maxLanes int) {
	if n := max(1, min(maxLanes, len(cfgs))); n > 1 {
		p.lanes = make([]evalLane, n)
	} else {
		p.lanes = p.one[:]
	}
	p.view = newRecordView(cfgs)
	for i, cfg := range cfgs {
		p.lanes[i%len(p.lanes)].add(cfg)
	}
	for k := 1; k < len(p.lanes); k++ {
		l := &p.lanes[k]
		l.in, l.done = make(chan *Batch), make(chan struct{})
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for b := range l.in {
				// view.recs was written before b was sent and is
				// rewritten only after done is received.
				l.failure = l.tryEval(b, p.view.recs)
				l.done <- struct{}{}
			}
		}()
	}
}

// eval runs b through every lane and returns once every lane has finished
// with it, since the caller recycles the batch. A consumer panic on any
// lane is re-raised here, after every lane has finished; the pass must not
// be used afterwards except to stop it.
func (p *lanePass) eval(b *Batch) {
	recs := p.view.fill(b)
	others := p.lanes[1:]
	for k := range others {
		others[k].in <- b
	}
	p.lanes[0].failure = p.lanes[0].tryEval(b, recs)
	for k := range others {
		<-others[k].done
	}
	for k := range p.lanes {
		if f := p.lanes[k].failure; f != nil {
			panic(f)
		}
	}
}

// stop ends the lane goroutines.
func (p *lanePass) stop() {
	for k := 1; k < len(p.lanes); k++ {
		close(p.lanes[k].in)
	}
	p.wg.Wait()
}

// recordView materializes each batch of a pass once into Records when some
// configuration is a per-record consumer; every lane reads the same
// records. When all configurations are batch kernels it stays empty.
type recordView struct {
	perRecord bool
	recs      []Record
}

func newRecordView(cfgs []EvalConfig) recordView {
	for _, cfg := range cfgs {
		if _, ok := cfg.Consumer.(BatchConsumer); !ok {
			return recordView{perRecord: true}
		}
	}
	return recordView{}
}

// fill materializes b, when needed, and returns the records to deliver.
func (v *recordView) fill(b *Batch) []Record {
	if v.perRecord {
		if cap(v.recs) < b.N {
			v.recs = make([]Record, b.N)
		}
		v.recs = b.Records(v.recs)
	}
	return v.recs
}

// evalLane is one lane's share of a replay pass and its private scratch.
type evalLane struct {
	units []evalUnit
	view  Batch // the lane's view of the shared batch, with its own Dir column
	dirs  []isa.Directive
	rec   Record // a shared record with a configuration's directive patched in

	in      chan *Batch
	done    chan struct{}
	failure any // recovered consumer panic
}

// evalUnit is a configuration or a group (group[j] is cfgs[j].Consumer).
type evalUnit struct {
	cfgs  []EvalConfig
	group []GroupConsumer
}

// add deals cfg to the lane, into the group of its GroupKey if the lane has
// one that does not hold it yet.
func (l *evalLane) add(cfg EvalConfig) {
	u := evalUnit{cfgs: []EvalConfig{cfg}}
	if gc, _ := cfg.Consumer.(GroupConsumer); gc != nil && gc.GroupKey() != nil {
		for i := range l.units {
			if g := &l.units[i]; g.group != nil && g.group[0].GroupKey() == gc.GroupKey() && !slices.Contains(g.group, gc) {
				g.cfgs, g.group = append(g.cfgs, cfg), append(g.group, gc)
				return
			}
		}
		u.group = []GroupConsumer{gc}
	}
	l.units = append(l.units, u)
}

// eval runs one shared batch through the lane's configurations: batch
// kernels over the columns, per-record consumers record by record over
// recs, the batch's shared materialized records, a group's members through
// PrepareBatch and one ConsumeGroup. A directive-carrying configuration
// sees the lane's patched Dir column, or a lane-owned copy of each record
// with its directive patched. The shared batch and records are only read.
func (l *evalLane) eval(shared *Batch, recs []Record) {
	b := &l.view
	*b = *shared
	for _, unit := range l.units {
		for j, cfg := range unit.cfgs {
			dir := shared.Dir
			if cfg.Dirs != nil {
				l.dirs = slices.Grow(l.dirs[:0], b.N)[:b.N]
				dir = l.dirs
				patchDirs(dir, b.Addr, cfg.Dirs)
			}
			b.Dir = dir
			if unit.group != nil {
				unit.group[j].PrepareBatch(b)
				continue
			}
			if bc, ok := cfg.Consumer.(BatchConsumer); ok {
				bc.ConsumeBatch(b)
				continue
			}
			c := cfg.Consumer
			if cfg.Dirs == nil {
				for i := range recs {
					c.Consume(&recs[i])
				}
				continue
			}
			for i := range recs {
				l.rec = recs[i]
				l.rec.Dir = dir[i]
				c.Consume(&l.rec)
			}
		}
		if unit.group != nil {
			unit.group[0].ConsumeGroup(b, unit.group)
		}
	}
}

// tryEval is eval with a consumer panic returned instead of raised.
func (l *evalLane) tryEval(b *Batch, recs []Record) (failure any) {
	defer func() { failure = recover() }()
	l.eval(b, recs)
	return nil
}
