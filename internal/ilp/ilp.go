// Package ilp implements the abstract machine of the paper's Section 5.3,
// used to measure the instruction-level parallelism that value prediction
// exposes: a finite instruction window of 40 entries, an unlimited number of
// execution units, perfect branch prediction, unit execution latency, and a
// 1-clock-cycle value-misprediction penalty. The machine is trace-driven: it
// schedules the dynamic instruction stream on the dataflow graph induced by
// register dependencies, optionally letting a value-prediction engine supply
// predicted operands at dispatch.
package ilp

import (
	"fmt"

	"repro/internal/branch"
	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/vpsim"
)

// Config parameterizes the abstract machine.
type Config struct {
	// WindowSize is the finite instruction window; the paper uses 40.
	WindowSize int
	// MispredictPenalty is the extra delay, in cycles, consumers of a
	// mispredicted value incur; the paper uses 1.
	MispredictPenalty int64
	// Latency is the execution latency of every instruction; the
	// abstract machine uses 1.
	Latency int64
	// IssueWidth, when positive, replaces the paper's pure dataflow
	// issue with an in-order superscalar front end: at most IssueWidth
	// instructions issue per cycle, in program order, so one stalled
	// instruction blocks everything younger. Zero keeps the paper's
	// model (unlimited out-of-order issue inside the window). The
	// scheduling extension uses this mode — static order is irrelevant
	// to a dataflow machine but decisive for an in-order one.
	IssueWidth int
}

// DefaultConfig is the paper's machine model.
var DefaultConfig = Config{WindowSize: 40, MispredictPenalty: 1, Latency: 1}

// Validate checks the machine parameters.
func (c Config) Validate() error {
	if c.WindowSize <= 0 {
		return fmt.Errorf("ilp: window size %d must be positive", c.WindowSize)
	}
	if c.MispredictPenalty < 0 {
		return fmt.Errorf("ilp: misprediction penalty %d must be non-negative", c.MispredictPenalty)
	}
	if c.Latency <= 0 {
		return fmt.Errorf("ilp: latency %d must be positive", c.Latency)
	}
	if c.IssueWidth < 0 {
		return fmt.Errorf("ilp: issue width %d must be non-negative", c.IssueWidth)
	}
	return nil
}

// Machine is one ILP measurement over a dynamic instruction stream. It
// implements trace.BatchConsumer; feed it a trace (directly from the
// functional simulator or from a trace file) and read Result afterwards.
// Both entry points run the one scheduling routine, step, so the batch and
// per-record paths cannot drift apart.
type Machine struct {
	cfg Config
	// engine supplies value predictions; nil measures the no-value-
	// prediction baseline (the dataflow limit under the finite window).
	engine *vpsim.Engine

	// ready holds the cycle each register's latest value becomes
	// available, indexed like a packed trace read byte without its valid
	// bit: integer registers at 0-63, FP registers at 64-127. Entry 0 (the
	// hard-wired zero register) is never written, so invalid reads, which
	// index it, are always ready.
	ready [128]int64
	// mem holds the cycle each data-memory word's latest stored value
	// becomes available; loads are true-data dependent on the last store
	// to their address (the through-memory edges of the dataflow graph).
	// Anti- and output dependencies are ignored, as the abstract machine
	// has perfect renaming and buffering.
	mem memReady
	// retire is a ring buffer of the retirement cycles of the last
	// WindowSize instructions; an instruction cannot enter the window
	// before the instruction WindowSize before it has retired. slot is
	// the ring position of the next instruction.
	retire []int64
	slot   int
	count  int64
	// lastRetire enforces in-order retirement.
	lastRetire int64

	// branchPred, when set, replaces the paper's perfect branch
	// prediction: a mispredicted branch stalls fetch until it resolves
	// plus branchPenalty redirect cycles (the extension experiments use
	// this to test how much of the VP gain survives realistic control
	// flow).
	branchPred    *branch.Predictor
	branchPenalty int64
	// fetchFloor is the earliest cycle the next instruction may enter
	// the window (raised by branch mispredictions).
	fetchFloor int64

	// In-order issue state (IssueWidth > 0): the current issue cycle and
	// how many instructions have issued in it.
	lastIssue       int64
	issuedThisCycle int
}

// isStore and isBranch are the two opcode properties the scheduler reads
// per record, as flat tables indexed by the raw opcode byte (undefined
// opcodes report false, as Opcode.Info does).
var isStore, isBranch = func() (st, br [256]bool) {
	for op := range st {
		info := isa.Opcode(op).Info()
		st[op], br[op] = info.IsStore, info.IsBranch
	}
	return st, br
}()

// UseBranchPredictor replaces perfect branch prediction with a realistic
// predictor: every mispredicted branch delays all later window entries until
// the branch resolves plus penalty redirect cycles.
func (m *Machine) UseBranchPredictor(p *branch.Predictor, penalty int64) error {
	if p == nil {
		return fmt.Errorf("ilp: nil branch predictor")
	}
	if penalty < 0 {
		return fmt.Errorf("ilp: negative branch penalty %d", penalty)
	}
	m.branchPred = p
	m.branchPenalty = penalty
	return nil
}

// New builds a machine. engine may be nil for the no-prediction baseline.
func New(cfg Config, engine *vpsim.Engine) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Machine{
		cfg:    cfg,
		engine: engine,
		retire: make([]int64, cfg.WindowSize),
	}, nil
}

// Consume implements trace.Consumer: it packs r into the column fields and
// schedules it.
func (m *Machine) Consume(r *trace.Record) {
	m.step(byte(r.Op), trace.PackFlags(r), byte(r.Dest), trace.PackRead(r.Reads[0]), trace.PackRead(r.Reads[1]),
		r.Addr, r.Dir, r.Value, r.MemAddr)
}

// ConsumeBatch implements trace.BatchConsumer: the scheduler runs straight
// off the decoded columns, with no Record materialization.
func (m *Machine) ConsumeBatch(b *trace.Batch) {
	n := b.N
	ops, flags, dests, reads := b.Op[:n], b.Flags[:n], b.Dest[:n], b.Reads[:2*n]
	addrs, dirs, vals, mems := b.Addr[:n], b.Dir[:n], b.Value[:n], b.MemAddr[:n]
	for i, op := range ops {
		m.step(op, flags[i], dests[i], reads[2*i], reads[2*i+1], addrs[i], dirs[i], vals[i], mems[i])
	}
}

// step schedules one dynamic instruction given in the trace column layout:
// f holds the trace.Flag* bits and rd0/rd1 the packed source-operand bytes.
func (m *Machine) step(op, f, dest, rd0, rd1 byte, addr int64, dir isa.Directive, value, memAddr int64) {
	// Window constraint: entry waits for the retirement of the
	// instruction WindowSize back. Fetch/dispatch bandwidth is otherwise
	// unlimited and branches never stall it (perfect branch prediction).
	entry := m.retire[m.slot]
	if entry < m.fetchFloor {
		entry = m.fetchFloor
	}

	// Operand readiness through the register dataflow. Masking with the
	// sign-extended valid bit sends invalid reads to the never-written
	// entry 0.
	issue := entry
	if ready := m.ready[rd0&0x7f&-(rd0>>7)]; ready > issue {
		issue = ready
	}
	if ready := m.ready[rd1&0x7f&-(rd1>>7)]; ready > issue {
		issue = ready
	}
	hasMem, store := f&trace.FlagHasMem != 0, isStore[op]
	if hasMem && !store {
		// Words never stored read 0, which never delays issue.
		if ready := m.mem.get(memAddr); ready > issue {
			issue = ready
		}
	}
	// In-order front end: issue cycles are non-decreasing in program
	// order and at most IssueWidth instructions share one.
	if m.cfg.IssueWidth > 0 {
		if issue < m.lastIssue {
			issue = m.lastIssue
		}
		if issue == m.lastIssue && m.issuedThisCycle >= m.cfg.IssueWidth {
			issue++
		}
		if issue > m.lastIssue {
			m.lastIssue = issue
			m.issuedThisCycle = 1
		} else {
			m.issuedThisCycle++
		}
	}
	complete := issue + m.cfg.Latency
	if hasMem && store {
		m.mem.set(memAddr, complete)
	}

	// Value prediction: a used-correct prediction makes the destination
	// available to consumers at window entry, collapsing the dependence;
	// a used-incorrect one delays consumers by the misprediction penalty
	// beyond normal completion (re-execution of the consumers).
	if f&trace.FlagHasDest != 0 {
		destReady := complete
		if m.engine != nil {
			switch m.engine.Observe(addr, dir, value) {
			case vpsim.OutcomeUsedCorrect:
				destReady = entry
			case vpsim.OutcomeUsedIncorrect:
				destReady = complete + m.cfg.MispredictPenalty
			}
		}
		// FP destinations land at 64+dest; the integer zero register
		// (index 0) is never tracked.
		if i := dest&0x3f | (f&trace.FlagDestFP)<<5; i != 0 {
			m.ready[i] = destReady
		}
	}

	if m.branchPred != nil && isBranch[op] {
		if correct := m.branchPred.Observe(addr, f&trace.FlagTaken != 0); !correct {
			if floor := complete + m.branchPenalty; floor > m.fetchFloor {
				m.fetchFloor = floor
			}
		}
	}

	// In-order retirement: an instruction retires no earlier than its
	// completion and no earlier than its predecessor.
	ret := max(complete, m.lastRetire)
	m.lastRetire = ret
	m.retire[m.slot] = ret
	if m.slot++; m.slot == len(m.retire) {
		m.slot = 0
	}
	m.count++
}

// memReady is the store-to-load readiness table: a lazily allocated paged
// dense array over word addresses, where a zero entry means "never stored"
// (a store always completes at cycle ≥ 1). Guest memory is a dense word
// array, so a run touches a few pages — its data segment and its stack —
// and each lookup is two indexed loads. Addresses beyond the dense range
// (negative, or past memDensePages pages) fall back to a map.
type memReady struct {
	pages [][]int64
	far   map[int64]int64
}

const (
	memPageBits   = 12
	memPageWords  = 1 << memPageBits
	memDensePages = 1 << 16 // dense coverage: word addresses [0, 1<<28)
)

// get returns the ready cycle of the last store to word a, or 0.
func (t *memReady) get(a int64) int64 {
	p := uint64(a) >> memPageBits
	if p < uint64(len(t.pages)) {
		if pg := t.pages[p]; pg != nil {
			return pg[a&(memPageWords-1)]
		}
		return 0
	}
	if p >= memDensePages {
		return t.far[a]
	}
	return 0
}

// set records that word a's latest stored value is ready at cycle v.
func (t *memReady) set(a, v int64) {
	p := uint64(a) >> memPageBits
	if p >= memDensePages {
		if t.far == nil {
			t.far = make(map[int64]int64)
		}
		t.far[a] = v
		return
	}
	if p >= uint64(len(t.pages)) {
		t.pages = append(t.pages, make([][]int64, int(p)+1-len(t.pages))...)
	}
	pg := t.pages[p]
	if pg == nil {
		pg = make([]int64, memPageWords)
		t.pages[p] = pg
	}
	pg[a&(memPageWords-1)] = v
}

// Result reports the measured ILP.
type Result struct {
	Instructions int64
	Cycles       int64
	// Prediction carries the engine statistics when value prediction was
	// active.
	Prediction vpsim.Stats
}

// ILP is instructions per cycle.
func (r Result) ILP() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// Result returns the measurement so far.
func (m *Machine) Result() Result {
	res := Result{Instructions: m.count, Cycles: m.lastRetire}
	if m.engine != nil {
		res.Prediction = m.engine.Stats()
	}
	return res
}

// SpeedupOver returns the ILP increase of r over base in percent, the
// quantity Table 5.2 reports ("the increase in ILP gained by using value
// prediction relative to the case when value prediction is not used").
func (r Result) SpeedupOver(base Result) float64 {
	if base.ILP() == 0 {
		return 0
	}
	return 100 * (r.ILP() - base.ILP()) / base.ILP()
}
