// Package vm implements the functional simulator that executes program
// images and emits the dynamic instruction trace. Together with package
// trace it substitutes for the paper's SHADE environment: it interprets every
// instruction, tracks architectural state, and hands each retired
// instruction to registered trace consumers.
//
// The interpreter is the repository's single hot path (every experiment
// re-executes benchmark traces through it), so it is structured for
// throughput: the text segment is pre-decoded once per machine into a dense
// dispatch table whose entries carry the precomputed source-operand reads,
// the per-instruction step is straight-line code with no closures and no
// allocations, and the consumer fan-out is specialized for the common cases
// of zero and one attached consumers.
package vm

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/faults"
	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/trace"
)

// Config parameterizes a machine.
type Config struct {
	// MemWords is the total data-memory size in words. It must cover the
	// program's initialized data; the remainder is zeroed heap/stack.
	// Zero selects the initialized data size plus DefaultExtraMem.
	MemWords int
	// MaxInstructions bounds execution; Run fails with ErrBudget if the
	// program has not halted after this many instructions. Zero selects
	// DefaultMaxInstructions.
	MaxInstructions int64
	// Limits sandboxes untrusted guest programs. The zero value imposes no
	// limits (trusted callers — the experiment drivers — run unlimited).
	Limits Limits
}

// Limits is the resource sandbox for untrusted guest programs, enforced in
// the dispatch loop and at machine construction. Zero fields are unlimited.
// Unlike Config.MaxInstructions (a safety net for runaway but trusted
// experiments, with a large default), Limits is an explicit cap vpserve
// places on uploaded work; exceeding it is the guest's fault and reports the
// typed errors below so the server can classify the failure.
type Limits struct {
	// MaxSteps caps retired instructions; exceeding it fails the run with
	// ErrFuelExhausted.
	MaxSteps int64
	// MaxMem caps data-memory size in words. A program whose initialized
	// data does not fit is rejected by New with ErrMemLimit; a default
	// heap allocation is clamped to fit.
	MaxMem int64
	// MaxTraceEvents caps records delivered to attached trace consumers;
	// exceeding it fails the run with ErrTraceLimit. Runs with no
	// consumers emit no events and are not bounded by it.
	MaxTraceEvents int64
}

// Defaults for Config zero values.
const (
	DefaultExtraMem        = 1 << 20
	DefaultMaxInstructions = 200_000_000
)

// Execution errors.
var (
	// ErrBudget reports that the instruction budget was exhausted before
	// the program halted.
	ErrBudget = errors.New("vm: instruction budget exhausted")
	// ErrMemFault reports an out-of-range memory access.
	ErrMemFault = errors.New("vm: memory fault")
	// ErrDivZero reports an integer division by zero.
	ErrDivZero = errors.New("vm: integer division by zero")
	// ErrPCFault reports a control transfer outside the text segment.
	ErrPCFault = errors.New("vm: PC outside text segment")
	// ErrFuelExhausted reports that the run exceeded Limits.MaxSteps.
	ErrFuelExhausted = errors.New("vm: fuel exhausted")
	// ErrMemLimit reports that the program needs more memory than
	// Limits.MaxMem allows.
	ErrMemLimit = errors.New("vm: memory limit exceeded")
	// ErrTraceLimit reports that the run emitted more trace events than
	// Limits.MaxTraceEvents allows.
	ErrTraceLimit = errors.New("vm: trace event limit exceeded")
)

// PointStep is the fault-injection point evaluated once per dispatched
// instruction (only when a fault plan is armed; see package faults).
const PointStep = "vm.step"

func init() { faults.Register(PointStep) }

// decoded is one pre-decoded text-segment instruction: the operand fields
// the interpreter needs, plus the source-operand reads the tracer reports,
// computed once at machine construction instead of per dynamic execution.
type decoded struct {
	op    isa.Opcode
	rd    isa.Reg
	rs1   isa.Reg
	rs2   isa.Reg
	dir   isa.Directive
	reads [2]trace.RegRead
	imm   int64

	// Precomputed trace-column bytes for the fused recording path: the
	// packed source-operand reads and the flags byte's directive bits, in
	// the chunk codec's layout (fused.go stores them verbatim).
	r0, r1   byte
	flagBase byte
}

// Machine is one execution of a program image.
type Machine struct {
	prog *program.Program
	cfg  Config
	dec  []decoded

	regs  [isa.NumIntRegs]isa.Word
	fregs [isa.NumFPRegs]float64
	mem   []isa.Word
	pc    int64
	phase int
	seq   int64

	halted    bool
	consumers trace.Tee
	// rec is the reusable trace record handed to consumers; consumers
	// must copy what they keep (the Consumer contract), which lets the
	// simulator run allocation-free per instruction.
	rec trace.Record
}

// New creates a machine ready to run p. The program's initialized data is
// copied into memory, so the image can be reused across runs.
func New(p *program.Program, cfg Config) (*Machine, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	memWords := cfg.MemWords
	defaulted := memWords == 0
	if defaulted {
		memWords = len(p.Data) + DefaultExtraMem
	}
	if lim := cfg.Limits.MaxMem; lim > 0 && int64(memWords) > lim {
		if !defaulted || int64(len(p.Data)) > lim {
			return nil, fmt.Errorf("%w: program needs %d words, MaxMem is %d", ErrMemLimit, memWords, lim)
		}
		// A defaulted heap is clamped to the sandbox; the program's own
		// data still fits.
		memWords = int(lim)
	}
	if memWords < len(p.Data) {
		return nil, fmt.Errorf("vm: MemWords %d smaller than initialized data %d", memWords, len(p.Data))
	}
	if cfg.MaxInstructions == 0 {
		cfg.MaxInstructions = DefaultMaxInstructions
	}
	m := &Machine{
		prog: p,
		cfg:  cfg,
		dec:  predecode(p.Text),
		mem:  getMem(memWords),
		pc:   p.Entry,
	}
	copy(m.mem, p.Data)
	// Conventional stack pointer: top of memory.
	m.regs[isa.RegSP] = int64(memWords)
	return m, nil
}

// memPool recycles memory images across machines. The image is by far a
// machine's largest allocation (~8 MiB at the default heap size), and paying
// mallocgcLarge — fresh pages faulted in, zeroed, then scavenged back — per
// run dominates construction cost for the short executions the sweep drivers
// and recording benchmarks issue back to back.
var memPool sync.Pool

// getMem returns a zeroed n-word memory image, reusing a pooled buffer when
// one is large enough. Pooled buffers are always cleared before reuse: a
// sandboxed guest (vpserve) must never observe a previous run's memory.
func getMem(n int) []isa.Word {
	if v := memPool.Get(); v != nil {
		if buf := v.([]isa.Word); cap(buf) >= n {
			buf = buf[:n]
			clear(buf)
			return buf
		}
	}
	return make([]isa.Word, n)
}

// Release returns the machine's memory image to the internal pool. The
// machine must not be used afterwards (Mem faults, Run would fault on the
// first access). Callers whose machine does not outlive the run — the
// workload helpers, the pipeline drivers — use it to recycle the heap across
// executions; callers that inspect memory after the run simply skip it.
func (m *Machine) Release() {
	if m.mem == nil {
		return
	}
	memPool.Put(m.mem)
	m.mem = nil
}

// predecode builds the dispatch table: one decoded entry per static
// instruction with the source-operand reads the tracer reports for that
// opcode precomputed.
func predecode(text []isa.Instruction) []decoded {
	dec := make([]decoded, len(text))
	for i, ins := range text {
		d := &dec[i]
		d.op = ins.Op
		d.rd = ins.Rd
		d.rs1 = ins.Rs1
		d.rs2 = ins.Rs2
		d.dir = ins.Dir
		d.imm = ins.Imm

		intRead := func(r isa.Reg) trace.RegRead { return trace.RegRead{Valid: true, Reg: r} }
		fpRead := func(r isa.Reg) trace.RegRead { return trace.RegRead{Valid: true, FP: true, Reg: r} }
		switch ins.Op {
		case isa.OpADD, isa.OpSUB, isa.OpMUL, isa.OpDIV, isa.OpREM,
			isa.OpAND, isa.OpOR, isa.OpXOR, isa.OpSLL, isa.OpSRL,
			isa.OpSRA, isa.OpSLT,
			isa.OpST,
			isa.OpBEQ, isa.OpBNE, isa.OpBLT, isa.OpBGE:
			d.reads[0] = intRead(ins.Rs1)
			d.reads[1] = intRead(ins.Rs2)
		case isa.OpADDI, isa.OpMULI, isa.OpANDI, isa.OpORI, isa.OpXORI,
			isa.OpSLLI, isa.OpSRLI, isa.OpSRAI, isa.OpSLTI,
			isa.OpLD, isa.OpFLD, isa.OpJALR, isa.OpITOF:
			d.reads[0] = intRead(ins.Rs1)
		case isa.OpFST:
			d.reads[0] = intRead(ins.Rs1)
			d.reads[1] = fpRead(ins.Rs2)
		case isa.OpFADD, isa.OpFSUB, isa.OpFMUL, isa.OpFDIV,
			isa.OpFLT, isa.OpFEQ:
			d.reads[0] = fpRead(ins.Rs1)
			d.reads[1] = fpRead(ins.Rs2)
		case isa.OpFMOV, isa.OpFNEG, isa.OpFABS, isa.OpFSQRT, isa.OpFTOI:
			d.reads[0] = fpRead(ins.Rs1)
		}
		d.r0 = packRegRead(d.reads[0])
		d.r1 = packRegRead(d.reads[1])
		d.flagBase = byte(ins.Dir) << 4
	}
	return dec
}

// packRegRead packs one source-operand read into the trace codec's byte
// layout: bit7 Valid, bit6 FP, bits 0-5 the register number.
func packRegRead(rd trace.RegRead) byte {
	var b byte
	if rd.Valid {
		b = 0x80 | byte(rd.Reg)&0x3f
		if rd.FP {
			b |= 0x40
		}
	}
	return b
}

// Attach registers a trace consumer; every subsequently retired instruction
// is forwarded to it.
func (m *Machine) Attach(c trace.Consumer) { m.consumers = append(m.consumers, c) }

// Halted reports whether the program has executed HALT.
func (m *Machine) Halted() bool { return m.halted }

// InstructionsRetired returns the dynamic instruction count so far.
func (m *Machine) InstructionsRetired() int64 { return m.seq }

// IntReg returns the current value of integer register r.
func (m *Machine) IntReg(r isa.Reg) isa.Word { return m.regs[r] }

// FPReg returns the current value of floating-point register r.
func (m *Machine) FPReg(r isa.Reg) float64 { return m.fregs[r] }

// Mem returns the current value of data-memory word a.
func (m *Machine) Mem(a int64) (isa.Word, error) {
	if a < 0 || a >= int64(len(m.mem)) {
		return 0, fmt.Errorf("%w: read of %d (mem size %d)", ErrMemFault, a, len(m.mem))
	}
	return m.mem[a], nil
}

// Run executes until HALT, the instruction budget, or a sandbox limit is
// exhausted. It is the fused fast path: the halt/budget/limit/PC checks are
// hoisted into one loop header and the step body is invoked directly on the
// decoded instruction. Fault injection is snapshotted once — when no plan is
// armed the loop carries a single always-false branch.
func (m *Machine) Run() error {
	budget := m.cfg.MaxInstructions
	fuel := m.cfg.Limits.MaxSteps
	events := m.cfg.Limits.MaxTraceEvents
	if events > 0 && len(m.consumers) == 0 {
		events = 0 // no consumers, no events to bound
	}
	inject := faults.Active()
	// Fused recording fast path: a single column-writing consumer (the
	// Recorder's default mode, or a ColumnSink over a batch kernel) takes
	// the dispatch loop that stores destructured record fields straight
	// into staging columns — no Record materialization, no interface call
	// per step. Fault injection needs its per-step hook, so an armed plan
	// keeps the per-record loop.
	if !inject && len(m.consumers) == 1 {
		switch c := m.consumers[0].(type) {
		case trace.ColumnAppender:
			if st := c.ColumnStage(); st != nil {
				err := m.runFused(c, st, budget, fuel, events)
				c.FlushTail()
				return err
			}
		case trace.BatchConsumer:
			// Batch kernels (profiler collectors, ILP engines) get the
			// fused loop through a column sink that hands them whole
			// staged chunks instead of one record per step.
			sink := trace.NewColumnSink(c)
			err := m.runFused(sink, sink.ColumnStage(), budget, fuel, events)
			sink.Close()
			return err
		}
	}
	for !m.halted {
		if m.seq >= budget {
			return fmt.Errorf("%w (%d instructions, pc=%d)", ErrBudget, m.seq, m.pc)
		}
		if fuel > 0 && m.seq >= fuel {
			return fmt.Errorf("%w: MaxSteps=%d reached at pc=%d", ErrFuelExhausted, fuel, m.pc)
		}
		if events > 0 && m.seq >= events {
			return fmt.Errorf("%w: MaxTraceEvents=%d reached at pc=%d", ErrTraceLimit, events, m.pc)
		}
		if inject {
			if err := faults.Inject(PointStep); err != nil {
				return fmt.Errorf("vm: step %d: %w", m.seq, err)
			}
		}
		if uint64(m.pc) >= uint64(len(m.dec)) {
			return fmt.Errorf("%w: pc=%d text=[0,%d)", ErrPCFault, m.pc, len(m.dec))
		}
		if err := m.step(&m.dec[m.pc]); err != nil {
			return err
		}
	}
	return nil
}

// Step executes one instruction and notifies trace consumers.
func (m *Machine) Step() error {
	if m.halted {
		return errors.New("vm: step after halt")
	}
	if uint64(m.pc) >= uint64(len(m.dec)) {
		return fmt.Errorf("%w: pc=%d text=[0,%d)", ErrPCFault, m.pc, len(m.dec))
	}
	return m.step(&m.dec[m.pc])
}

// setInt retires an integer register result: architectural write plus the
// destination fields of the pending trace record. Writes to the hard-wired
// zero register are discarded and produce no observable value.
func (m *Machine) setInt(rd isa.Reg, v isa.Word) {
	if rd != isa.RegZero {
		m.regs[rd] = v
		m.rec.HasDest = true
		m.rec.Dest = rd
		m.rec.Value = v
	}
}

// setFP retires a floating-point register result; the trace carries the
// IEEE-754 bit pattern.
func (m *Machine) setFP(rd isa.Reg, v float64) {
	m.fregs[rd] = v
	m.rec.HasDest = true
	m.rec.DestFP = true
	m.rec.Dest = rd
	m.rec.Value = int64(math.Float64bits(v))
}

// step executes one pre-decoded instruction. The caller has already
// bounds-checked the PC against the decode table.
func (m *Machine) step(ins *decoded) error {
	rec := &m.rec
	*rec = trace.Record{
		Addr:  m.pc,
		Op:    ins.op,
		Dir:   ins.dir,
		Phase: m.phase,
		Seq:   m.seq,
		Reads: ins.reads,
	}
	nextPC := m.pc + 1

	// The common operand fetch; per-opcode semantics below.
	rs1 := m.regs[ins.rs1]
	rs2 := m.regs[ins.rs2]

	switch ins.op {
	case isa.OpADD:
		m.setInt(ins.rd, rs1+rs2)
	case isa.OpSUB:
		m.setInt(ins.rd, rs1-rs2)
	case isa.OpMUL:
		m.setInt(ins.rd, rs1*rs2)
	case isa.OpDIV:
		if rs2 == 0 {
			return fmt.Errorf("%w at pc=%d", ErrDivZero, m.pc)
		}
		m.setInt(ins.rd, rs1/rs2)
	case isa.OpREM:
		if rs2 == 0 {
			return fmt.Errorf("%w at pc=%d", ErrDivZero, m.pc)
		}
		m.setInt(ins.rd, rs1%rs2)
	case isa.OpAND:
		m.setInt(ins.rd, rs1&rs2)
	case isa.OpOR:
		m.setInt(ins.rd, rs1|rs2)
	case isa.OpXOR:
		m.setInt(ins.rd, rs1^rs2)
	case isa.OpSLL:
		m.setInt(ins.rd, rs1<<(uint64(rs2)&63))
	case isa.OpSRL:
		m.setInt(ins.rd, int64(uint64(rs1)>>(uint64(rs2)&63)))
	case isa.OpSRA:
		m.setInt(ins.rd, rs1>>(uint64(rs2)&63))
	case isa.OpSLT:
		m.setInt(ins.rd, boolWord(rs1 < rs2))

	case isa.OpADDI:
		m.setInt(ins.rd, rs1+ins.imm)
	case isa.OpMULI:
		m.setInt(ins.rd, rs1*ins.imm)
	case isa.OpANDI:
		m.setInt(ins.rd, rs1&ins.imm)
	case isa.OpORI:
		m.setInt(ins.rd, rs1|ins.imm)
	case isa.OpXORI:
		m.setInt(ins.rd, rs1^ins.imm)
	case isa.OpSLLI:
		m.setInt(ins.rd, rs1<<(uint64(ins.imm)&63))
	case isa.OpSRLI:
		m.setInt(ins.rd, int64(uint64(rs1)>>(uint64(ins.imm)&63)))
	case isa.OpSRAI:
		m.setInt(ins.rd, rs1>>(uint64(ins.imm)&63))
	case isa.OpSLTI:
		m.setInt(ins.rd, boolWord(rs1 < ins.imm))

	case isa.OpLDI:
		m.setInt(ins.rd, ins.imm)

	case isa.OpLD:
		a := rs1 + ins.imm
		if uint64(a) >= uint64(len(m.mem)) {
			return fmt.Errorf("%w: load of %d at pc=%d (mem size %d)", ErrMemFault, a, m.pc, len(m.mem))
		}
		rec.HasMem, rec.MemAddr = true, a
		m.setInt(ins.rd, m.mem[a])
	case isa.OpST:
		a := rs1 + ins.imm
		if uint64(a) >= uint64(len(m.mem)) {
			return fmt.Errorf("%w: store to %d at pc=%d (mem size %d)", ErrMemFault, a, m.pc, len(m.mem))
		}
		m.mem[a] = rs2
		rec.HasMem, rec.MemAddr = true, a
		// Stores carry the stored value in the record (HasDest stays
		// false): the store-value-prediction extension profiles it.
		rec.Value = rs2
	case isa.OpFLD:
		a := rs1 + ins.imm
		if uint64(a) >= uint64(len(m.mem)) {
			return fmt.Errorf("%w: load of %d at pc=%d (mem size %d)", ErrMemFault, a, m.pc, len(m.mem))
		}
		rec.HasMem, rec.MemAddr = true, a
		m.setFP(ins.rd, math.Float64frombits(uint64(m.mem[a])))
	case isa.OpFST:
		a := rs1 + ins.imm
		if uint64(a) >= uint64(len(m.mem)) {
			return fmt.Errorf("%w: store to %d at pc=%d (mem size %d)", ErrMemFault, a, m.pc, len(m.mem))
		}
		v := int64(math.Float64bits(m.fregs[ins.rs2]))
		m.mem[a] = v
		rec.HasMem, rec.MemAddr = true, a
		rec.Value = v

	case isa.OpBEQ:
		if rs1 == rs2 {
			nextPC = ins.imm
			rec.Taken = true
		}
	case isa.OpBNE:
		if rs1 != rs2 {
			nextPC = ins.imm
			rec.Taken = true
		}
	case isa.OpBLT:
		if rs1 < rs2 {
			nextPC = ins.imm
			rec.Taken = true
		}
	case isa.OpBGE:
		if rs1 >= rs2 {
			nextPC = ins.imm
			rec.Taken = true
		}
	case isa.OpJMP:
		nextPC = ins.imm
		rec.Taken = true
	case isa.OpJAL:
		m.setInt(ins.rd, m.pc+1)
		nextPC = ins.imm
		rec.Taken = true
	case isa.OpJALR:
		m.setInt(ins.rd, m.pc+1)
		nextPC = rs1
		rec.Taken = true

	case isa.OpFADD:
		m.setFP(ins.rd, m.fregs[ins.rs1]+m.fregs[ins.rs2])
	case isa.OpFSUB:
		m.setFP(ins.rd, m.fregs[ins.rs1]-m.fregs[ins.rs2])
	case isa.OpFMUL:
		m.setFP(ins.rd, m.fregs[ins.rs1]*m.fregs[ins.rs2])
	case isa.OpFDIV:
		m.setFP(ins.rd, m.fregs[ins.rs1]/m.fregs[ins.rs2])
	case isa.OpFMOV:
		m.setFP(ins.rd, m.fregs[ins.rs1])
	case isa.OpFNEG:
		m.setFP(ins.rd, -m.fregs[ins.rs1])
	case isa.OpFABS:
		m.setFP(ins.rd, math.Abs(m.fregs[ins.rs1]))
	case isa.OpFSQRT:
		m.setFP(ins.rd, math.Sqrt(math.Abs(m.fregs[ins.rs1])))
	case isa.OpITOF:
		m.setFP(ins.rd, float64(rs1))
	case isa.OpFTOI:
		m.setInt(ins.rd, truncToInt(m.fregs[ins.rs1]))
	case isa.OpFLT:
		m.setInt(ins.rd, boolWord(m.fregs[ins.rs1] < m.fregs[ins.rs2]))
	case isa.OpFEQ:
		m.setInt(ins.rd, boolWord(m.fregs[ins.rs1] == m.fregs[ins.rs2]))

	case isa.OpNOP:
	case isa.OpHALT:
		m.halted = true
	case isa.OpPHASE:
		m.phase = int(ins.imm)
		rec.Phase = m.phase

	default:
		return fmt.Errorf("vm: unimplemented opcode %s at pc=%d", ins.op, m.pc)
	}

	m.pc = nextPC
	m.seq++
	// Fan-out, specialized for the overwhelmingly common 0- and
	// 1-consumer cases to avoid the slice-iteration overhead of the
	// general Tee per retired instruction.
	switch len(m.consumers) {
	case 0:
	case 1:
		m.consumers[0].Consume(rec)
	default:
		m.consumers.Consume(rec)
	}
	return nil
}

func boolWord(b bool) isa.Word {
	if b {
		return 1
	}
	return 0
}

// truncToInt converts a float64 to int64 with saturation, so pathological
// values produce a defined result instead of platform-dependent behaviour.
func truncToInt(f float64) int64 {
	switch {
	case math.IsNaN(f):
		return 0
	case f >= math.MaxInt64:
		return math.MaxInt64
	case f <= math.MinInt64:
		return math.MinInt64
	default:
		return int64(f)
	}
}
