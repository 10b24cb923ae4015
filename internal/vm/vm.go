// Package vm implements the functional simulator that executes program
// images and emits the dynamic instruction trace. Together with package
// trace it substitutes for the paper's SHADE environment: it interprets every
// instruction, tracks architectural state, and hands each retired
// instruction to registered trace consumers.
//
// The interpreter is the repository's single hot path (every experiment
// re-executes benchmark traces through it), so it is structured for
// throughput: the text segment is pre-decoded once per machine into a dense
// dispatch table whose entries carry the packed source-operand reads, and
// one dispatch loop (step.go) writes each retired instruction's record
// fields straight into a chunk of trace columns. Consumers are served from
// that chunk when it fills and when the run ends: a lone column appender
// (a Recorder or Writer) owns the chunk itself, and every other set of
// consumers is fed through one trace.ColumnSink.
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
// the interpreter needs, plus the trace-column bytes the tracer reports,
// computed once at machine construction instead of per dynamic execution.
type decoded struct {
	op  isa.Opcode
	rd  isa.Reg
	rs1 isa.Reg
	rs2 isa.Reg
	imm int64

	// The packed source-operand reads and the flags byte's directive bits,
	// in the chunk codec's layout (step stores them verbatim).
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
	consumers []trace.Consumer
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
// opcode precomputed and packed.
func predecode(text []isa.Instruction) []decoded {
	dec := make([]decoded, len(text))
	for i, ins := range text {
		d := &dec[i]
		d.op = ins.Op
		d.rd = ins.Rd
		d.rs1 = ins.Rs1
		d.rs2 = ins.Rs2
		d.imm = ins.Imm

		var reads [2]trace.RegRead
		intRead := func(r isa.Reg) trace.RegRead { return trace.RegRead{Valid: true, Reg: r} }
		fpRead := func(r isa.Reg) trace.RegRead { return trace.RegRead{Valid: true, FP: true, Reg: r} }
		switch ins.Op {
		case isa.OpADD, isa.OpSUB, isa.OpMUL, isa.OpDIV, isa.OpREM,
			isa.OpAND, isa.OpOR, isa.OpXOR, isa.OpSLL, isa.OpSRL,
			isa.OpSRA, isa.OpSLT,
			isa.OpST,
			isa.OpBEQ, isa.OpBNE, isa.OpBLT, isa.OpBGE:
			reads[0] = intRead(ins.Rs1)
			reads[1] = intRead(ins.Rs2)
		case isa.OpADDI, isa.OpMULI, isa.OpANDI, isa.OpORI, isa.OpXORI,
			isa.OpSLLI, isa.OpSRLI, isa.OpSRAI, isa.OpSLTI,
			isa.OpLD, isa.OpFLD, isa.OpJALR, isa.OpITOF:
			reads[0] = intRead(ins.Rs1)
		case isa.OpFST:
			reads[0] = intRead(ins.Rs1)
			reads[1] = fpRead(ins.Rs2)
		case isa.OpFADD, isa.OpFSUB, isa.OpFMUL, isa.OpFDIV,
			isa.OpFLT, isa.OpFEQ:
			reads[0] = fpRead(ins.Rs1)
			reads[1] = fpRead(ins.Rs2)
		case isa.OpFMOV, isa.OpFNEG, isa.OpFABS, isa.OpFSQRT, isa.OpFTOI:
			reads[0] = fpRead(ins.Rs1)
		}
		d.r0 = trace.PackRead(reads[0])
		d.r1 = trace.PackRead(reads[1])
		d.flagBase = byte(ins.Dir) << 4
	}
	return dec
}

// Attach registers a trace consumer; every subsequently retired instruction
// is delivered to it, in attach order with the other consumers. Delivery is
// chunked: records reach consumers when a staged chunk fills and when Run
// returns, not interleaved with execution (see trace.Consumer).
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
// exhausted, delivering every retired instruction to the attached consumers
// before it returns — also when the run ends in an error. A lone consumer
// with a column stage of its own (a Recorder, a Writer) is appended into
// directly; every other set of consumers, including none, is fed through
// one trace.ColumnSink.
func (m *Machine) Run() error {
	if m.halted {
		return nil
	}
	events := m.cfg.Limits.MaxTraceEvents
	if len(m.consumers) == 0 {
		events = 0 // no consumers, no events to bound
	}
	if len(m.consumers) == 1 {
		if ca, ok := m.consumers[0].(trace.ColumnAppender); ok {
			if st := ca.ColumnStage(); st != nil {
				err := m.run(ca, st, events)
				ca.FlushTail()
				return err
			}
		}
	}
	sink := trace.NewColumnSink(m.consumers...)
	err := m.run(sink, sink.ColumnStage(), events)
	sink.Close()
	return err
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
