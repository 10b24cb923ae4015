// Package trace defines the dynamic instruction stream the simulator emits
// and the analysis tools consume. It plays the role the SHADE tracing
// environment played in the paper: the functional simulator produces one
// Record per retired instruction and fans it out to any number of consumers
// (profiler, prediction simulators, ILP machine).
package trace

import "repro/internal/isa"

// Record describes one retired dynamic instruction.
type Record struct {
	// Addr is the static instruction address (text-segment index); the
	// predictors index their tables with it.
	Addr int64
	// Op is the executed opcode.
	Op isa.Opcode
	// Dir is the directive carried by the static instruction.
	Dir isa.Directive
	// HasDest reports whether the instruction wrote a computed value to a
	// destination register (the only instructions the paper's mechanisms
	// consider). Writes to the hard-wired zero register report false.
	HasDest bool
	// DestFP reports whether the destination is a floating-point
	// register.
	DestFP bool
	// Dest is the destination register number (valid when HasDest).
	Dest isa.Reg
	// Value is the produced destination value: the integer result, or the
	// IEEE-754 bit pattern for FP destinations (valid when HasDest).
	Value isa.Word
	// Phase is the current execution phase, advanced by PHASE
	// instructions; the FP workloads use phase 0 for initialization and
	// phase 1 for computation (Table 2.1 reports them separately).
	Phase int
	// Seq is the dynamic instruction sequence number (0-based).
	Seq int64
	// Reads lists the register operands the instruction consumed, for
	// dataflow scheduling. Unused entries have Valid=false.
	Reads [2]RegRead
	// Taken reports whether a branch was taken (meaningful for branches).
	Taken bool
	// HasMem reports whether the instruction accessed data memory; for
	// those, MemAddr is the accessed word address. The ILP machine uses
	// store→load pairs as true data dependencies. MemAddr is kept only
	// where HasMem is set: the VM reports 0 for every other record, and a
	// recorded or written trace replays any other record with MemAddr 0.
	HasMem  bool
	MemAddr int64
}

// RegRead identifies one register source operand.
type RegRead struct {
	Valid bool
	FP    bool
	Reg   isa.Reg
}

// Consumer receives the dynamic instruction stream in program order.
//
// Delivery is chunked, not interleaved with execution: a live VM run stages
// records into a column chunk and hands them to its consumers when the chunk
// fills (every 16,384 records) and when the run ends, halt or error, and a
// replay delivers one decoded chunk at a time. A consumer therefore must not
// expect the producing machine's state to correspond to the record it is
// given.
type Consumer interface {
	// Consume is called once per retired instruction. The record is only
	// valid for the duration of the call — producers reuse the backing
	// storage — so consumers that keep data must copy it (copying the
	// Record value copies everything; it contains no references).
	Consume(r *Record)
}

// ConsumerFunc adapts a function to the Consumer interface.
type ConsumerFunc func(r *Record)

// Consume calls f(r).
func (f ConsumerFunc) Consume(r *Record) { f(r) }

// Counter counts records and value-producing records; a trivial consumer
// used by tools and tests.
type Counter struct {
	Records    int64
	ValueProds int64
}

// Consume implements Consumer.
func (c *Counter) Consume(r *Record) {
	c.Records++
	if r.HasDest {
		c.ValueProds++
	}
}
