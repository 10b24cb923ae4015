package trace

import (
	"sync"
	"sync/atomic"
)

// The stage-ahead pipeline: the write-side mirror of walkPipe. The producing
// thread hands each filled column stage to a single background goroutine and
// immediately picks up a recycled stage from a small free list, so filling
// chunk k+1 overlaps the work on chunk k. One goroutine plus a FIFO channel
// keeps chunk order, so the work sees exactly the stage sequence the inline
// path would. Two users run on it: the Recorder's encode-ahead (chunk
// compression and any spill write, off at GOMAXPROCS=1) and a multi-lane
// ColumnSink (evaluating the stage through its lanes while the VM runs on).
// The free list is double-buffered (two spare stages beyond the one being
// filled); a flush that finds it empty is a stall, which the Recorder
// counts as its encode backpressure signal (EncodeStalls).

// aheadItem is one unit of background work: a filled stage, or a drain
// barrier (st nil) whose ack closes once everything queued before it is done.
type aheadItem struct {
	st  *RecordColumns
	ack chan struct{}
}

type stageAhead struct {
	fn   func(*RecordColumns)
	work chan aheadItem
	free chan *RecordColumns
	done chan struct{}

	mu      sync.Mutex
	failure any // first panic of fn, re-raised on the producing thread
}

// startAhead launches a pipeline running fn over every submitted stage.
func startAhead(fn func(*RecordColumns)) *stageAhead {
	a := &stageAhead{
		fn:   fn,
		work: make(chan aheadItem, 2),
		free: make(chan *RecordColumns, 2),
		done: make(chan struct{}),
	}
	a.free <- getCols()
	a.free <- getCols()
	go a.run()
	return a
}

// run is the background goroutine: run fn over each stage in arrival order
// and recycle it to the free list. A panic (a spill-file failure, a
// consumer's) is captured and re-raised on the producing thread by check;
// later stages are skipped, not processed against broken state.
func (a *stageAhead) run() {
	defer close(a.done)
	for item := range a.work {
		if item.st == nil {
			close(item.ack)
			continue
		}
		a.process(item.st)
		item.st.N = 0
		a.free <- item.st
	}
}

func (a *stageAhead) process(st *RecordColumns) {
	defer func() {
		if p := recover(); p != nil {
			a.mu.Lock()
			if a.failure == nil {
				a.failure = p
			}
			a.mu.Unlock()
		}
	}()
	if a.failed() == nil {
		a.fn(st)
	}
}

func (a *stageAhead) failed() any {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.failure
}

// check re-raises a captured panic on the calling goroutine.
func (a *stageAhead) check() {
	if p := a.failed(); p != nil {
		panic(p)
	}
}

// submit queues a filled stage.
func (a *stageAhead) submit(st *RecordColumns) { a.work <- aheadItem{st: st} }

// acquire returns a free stage to keep filling, counting a stall in stalls
// (when non-nil) when none is immediately available.
func (a *stageAhead) acquire(stalls *atomic.Int64) *RecordColumns {
	select {
	case st := <-a.free:
		return st
	default:
	}
	if stalls != nil {
		stalls.Add(1)
	}
	return <-a.free
}

// drain blocks until everything submitted so far has been processed (the
// channel round-trip is the happens-before edge for reading what fn wrote)
// and re-raises a captured panic.
func (a *stageAhead) drain() {
	ack := make(chan struct{})
	a.work <- aheadItem{ack: ack}
	<-ack
	a.check()
}

// stop processes everything queued, terminates the goroutine, returns the
// pooled stages and reports the captured panic, if any.
func (a *stageAhead) stop() (failure any) {
	close(a.work)
	<-a.done
	for {
		select {
		case st := <-a.free:
			putCols(st)
		default:
			return a.failed()
		}
	}
}
