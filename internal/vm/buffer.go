package vm

// ValueBuffer batches the result values of one instrumented site so
// the run loop can record an observation with a couple of array stores
// instead of a closure call per execution. The analysis side registers
// a ValueSink and receives values in execution order, in batches of at
// most ValueBufCap; the batching is invisible to the analysis as long
// as it only needs the value stream (tools that must act at the exact
// instruction — checkpointers, fault injectors — keep using Hook).
//
// Buffers do not flush themselves at program end. The owning profiler
// must call Flush before reading any state derived from the stream
// (profile extraction, checkpointing, merging), including when a run
// is cancelled and the partial profile is salvaged.

// ValueBufCap is the batch size. Small enough that a flush stays in
// cache, large enough to amortize the flush call.
const ValueBufCap = 64

// ValueSink consumes one site's observed values in execution order.
// The slice passed to ObserveBatch is only valid during the call.
type ValueSink interface {
	ObserveBatch(vals []int64)
}

// funcSink adapts a plain flush function to ValueSink.
type funcSink func([]int64)

func (f funcSink) ObserveBatch(vals []int64) { f(vals) }

// ValueBuffer is a fixed-size batch of observed values. Not safe for
// concurrent use; one buffer belongs to one VM's run loop.
type ValueBuffer struct {
	n    int
	vals [ValueBufCap]int64
	sink ValueSink
}

// NewValueBuffer creates a buffer that delivers batches to flush. The
// slice passed to flush is only valid during the call.
func NewValueBuffer(flush func([]int64)) *ValueBuffer {
	return &ValueBuffer{sink: funcSink(flush)}
}

// NewValueBufferSink creates a buffer that delivers batches to sink.
// Passing a concrete sink (e.g. a *core.SiteStats) avoids the per-site
// closure allocation of NewValueBuffer.
func NewValueBufferSink(sink ValueSink) *ValueBuffer {
	return &ValueBuffer{sink: sink}
}

// Reset discards any pending values and re-targets the buffer at sink,
// making a recycled buffer indistinguishable from a fresh one. Callers
// that must not lose buffered values flush first.
func (b *ValueBuffer) Reset(sink ValueSink) {
	b.n = 0
	b.sink = sink
}

// push appends one value and hands a full buffer to the sink. It is
// small enough to inline into the run loop, where a buffered site then
// costs two stores and a compare; the delivery itself stays out of
// line in Flush.
func (b *ValueBuffer) push(v int64) {
	b.vals[b.n] = v
	b.n++
	if b.n == ValueBufCap {
		b.Flush()
	}
}

// Pending returns the number of buffered, not yet flushed values.
func (b *ValueBuffer) Pending() int { return b.n }

// Flush delivers any buffered values to the sink. It is idempotent; an
// empty buffer does not invoke the sink. It is kept out of line so that
// push, which calls it on a full buffer, stays inlinable.
//
//go:noinline
func (b *ValueBuffer) Flush() {
	if b.n > 0 {
		b.sink.ObserveBatch(b.vals[:b.n])
		b.n = 0
	}
}

// HookAfterBuffered attaches b as the buffered after-sink of
// instruction pc. The run loop pushes the instruction's result value
// into b instead of building an Event and walking a hook slice; each
// push counts as one analysis call (and costs AnalysisCallCycles when
// ChargeHooks is set), matching the closure-based path's accounting.
// At most one buffer may be attached per pc; the buffered sink runs
// before any HookAfter hooks at the same pc.
func (v *VM) HookAfterBuffered(pc int, b *ValueBuffer) {
	v.ensureHookState()
	if v.bufs == nil || len(v.bufs) != len(v.Prog.Code) {
		v.bufs = growClear(v.bufs, len(v.Prog.Code))
	}
	if v.bufs[pc] != nil && v.bufs[pc] != b {
		panic("vm: conflicting buffered hook at pc")
	}
	v.bufs[pc] = b
	v.hookBits[pc] |= hookBufBit
}

// growClear returns a zeroed slice of length n, reusing s's backing
// array when it is large enough. The reuse keeps per-run hook-state
// reallocation off reused VMs (see ResetFor).
func growClear[T int64 | uint8 | *ValueBuffer](s []T, n int) []T {
	var zero T
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = zero
	}
	return s
}
