// The arena: reuse of per-job execution state through two free lists.
// An N-job cross-product used to allocate a fresh VM (8 MiB memory
// image, hook-bit/buffer tables) and a fresh profiler (site maps,
// value buffers) per job; the arena recycles both through the explicit
// ResetFor lifecycles of vm.VM and core.ValueProfiler, so
// steady-state pool throughput stops paying the allocator. Reused
// instances are observably identical to fresh ones — byte identity of
// profiles is pinned by internal/difftest's fresh-vs-reused property
// and by the suite's byte identity across pool widths
// (parallel_test.go).
//
// A free list is a mutex and a LIFO slice shared by every goroutine.
// Unlike a sync.Pool, which parks an instance in the releasing P's
// private slot and drops what it holds after two collections, any
// goroutine can take what another released and the collector never
// empties it, so a warm arena builds nothing. A list holds no more
// instances than were ever held at once, which every caller's worker
// count bounds. A VM whose memory outgrew vm.DefaultMemSize is never
// parked, and a parked profiler holds no site of its last job.
//
// This file is the only place in the package allowed to allocate
// per-job VM state, and with RunJob's file the only place a VM is
// acquired (internal/lint enforces both): job bodies go through
// Acquire/Release so the optimization cannot silently regress.
package parallel

import (
	"sync"

	"valueprof/internal/core"
	"valueprof/internal/program"
	"valueprof/internal/vm"
)

// freeList is a LIFO stack of parked instances behind one mutex.
type freeList[T any] struct {
	mu    sync.Mutex
	items []T
}

// get pops the instance parked last, if any.
func (l *freeList[T]) get() (x T, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.items)
	if n == 0 {
		return x, false
	}
	x = l.items[n-1]
	var zero T
	l.items[n-1] = zero
	l.items = l.items[:n-1]
	return x, true
}

// put parks x.
func (l *freeList[T]) put(x T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.items = append(l.items, x)
}

// vms and profs are the arena: the process-wide free lists behind
// RunJob and the exported Acquire/Release functions.
var (
	vms   freeList[*vm.VM]
	profs freeList[*core.ValueProfiler]
)

// AcquireVM returns a VM in the initial state for prog with memSize
// bytes of guest memory — a recycled instance rewound with ResetFor
// when one is parked, a fresh one otherwise.
func AcquireVM(prog *program.Program, memSize int) *vm.VM {
	if v, ok := vms.get(); ok {
		v.ResetFor(prog, memSize)
		return v
	}
	return vm.NewSized(prog, memSize)
}

// ReleaseVM parks v for reuse. The caller must have copied out every
// result it needs (vm.ResultOf copies); instrumentation is stripped
// immediately so a parked VM does not retain the job's profiler. A VM
// whose memory is larger than vm.DefaultMemSize is not parked.
func ReleaseVM(v *vm.VM) {
	if v == nil {
		return
	}
	v.ClearHooks()
	v.Input = nil
	if cap(v.Mem) <= vm.DefaultMemSize {
		vms.put(v)
	}
}

// AcquireProfiler returns a profiler for opts — a recycled instance
// rewound with ResetFor when one is parked, a fresh one otherwise.
func AcquireProfiler(opts core.Options) (*core.ValueProfiler, error) {
	if p, ok := profs.get(); ok {
		if err := p.ResetFor(opts); err != nil {
			profs.put(p)
			return nil, err
		}
		return p, nil
	}
	return core.NewValueProfiler(opts)
}

// ReleaseProfiler parks p for reuse. The caller must have extracted
// its Profile first; the profile's sites stay valid (Park drops the
// profiler's references to them rather than recycling them), and a
// parked profiler no longer keeps them alive.
func ReleaseProfiler(p *core.ValueProfiler) {
	if p == nil {
		return
	}
	p.Park()
	profs.put(p)
}
