// Arena: sync.Pool-backed reuse of per-job execution state. An N-job
// cross-product used to allocate a fresh VM (8 MiB memory image,
// hook-bit/buffer tables) and a fresh profiler (site maps,
// value buffers) per job; the arena recycles both through the explicit
// ResetFor lifecycles of vm.VM and core.ValueProfiler, so steady-state
// pool throughput stops paying the allocator. Reused instances are
// observably identical to fresh ones — byte identity of profiles is
// pinned by internal/difftest's fresh-vs-reused property and by the
// suite's byte identity across pool widths (parallel_test.go).
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

// Arena recycles per-job VMs and profilers. The zero value is ready to
// use.
type Arena struct {
	vms   sync.Pool // *vm.VM
	profs sync.Pool // *core.ValueProfiler
}

// shared is the package-wide arena behind RunJob and the exported
// Acquire/Release helpers.
var shared Arena

// AcquireVM returns a VM in the initial state for prog with memSize
// bytes of guest memory — a recycled instance rewound with ResetFor
// when one is pooled, a fresh one otherwise.
func (a *Arena) AcquireVM(prog *program.Program, memSize int) *vm.VM {
	if v, ok := a.vms.Get().(*vm.VM); ok {
		v.ResetFor(prog, memSize)
		return v
	}
	return vm.NewSized(prog, memSize)
}

// ReleaseVM parks v for reuse. The caller must have copied out every
// result it needs (vm.ResultOf copies); instrumentation is stripped
// immediately so a pooled VM does not retain the job's profiler.
func (a *Arena) ReleaseVM(v *vm.VM) {
	if v == nil {
		return
	}
	v.ClearHooks()
	v.Input = nil
	a.vms.Put(v)
}

// AcquireProfiler returns a profiler for opts — a recycled instance
// rewound with ResetFor when one is pooled, a fresh one otherwise.
func (a *Arena) AcquireProfiler(opts core.Options) (*core.ValueProfiler, error) {
	if p, ok := a.profs.Get().(*core.ValueProfiler); ok {
		if err := p.ResetFor(opts); err != nil {
			a.profs.Put(p)
			return nil, err
		}
		return p, nil
	}
	return core.NewValueProfiler(opts)
}

// ReleaseProfiler parks p for reuse. The caller must have extracted
// its Profile first; the profile's sites stay valid (ResetFor on the
// next acquisition abandons rather than recycles them).
func (a *Arena) ReleaseProfiler(p *core.ValueProfiler) {
	if p == nil {
		return
	}
	a.profs.Put(p)
}

// AcquireVM acquires from the shared package arena.
func AcquireVM(prog *program.Program, memSize int) *vm.VM {
	return shared.AcquireVM(prog, memSize)
}

// ReleaseVM releases into the shared package arena.
func ReleaseVM(v *vm.VM) { shared.ReleaseVM(v) }

// AcquireProfiler acquires from the shared package arena.
func AcquireProfiler(opts core.Options) (*core.ValueProfiler, error) {
	return shared.AcquireProfiler(opts)
}

// ReleaseProfiler releases into the shared package arena.
func ReleaseProfiler(p *core.ValueProfiler) { shared.ReleaseProfiler(p) }
