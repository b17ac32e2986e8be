package parallel

import (
	"runtime"
	"sync"
	"testing"

	"valueprof/internal/asm"
	"valueprof/internal/atom"
	"valueprof/internal/core"
	"valueprof/internal/program"
	"valueprof/internal/vm"
)

func exitProg(t *testing.T) *program.Program {
	t.Helper()
	prog, err := asm.Assemble("main: syscall exit\n")
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// drain empties a free list, leaving what it held to the collector.
func drain[T any](l *freeList[T]) {
	l.mu.Lock()
	defer l.mu.Unlock()
	clear(l.items)
	l.items = l.items[:0]
}

func parked[T any](l *freeList[T]) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.items)
}

// A released VM and profiler stay parked through collections, and a
// job on another goroutine gets them back: a warm arena builds
// nothing.
func TestArenaReuseSurvivesCollections(t *testing.T) {
	prog := exitProg(t)
	v := AcquireVM(prog, vm.DefaultMemSize)
	p, err := AcquireProfiler(core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ReleaseVM(v)
	ReleaseProfiler(p)
	runtime.GC()
	runtime.GC()
	type got struct {
		v   *vm.VM
		p   *core.ValueProfiler
		err error
	}
	ch := make(chan got)
	go func() {
		v := AcquireVM(prog, vm.DefaultMemSize)
		p, err := AcquireProfiler(core.DefaultOptions())
		ch <- got{v, p, err}
	}()
	g := <-ch
	if g.err != nil {
		t.Fatal(g.err)
	}
	defer ReleaseVM(g.v)
	defer ReleaseProfiler(g.p)
	if g.v != v {
		t.Error("after two collections AcquireVM built a fresh VM instead of the parked one")
	}
	if g.p != p {
		t.Error("after two collections AcquireProfiler built a fresh profiler instead of the parked one")
	}
}

// A list parks every instance released to it, however many holders
// outnumber GOMAXPROCS (vprofd's two default workers on one CPU), so
// they all get theirs back; a VM whose memory outgrew the default is
// left to the collector.
func TestArenaBounds(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	drain(&vms)
	drain(&profs)
	prog := exitProg(t)
	const small = 1 << 16
	const holders = 3
	released := map[any]bool{}
	var vs []*vm.VM
	var ps []*core.ValueProfiler
	for i := 0; i < holders; i++ {
		vs = append(vs, AcquireVM(prog, small))
		p, err := AcquireProfiler(core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	for i := range vs {
		ReleaseVM(vs[i])
		ReleaseProfiler(ps[i])
		released[vs[i]] = true
		released[ps[i]] = true
	}
	if n := parked(&vms); n != holders {
		t.Errorf("%d VMs parked after releasing %d at GOMAXPROCS 1, want %d", n, holders, holders)
	}
	if n := parked(&profs); n != holders {
		t.Errorf("%d profilers parked after releasing %d at GOMAXPROCS 1, want %d", n, holders, holders)
	}
	for i := 0; i < holders; i++ {
		v := AcquireVM(prog, small)
		p, err := AcquireProfiler(core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if !released[v] || !released[p] {
			t.Errorf("holder %d of %d got a fresh instance instead of a parked one", i+1, holders)
		}
		defer ReleaseVM(v)
		defer ReleaseProfiler(p)
	}

	big := AcquireVM(prog, 2*vm.DefaultMemSize)
	if len(big.Mem) != 2*vm.DefaultMemSize {
		t.Fatalf("acquired %d bytes of memory, want %d", len(big.Mem), 2*vm.DefaultMemSize)
	}
	ReleaseVM(big)
	if n := parked(&vms); n != 0 {
		t.Errorf("%d VMs parked after releasing one of %d bytes, want 0", n, 2*vm.DefaultMemSize)
	}
}

// A parked profiler holds no site of its last job: the sites belong
// to the profile that escaped, and parking must not keep them alive.
func TestReleasedProfilerDropsSites(t *testing.T) {
	prog, err := asm.Assemble("main: li t0, 7\n addi t0, t0, 1\n syscall exit\n")
	if err != nil {
		t.Fatal(err)
	}
	p, err := AcquireProfiler(core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := atom.Run(prog, nil, false, p); err != nil {
		t.Fatal(err)
	}
	if n := len(p.Profile().Sites); n == 0 {
		t.Fatal("the job profiled no site")
	}
	ReleaseProfiler(p)
	if n := len(p.Profile().Sites); n != 0 {
		t.Errorf("a released profiler still holds %d sites of its last job", n)
	}
}

// Jobs on several goroutines share the arena: an instance is handed to
// one holder at a time.
func TestArenaConcurrentHoldersDisjoint(t *testing.T) {
	prog := exitProg(t)
	var mu sync.Mutex
	held := map[any]bool{}
	hold := func(x any) bool {
		mu.Lock()
		defer mu.Unlock()
		if held[x] {
			return false
		}
		held[x] = true
		return true
	}
	drop := func(x any) {
		mu.Lock()
		defer mu.Unlock()
		delete(held, x)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				v := AcquireVM(prog, 1<<16)
				p, err := AcquireProfiler(core.DefaultOptions())
				if err != nil {
					t.Error(err)
					return
				}
				if !hold(v) || !hold(p) {
					t.Error("an instance was handed to two holders at once")
					return
				}
				drop(v)
				drop(p)
				ReleaseVM(v)
				ReleaseProfiler(p)
			}
		}()
	}
	wg.Wait()
}
