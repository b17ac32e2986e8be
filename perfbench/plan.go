package main

import (
	"fmt"
	"math/rand"

	"valueprof/internal/core"
	"valueprof/internal/serve"
)

// The daemon-mixed request plan. Each caller gets its own sequence,
// drawn from the seed before the run starts, so whether a request
// hits the cache is fixed by the seed: a caller resubmits only jobs it
// has itself completed, and every fresh input is unique across both
// callers (the cache key ignores the tenant).

type reqKind int

const (
	kindFresh  reqKind = iota // new single-input job: a miss
	kindRepeat                // exact resubmission of a completed job: a hit
	kindPair                  // cached sub-run + new input: a miss that merges
)

func (k reqKind) String() string { return [...]string{"fresh", "repeat", "pair"}[k] }

// Profiler configurations of the mix.
const (
	cfgDefault = iota
	cfgLoads
	cfgConvergent
)

const callers = 2

// request is one planned submission.
type request struct {
	kind   reqKind
	prog   int // index into the program list
	cfg    int
	inputs [][]int64
}

// Each caller deals its request kinds, programs and configurations from
// decks (see deck), so every stretch of a plan holds them in close to
// their shares whatever the seed: 9 fresh, 7 repeat and 4 pair requests
// in 20, every program equally often among fresh and pair requests and
// again among repeats, and configs 14 default, 3 loads and 3 convergent
// in 20. Drawn independently, the shares moved miss latency by a
// quarter from seed to seed.
var (
	kindDeck = []int{
		int(kindFresh), int(kindFresh), int(kindFresh), int(kindFresh), int(kindFresh),
		int(kindFresh), int(kindFresh), int(kindFresh), int(kindFresh),
		int(kindRepeat), int(kindRepeat), int(kindRepeat), int(kindRepeat),
		int(kindRepeat), int(kindRepeat), int(kindRepeat),
		int(kindPair), int(kindPair), int(kindPair), int(kindPair),
	}
	cfgDeck = []int{
		cfgDefault, cfgDefault, cfgDefault, cfgDefault, cfgDefault, cfgDefault, cfgDefault,
		cfgDefault, cfgDefault, cfgDefault, cfgDefault, cfgDefault, cfgDefault, cfgDefault,
		cfgLoads, cfgLoads, cfgLoads,
		cfgConvergent, cfgConvergent, cfgConvergent,
	}
)

// deck deals its cards in a fresh shuffle each time it runs out.
type deck struct {
	rng   *rand.Rand
	cards []int
	left  []int
}

func (d *deck) next() int {
	if len(d.left) == 0 {
		d.left = make([]int, len(d.cards))
		for i, j := range d.rng.Perm(len(d.cards)) {
			d.left[i] = d.cards[j]
		}
	}
	c := d.left[0]
	d.left = d.left[1:]
	return c
}

// makePlan draws each caller's sequence of n requests. baseArgs[i] is
// program i's test input; fresh inputs redraw its first argument (the
// program's PRNG seed). A repeat resubmits a job of the program dealt
// that the caller completed (any completed job while it has none); a
// pair joins a completed single-input job of the program dealt with a
// new input, and is fresh instead while the caller has none.
func makePlan(seed int64, baseArgs [][]int64, n int) [][]request {
	used := map[[2]int64]bool{}
	freshInput := func(rng *rand.Rand, prog int) []int64 {
		args := append([]int64(nil), baseArgs[prog]...)
		for {
			args[0] = 1 + rng.Int63n(1<<31-1)
			if k := [2]int64{int64(prog), args[0]}; !used[k] {
				used[k] = true
				return args
			}
		}
	}
	progCards := make([]int, len(baseArgs))
	for i := range progCards {
		progCards[i] = i
	}
	pick := func(rng *rand.Rand, idx []int) int { return idx[rng.Intn(len(idx))] }
	plan := make([][]request, callers)
	for c := range plan {
		rng := rand.New(rand.NewSource(seed*1_000_033 + int64(c)))
		kinds := &deck{rng: rng, cards: kindDeck}
		progs := &deck{rng: rng, cards: progCards}
		repeats := &deck{rng: rng, cards: progCards}
		cfgs := &deck{rng: rng, cards: cfgDeck}
		var completed []int        // indices into plan[c]
		done := map[int][]int{}    // program -> its completed jobs
		singles := map[int][]int{} // program -> its single-input jobs
		reqs := make([]request, 0, n)
		for k := 0; k < n; k++ {
			kind := reqKind(kinds.next())
			if kind == kindRepeat && len(completed) == 0 {
				kind = kindFresh
			}
			var r request
			switch kind {
			case kindRepeat:
				from := done[repeats.next()]
				if len(from) == 0 {
					from = completed
				}
				r = reqs[pick(rng, from)]
				r.kind = kindRepeat
			default:
				prog := progs.next()
				if bases := singles[prog]; kind == kindPair && len(bases) > 0 {
					base := reqs[pick(rng, bases)]
					r = request{kind: kindPair, prog: prog, cfg: base.cfg,
						inputs: [][]int64{base.inputs[0], freshInput(rng, prog)}}
				} else {
					r = request{kind: kindFresh, prog: prog, cfg: cfgs.next(),
						inputs: [][]int64{freshInput(rng, prog)}}
					singles[prog] = append(singles[prog], k)
				}
				completed = append(completed, k)
				done[prog] = append(done[prog], k)
			}
			reqs = append(reqs, r)
		}
		plan[c] = reqs
	}
	return plan
}

// wireConfig is the submitted form of a configuration.
func wireConfig(cfg int) serve.JobConfig {
	switch cfg {
	case cfgLoads:
		return serve.JobConfig{Filter: "loads"}
	case cfgConvergent:
		c := core.DefaultConvergentConfig()
		return serve.JobConfig{Convergent: &serve.WireConvergent{
			BurstLen: c.BurstLen, InitialSkip: c.InitialSkip, MaxSkip: c.MaxSkip, Epsilon: c.Epsilon}}
	}
	return serve.JobConfig{}
}

// directOptions is the profiler configuration a direct run uses to
// reproduce a job of configuration cfg.
func directOptions(cfg int) core.Options {
	o := core.DefaultOptions()
	switch cfg {
	case cfgLoads:
		o.Filter = core.LoadsOnly
	case cfgConvergent:
		c := core.DefaultConvergentConfig()
		o.Convergent = &c
	}
	return o
}

// inputKey identifies one single-input sub-run of the plan.
type inputKey struct {
	prog, cfg int
	seed      int64 // the input's redrawn first argument
}

func keyOf(r request, i int) inputKey { return inputKey{r.prog, r.cfg, r.inputs[i][0]} }

func (k inputKey) String() string { return fmt.Sprintf("p%d/c%d/s%d", k.prog, k.cfg, k.seed) }
