package core

import (
	"fmt"
	"math"
)

// ConvergentConfig parameterizes the paper's intelligent sampler.
//
// Each site is profiled in bursts of BurstLen executions. At the end of
// a burst the sampler checkpoints the site's cumulative Inv-Top(1); if
// it moved by less than Epsilon since the previous checkpoint the site
// has "converged" and the following skip period doubles (up to
// MaxSkip). If the invariance drifted by Epsilon or more, the site is
// re-armed and the skip period resets to InitialSkip. This is the
// thesis's convergence criterion "based upon a change in invariance".
type ConvergentConfig struct {
	BurstLen    uint64  // executions profiled per burst
	InitialSkip uint64  // skip length after the first convergence
	MaxSkip     uint64  // backoff cap
	Epsilon     float64 // invariance delta below which the site converged
}

// DefaultConvergentConfig returns the baseline sampler used in the
// experiments: 1000-execution bursts, skips doubling from 4000 to
// 256000, 2% convergence criterion.
func DefaultConvergentConfig() ConvergentConfig {
	return ConvergentConfig{BurstLen: 1000, InitialSkip: 4000, MaxSkip: 256000, Epsilon: 0.02}
}

// Validate reports whether the configuration is usable: a positive
// burst, a positive initial skip no larger than the cap, and a
// convergence criterion strictly inside (0,1). Profiler Options and
// NewConvergentFactory call this; exported so tools accepting sampler
// parameters from flags or config files can reject them up front.
func (c *ConvergentConfig) Validate() error {
	if c.BurstLen == 0 {
		return fmt.Errorf("core: convergent BurstLen must be positive")
	}
	if c.InitialSkip == 0 {
		return fmt.Errorf("core: convergent InitialSkip must be positive")
	}
	if c.MaxSkip < c.InitialSkip {
		return fmt.Errorf("core: convergent MaxSkip %d < InitialSkip %d", c.MaxSkip, c.InitialSkip)
	}
	if c.Epsilon <= 0 || c.Epsilon >= 1 {
		return fmt.Errorf("core: convergent Epsilon %v out of (0,1)", c.Epsilon)
	}
	return nil
}

// convState is the per-site sampler state machine.
type convState struct {
	cfg       *ConvergentConfig
	profiling bool
	remaining uint64 // executions left in the current burst or skip
	skip      uint64 // current skip length
	lastInv   float64
	hasCkpt   bool
	// Checkpoints counts convergence checks, for diagnostics.
	checkpoints uint64
}

func newConvState(cfg *ConvergentConfig) *convState {
	return &convState{cfg: cfg, profiling: true, remaining: cfg.BurstLen}
}

// checkpoint runs at the end of a burst, before the burst's final
// value is observed: it compares the site's cumulative invariance with
// the previous checkpoint and picks the next phase.
func (c *convState) checkpoint(site *SiteStats) {
	c.checkpoints++
	inv := site.InvTop(1)
	converged := c.hasCkpt && math.Abs(inv-c.lastInv) < c.cfg.Epsilon
	c.lastInv = inv
	c.hasCkpt = true
	if !converged {
		// Not converged (or first checkpoint): profile continuously
		// until the invariance settles, and reset the backoff so a
		// phase change is watched closely again.
		c.skip = 0
		c.profiling = true
		c.remaining = c.cfg.BurstLen
		return
	}
	if c.skip == 0 {
		c.skip = c.cfg.InitialSkip
	} else {
		c.skip *= 2
		if c.skip > c.cfg.MaxSkip {
			c.skip = c.cfg.MaxSkip
		}
	}
	c.profiling = false
	c.remaining = c.skip
}
