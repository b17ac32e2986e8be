package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// dist summarizes one metric's samples within a run: the reported
// value, the quartiles around it, and how many samples they rest on.
type dist struct {
	Value float64
	Q1    float64
	Q3    float64
	N     int
}

// quantile is the linear-interpolation quantile (p in [0,1]) of sorted
// xs; 0 for no samples.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := p * float64(n-1)
	i := int(math.Floor(pos))
	if i >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(i)
	return sorted[i] + frac*(sorted[i+1]-sorted[i])
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile reports the p-quantile of xs with the quartiles of xs.
func percentile(xs []float64, p float64) dist {
	s := sorted(xs)
	return dist{Value: quantile(s, p), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
}

// median reports the median of xs with its quartiles.
func median(xs []float64) dist { return percentile(xs, 0.5) }

// typical reduces one group's samples to the figure that stands for it.
type typical func(xs []float64) float64

func medianOf(xs []float64) float64 { return median(xs).Value }

// fastest is a group's smallest sample. Interference from other work on
// the host only ever adds time, so a job's fastest pass is its time on
// a quiet host, and it repeats from run to run where the median follows
// the host's load.
func fastest(xs []float64) float64 { return sorted(xs)[0] }

// groupTypicals is each non-empty group reduced by t.
func groupTypicals(groups [][]float64, t typical) []float64 {
	var out []float64
	for _, xs := range groups {
		if len(xs) > 0 {
			out = append(out, t(xs))
		}
	}
	return out
}

// across is the p-quantile over the groups' typical samples, reported
// with the number of samples behind them. A group is a suite job or a
// daemon program: reducing it first filters slowdowns that hit a few of
// its samples, and a quantile over groups cannot jump between groups of
// different sizes when the samples, or the mix a seed draws, shift.
func across(groups [][]float64, p float64, t typical) dist {
	d := percentile(groupTypicals(groups, t), p)
	d.N = 0
	for _, xs := range groups {
		d.N += len(xs)
	}
	return d
}

// best reports the best of xs — the largest if higher is better, else
// the smallest — with the quartiles of xs and n samples behind them.
// Daemon rounds replay the same requests, and interference from other
// work on the host only ever slows a round, so the best round is the
// daemon on a quiet host, as a job's fastest pass is on suite-*.
func best(xs []float64, higher bool, n int) dist {
	s := sorted(xs)
	d := dist{Value: s[0], Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: n}
	if higher {
		d.Value = s[len(s)-1]
	}
	return d
}

// exact reports a value that is not a sample statistic (a count or a
// ratio of sums).
func exact(v float64, n int) dist { return dist{Value: v, Q1: v, Q3: v, N: n} }

// scaled divides every sample by div (ns → µs, say).
func scaled(xs []float64, div float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x / div
	}
	return out
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// peakRSSMB reads the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
