package main

import (
	"fmt"
	"slices"

	"dimm/internal/rrset"
	"dimm/internal/serve"
)

// checkGreedy verifies, with the benchmark's own loop over a gathered
// sample, the tie-agnostic greedy property behind Lemma 2: when each seed
// was chosen its marginal coverage was the largest of any node's. It also
// checks that the seeds cover exactly `coverage` sets.
func checkGreedy(c *rrset.Collection, n int, seeds []uint32, coverage int64) error {
	sets := c.Count()
	gain := make([]int64, n)
	for j := 0; j < sets; j++ {
		for _, v := range c.Set(j) {
			gain[v]++
		}
	}
	start := make([]int64, n+1)
	for v := 0; v < n; v++ {
		start[v+1] = start[v] + gain[v]
	}
	covers := make([]int32, start[n])
	fill := append([]int64(nil), start[:n]...)
	for j := 0; j < sets; j++ {
		for _, v := range c.Set(j) {
			covers[fill[v]] = int32(j)
			fill[v]++
		}
	}
	covered := make([]bool, sets)
	var total int64
	for i, s := range seeds {
		var best int64
		for _, g := range gain {
			best = max(best, g)
		}
		if gain[s] != best {
			return fmt.Errorf("seed %d (node %d) has marginal %d, but the best marginal was %d", i, s, gain[s], best)
		}
		total += gain[s]
		for _, j := range covers[start[s]:start[s+1]] {
			if covered[j] {
				continue
			}
			covered[j] = true
			for _, w := range c.Set(int(j)) {
				gain[w]--
			}
		}
	}
	if total != coverage {
		return fmt.Errorf("seeds cover %d sets, the program reported %d", total, coverage)
	}
	return nil
}

// answerChecks checks each served answer as it arrives, so the benchmark
// keeps no per-answer state that grows with the number of ops (and would
// show in heap_mb). It checks greedy-prefix consistency: within one epoch
// of the resident sample, the answer for k is the first k seeds of the
// answer for any larger k. Checking each answer against the longest one
// seen so far in its epoch checks every pair.
type answerChecks struct {
	theta   int64
	longest map[uint64][]uint32
	last    []*serve.Answer // the latest few answers, kept for simulation
}

func newAnswerChecks(theta int64) *answerChecks {
	return &answerChecks{theta: theta, longest: map[uint64][]uint32{}}
}

func (c *answerChecks) add(r *run, i int64, a *serve.Answer) {
	r.check(a.GrowRounds == 0 && !a.Cached, "request %d: grow_rounds=%d cached=%v", i, a.GrowRounds, a.Cached)
	r.check(a.Theta == c.theta, "request %d: θ=%d, warm θ=%d", i, a.Theta, c.theta)
	short, long := a.Seeds, c.longest[a.Epoch]
	if len(short) > len(long) {
		short, long = long, short
		c.longest[a.Epoch] = a.Seeds
	}
	r.check(slices.Equal(short, long[:len(short)]), "request %d: k=%d answer breaks greedy-prefix consistency in epoch %d", i, a.K, a.Epoch)
	if len(c.last) == spreadChecks {
		c.last = c.last[1:]
	}
	c.last = append(c.last, a)
}
