package rl

import "math"

// perturbOneRecordedLogProb makes every following Iteration flip the lowest
// mantissa bit of one recorded log-probability — the first step of the first
// episode that has one — before the replay, so the iteration's
// LogProbMismatches must read exactly 1. The returned func removes the hook.
func perturbOneRecordedLogProb() (restore func()) {
	testHookCollected = func(eps []*episode) {
		for _, ep := range eps {
			if len(ep.steps) > 0 {
				lp := &ep.steps[0].LogProb
				*lp = math.Float64frombits(math.Float64bits(*lp) ^ 1)
				return
			}
		}
	}
	return func() { testHookCollected = nil }
}
