package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
)

// replayWeights returns arbitrary but fixed REINFORCE weights for n steps.
func replayWeights(n int) (wLogp, wEnt []float64) {
	rng := rand.New(rand.NewSource(17))
	for k := 0; k < n; k++ {
		wLogp, wEnt = append(wLogp, rng.NormFloat64()), append(wEnt, 0.1*rng.Float64())
	}
	return wLogp, wEnt
}

// replayDiverges replays the steps and returns the first one whose rebuilt
// log-probability is not, bit for bit, the one its action was sampled with,
// or whose entropy is not that of the sampled-from node distribution.
func replayDiverges(a *Agent, steps []ReplayStep, entropies []float64) (int, bool) {
	wLogp, wEnt := replayWeights(len(steps))
	_, vals := a.ReplayLoss(nil, steps, wLogp, wEnt)
	for k, v := range vals {
		if math.Float64bits(v.LogProb) != math.Float64bits(steps[k].LogProb) || math.Abs(v.Entropy-entropies[k]) > 1e-12 {
			return k, true
		}
	}
	return 0, false
}

// TestReplayEquivalence is the bar that licenses two model paths: over a
// noisy sampled run of every ablation, the batched tracked replay rebuilds at
// every step exactly the log-probability the inference path sampled the
// action with, and the entropy of the distribution it sampled from. The
// negative control nudges one weight between rollout and replay, which the
// same comparison must catch.
func TestReplayEquivalence(t *testing.T) {
	for ai, ab := range ablations {
		agent, steps, entropies := recordedRun(t, ai, nil)
		if k, bad := replayDiverges(agent, steps, entropies); bad {
			t.Fatalf("%s step %d: the replay does not rebuild the decision the rollout made", ab.name, k)
		}
		agent.Pol.Q.Params()[0].Data[0] += 1e-3
		if _, bad := replayDiverges(agent, steps, entropies); !bad {
			t.Fatalf("%s: negative control: a nudged weight went unnoticed", ab.name)
		}
	}
}

// TestReplayLossGradcheck pins the replay's gradient — what training steps on
// — to central finite differences of Agent.ReplayLoss, on two elements of
// every parameter tensor of every ablation.
func TestReplayLossGradcheck(t *testing.T) {
	for ai, ab := range ablations {
		agent, steps, _ := recordedRun(t, ai, nil)
		steps = steps[:20]
		wLogp, wEnt := replayWeights(len(steps))
		loss := func() float64 {
			l, _ := agent.ReplayLoss(nil, steps, wLogp, wEnt)
			return l.Value()
		}
		l, _ := agent.ReplayLoss(nil, steps, wLogp, wEnt)
		l.Backward(1)
		for pi, p := range agent.Params() {
			for _, i := range []int{0, len(p.Data) / 2} {
				const h = 1e-6
				orig := p.Data[i]
				p.Data[i] = orig + h
				up := loss()
				p.Data[i] = orig - h
				down := loss()
				p.Data[i] = orig
				var got float64
				if p.Grad != nil {
					got = p.Grad[i]
				}
				if want := (up - down) / (2 * h); math.Abs(got-want) > 1e-4*(1+math.Abs(want)) {
					t.Fatalf("%s param %d[%d]: gradient %v, finite difference %v", ab.name, pi, i, got, want)
				}
			}
		}
	}
}

// replayOnce replays steps on rs (nil: the heap), runs the backward pass and
// returns copies of everything a caller may keep: the loss value, the
// per-step values and every parameter gradient.
func replayOnce(a *Agent, rs *ReplayScratch, steps []ReplayStep) (float64, []float64, [][]float64) {
	wLogp, wEnt := replayWeights(len(steps))
	nn.ZeroGrads(a.Params())
	loss, vals := a.ReplayLoss(rs, steps, wLogp, wEnt)
	loss.Backward(1)
	var sv []float64
	for _, v := range vals {
		sv = append(sv, v.LogProb, v.Entropy)
	}
	return loss.Value(), sv, nn.CloneGrads(a.Params())
}

// poison overwrites every float64 of the scratch's tape with NaN, one
// element at a time, which first fit lays end to end over every slab:
// whatever a later replay (or a caller holding on to a result) reads without
// having written it shows.
func poison(rs *ReplayScratch) {
	rs.Reset()
	tp := &rs.Tape
	for i, n := 0, tp.Cap(); i < n; i++ {
		tp.Floats(1)[0] = math.NaN()
	}
	rs.Reset()
}

// TestReplayScratchReuse replays every ablation's episode on one recycled
// ReplayScratch — the full episode, shorter prefixes, the full episode again,
// the tape poisoned with NaN between replays — and requires the loss, every
// step's values and every parameter gradient to match the heap replay bit
// for bit, with the tape's capacity flat once the longest episode has run.
func TestReplayScratchReuse(t *testing.T) {
	for ai, ab := range ablations {
		agent, steps, _ := recordedRun(t, ai, nil)
		var rs ReplayScratch
		var capAfterLongest int
		for round, n := range []int{len(steps), len(steps) / 3, 1, len(steps) / 2, len(steps)} {
			wantLoss, wantVals, wantGrads := replayOnce(agent, nil, steps[:n])
			gotLoss, gotVals, gotGrads := replayOnce(agent, &rs, steps[:n])
			poison(&rs) // what was copied out must not care
			if math.Float64bits(gotLoss) != math.Float64bits(wantLoss) {
				t.Fatalf("%s round %d: loss %v on the scratch, %v on the heap", ab.name, round, gotLoss, wantLoss)
			}
			for i := range wantVals {
				if math.Float64bits(gotVals[i]) != math.Float64bits(wantVals[i]) {
					t.Fatalf("%s round %d: step value %d differs: %v vs %v", ab.name, round, i, gotVals[i], wantVals[i])
				}
			}
			for pi := range wantGrads {
				for i := range wantGrads[pi] {
					if math.Float64bits(gotGrads[pi][i]) != math.Float64bits(wantGrads[pi][i]) {
						t.Fatalf("%s round %d: gradient %d[%d] differs: %v vs %v", ab.name, round, pi, i, gotGrads[pi][i], wantGrads[pi][i])
					}
				}
			}
			if round == 0 {
				capAfterLongest = rs.Tape.Cap()
			} else if c := rs.Tape.Cap(); c != capAfterLongest {
				t.Fatalf("%s round %d: tape capacity moved %d → %d after the longest episode", ab.name, round, capAfterLongest, c)
			}
		}
	}
}
