package rl

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/gnn"
)

// TestWarmIterationAllocation bounds what one warm training iteration at the
// ledger's train-replay shape leaves to the garbage collector: the replayed
// graph lives on the workers' tapes, so what remains is the rollouts'
// bookkeeping and, when an episode outgrows its tape, one slab of a quarter
// of it. Before the tape this was 160–220 MB.
func TestWarmIterationAllocation(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a dozen iterations at the train-replay shape")
	}
	tr, src, simCfg := replayShapeTrainer(2, 1)
	for i := 0; i < 6; i++ {
		tr.Iteration(src, simCfg)
	}
	var before, after runtime.MemStats
	for i := 0; i < 6; i++ {
		runtime.ReadMemStats(&before)
		tr.Iteration(src, simCfg)
		runtime.ReadMemStats(&after)
		if mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); mb > 32 {
			t.Errorf("warm iteration %d allocated %.1f MB, want <= 32", i, mb)
		}
	}
}

// TestTapeCapacitySettles trains 50 iterations whose episode lengths vary
// with the curriculum's exponential horizons and follows every worker's
// tape. Capacity never shrinks, and it grows only for an episode near or
// beyond the largest that worker has replayed (measured in stacked node rows
// of the episode's distinct graph observations, which dominate the tape) —
// an episode clearly shorter than one already seen fits in what that one
// left — so capacity tracks the longest episodes, not the number replayed.
func TestTapeCapacitySettles(t *testing.T) {
	if testing.Short() {
		t.Skip("trains 50 iterations")
	}
	tr, src, simCfg := replayShapeTrainer(2, 3)
	tr.Cfg.NoCurriculum = false
	tr.Cfg.MaxHorizon = 4000
	tr.horizon = 2000
	var lastCap, largest [2]int
	var grew [2]int
	minSteps, maxSteps := math.Inf(1), 0.0
	for i := 0; i < 50; i++ {
		st := tr.Iteration(src, simCfg)
		minSteps, maxSteps = math.Min(minSteps, st.MeanSteps), math.Max(maxSteps, st.MeanSteps)
		for w, wk := range tr.eng.workers {
			rows := 0 // the iteration's largest episode on this worker
			for _, ep := range wk.eps {
				rows = max(rows, replayedNodes(ep))
			}
			c := wk.replay.Tape.Cap()
			switch {
			case c < lastCap[w]:
				t.Fatalf("worker %d: tape shrank %d → %d at iteration %d", w, lastCap[w], c, i)
			case c > lastCap[w]:
				grew[w]++
				if 4*rows < 3*largest[w] {
					t.Errorf("worker %d iteration %d: tape grew %d → %d floats for %d node rows, well under the %d already replayed",
						w, i, lastCap[w], c, rows, largest[w])
				}
			}
			lastCap[w], largest[w] = c, max(largest[w], rows)
		}
	}
	if maxSteps < 3*minSteps {
		t.Fatalf("episode lengths barely vary (%.0f–%.0f mean steps): the run does not exercise the claim", minSteps, maxSteps)
	}
	for w, n := range grew {
		// Slabs are at least a quarter of the capacity they join.
		if n > 12 {
			t.Errorf("worker %d: tape grew %d times in 50 iterations", w, n)
		}
		t.Logf("worker %d: %d growths to %.1f MB, largest episode %d node rows", w, n, float64(lastCap[w])*8/(1<<20), largest[w])
	}
}

// What the workers' tapes hold after TestTapeHoldsGradientFrontier's 6
// iterations, in floats: tapeFloatsParent when every layer input was built
// by GatherRows/ConcatCols and every message-passing level copied the
// node-embedding matrix (5.56M before that, when every gradient also stayed
// on the tape until Reset), 2,846,888 once layers read their input rows in
// place and the levels shared one matrix, and tapeFloatsMeasured since the
// arena fills slabs first-fit instead of skipping the tail a request does
// not fit.
const (
	tapeFloatsParent   = 3_975_758
	tapeFloatsMeasured = 2_035_589
)

// TestTapeHoldsGradientFrontier bounds the workers' tapes at the ledger's
// train-replay shape, 10 % over the measurement. A tape holds the replay's
// layer outputs, one node-embedding matrix and a short gradient frontier:
// Backward hands each intermediate gradient back once consumed, and no
// layer input is copied onto it.
func TestTapeHoldsGradientFrontier(t *testing.T) {
	if testing.Short() {
		t.Skip("trains 6 iterations at the train-replay shape")
	}
	tr, src, simCfg := replayShapeTrainer(2, 1)
	for i := 0; i < 6; i++ {
		tr.Iteration(src, simCfg)
	}
	floats := tapeFloats(tr)
	t.Logf("workers' tapes: %d floats (%.1f MB, %.1f %% of the copying replay's)", floats, float64(floats)*8/(1<<20), 100*float64(floats)/tapeFloatsParent)
	if bound := tapeFloatsMeasured * 11 / 10; floats > bound {
		t.Errorf("workers' tapes hold %d floats after 6 iterations, want <= %d", floats, bound)
	}
}

// tapeFloats sums the capacity of every worker's tape, in float64s.
func tapeFloats(tr *Trainer) int {
	n := 0
	for _, w := range tr.eng.workers {
		n += w.replay.Tape.Cap()
	}
	return n
}

// replayedNodes counts the rows of the episode's stacked GNN input: the nodes
// of every distinct graph observation.
func replayedNodes(ep *episode) int {
	seen := map[*gnn.Graph]bool{}
	n := 0
	for k := range ep.steps {
		for _, gr := range ep.steps[k].Graphs {
			if !seen[gr] {
				seen[gr] = true
				n += gr.Feats.Rows
			}
		}
	}
	return n
}

// poisonTape overwrites every float64 of the worker's tape with NaN, one
// element at a time: the first-fit arena cuts each from the first slab with
// room, so Cap requests cover every slab end to end. Race builds' Reset
// poisons what a replay used anyway; this covers plain builds too.
func poisonTape(w *worker) {
	w.replay.Reset()
	tp := &w.replay.Tape
	for i, n := 0, tp.Cap(); i < n; i++ {
		tp.Floats(1)[0] = math.NaN()
	}
	w.replay.Reset()
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestTapePoisonedBetweenReplays is the use-after-Reset check: two trainers
// run the same iterations, and one has every worker's tape overwritten with
// NaN after each iteration and between the episodes of an extra backward
// pass. Everything the trainer reads after a replay — episode.grads, entVals,
// IterStats, the parameters — must be unaffected, which holds only if it was
// copied off the tape and if no replayed buffer is read before it is written.
func TestTapePoisonedBetweenReplays(t *testing.T) {
	newTrainer := func() *Trainer {
		tr, _, _ := replayShapeTrainer(2, 5)
		tr.Cfg.EpisodesPerIter = 4
		return tr
	}
	_, src, simCfg := replayShapeTrainer(2, 5)
	clean, dirty := newTrainer(), newTrainer()
	for it := 0; it < 3; it++ {
		want := clean.Iteration(src, simCfg)
		got := dirty.Iteration(src, simCfg)
		if got != want {
			t.Fatalf("iteration %d: stats %+v with poisoned tapes, %+v without", it, got, want)
		}
		for _, w := range dirty.eng.workers {
			poisonTape(w)
		}
	}
	for i, p := range clean.Agent.Params() {
		if !sameBits(dirty.Agent.Params()[i].Data, p.Data) {
			t.Fatalf("parameter tensor %d differs after training on poisoned tapes", i)
		}
	}
	// Replay the last iteration's episodes once more, poisoning before every
	// one: what a backward leaves on the episode must not depend on the tape
	// it ran on, nor survive on it.
	for wi, cw := range clean.eng.workers {
		dw := dirty.eng.workers[wi]
		for slot, cep := range cw.eps {
			dep := dw.eps[slot]
			if len(cep.steps) == 0 {
				continue
			}
			poisonTape(dw)
			cw.backward(cep, 1.3, 1e-3, 0.05)
			dw.backward(dep, 1.3, 1e-3, 0.05)
			poisonTape(dw)
			if !sameBits(dep.entVals, cep.entVals) {
				t.Fatalf("worker %d episode %d: entVals differ on a poisoned tape", wi, slot)
			}
			for pi := range cep.grads {
				if !sameBits(dep.grads[pi], cep.grads[pi]) {
					t.Fatalf("worker %d episode %d: gradient %d differs on a poisoned tape", wi, slot, pi)
				}
			}
		}
	}
}
