package dag

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// diamond builds the classic 4-stage diamond: 0 → {1,2} → 3.
func diamond() *Job {
	j := &Job{Name: "diamond"}
	for i := 0; i < 4; i++ {
		j.Stages = append(j.Stages, &Stage{ID: i, NumTasks: i + 1, TaskDuration: 2, CPUReq: 1})
	}
	j.AddEdge(0, 1)
	j.AddEdge(0, 2)
	j.AddEdge(1, 3)
	j.AddEdge(2, 3)
	return j
}

func TestValidateDiamond(t *testing.T) {
	j := diamond()
	if err := j.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateDetectsCycle(t *testing.T) {
	j := diamond()
	j.AddEdge(3, 0)
	if err := j.Validate(); err == nil {
		t.Fatal("cycle not detected")
	}
}

func TestValidateDetectsAsymmetry(t *testing.T) {
	j := diamond()
	j.Stages[0].Children = append(j.Stages[0].Children, 3) // no reverse link
	if err := j.Validate(); err == nil {
		t.Fatal("asymmetric edge not detected")
	}
}

func TestValidateDetectsBadID(t *testing.T) {
	j := diamond()
	j.Stages[2].ID = 7
	if err := j.Validate(); err == nil {
		t.Fatal("bad stage ID not detected")
	}
}

func TestValidateDetectsZeroTasks(t *testing.T) {
	j := diamond()
	j.Stages[1].NumTasks = 0
	if err := j.Validate(); err == nil {
		t.Fatal("zero-task stage not detected")
	}
}

func TestRootsLeaves(t *testing.T) {
	j := diamond()
	if r := j.Roots(); len(r) != 1 || r[0] != 0 {
		t.Fatalf("roots = %v", r)
	}
	if l := j.Leaves(); len(l) != 1 || l[0] != 3 {
		t.Fatalf("leaves = %v", l)
	}
}

func TestTopoOrderProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		j := Random(rng, 2+rng.Intn(30), 0.3)
		order, err := j.TopoOrder()
		if err != nil {
			return false
		}
		pos := make([]int, len(order))
		for i, v := range order {
			pos[v] = i
		}
		for _, s := range j.Stages {
			for _, c := range s.Children {
				if pos[s.ID] >= pos[c] {
					return false
				}
			}
		}
		return len(order) == len(j.Stages)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHeightsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		j := Random(rng, 2+rng.Intn(30), 0.3)
		h := j.Heights()
		for _, s := range j.Stages {
			if len(s.Children) == 0 && h[s.ID] != 0 {
				return false
			}
			for _, c := range s.Children {
				if h[s.ID] < h[c]+1 {
					return false
				}
			}
			// height is exactly 1 + max child height for internal nodes
			if len(s.Children) > 0 {
				best := 0
				for _, c := range s.Children {
					if h[c] > best {
						best = h[c]
					}
				}
				if h[s.ID] != best+1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCriticalPathDiamond(t *testing.T) {
	j := diamond()
	// work: s0=2, s1=4, s2=6, s3=8
	cp := j.CriticalPath()
	want := []float64{16, 12, 14, 8} // cp3=8, cp1=4+8, cp2=6+8, cp0=2+max(12,14)
	for i, w := range want {
		if math.Abs(cp[i]-w) > 1e-12 {
			t.Fatalf("cp[%d] = %v, want %v", i, cp[i], w)
		}
	}
	if got := j.CriticalPathLength(); got != 16 {
		t.Fatalf("critical path length = %v, want 16", got)
	}
}

func TestCriticalPathProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		j := Random(rng, 2+rng.Intn(30), 0.3)
		cp := j.CriticalPath()
		total := j.TotalWork()
		for _, s := range j.Stages {
			// cp is at least own work and at most total work
			if cp[s.ID] < s.Work()-1e-9 || cp[s.ID] > total+1e-9 {
				return false
			}
			// cp(parent) >= cp(child) + parent's own work
			for _, c := range s.Children {
				if cp[s.ID] < cp[c]+s.Work()-1e-9 {
					return false
				}
			}
		}
		return j.CriticalPathLength() <= total+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTotalWorkAndTasks(t *testing.T) {
	j := diamond()
	if w := j.TotalWork(); w != 20 {
		t.Fatalf("total work = %v, want 20", w)
	}
	if n := j.TotalTasks(); n != 10 {
		t.Fatalf("total tasks = %v, want 10", n)
	}
}

// TestCloneSharesDAG checks the instancing contract: a clone holds the
// template's stages (cap-clipped, so an append cannot reach the template's
// array) and level plan, keeps its own ID, Name and Arrival, and neither
// the template nor any instance accepts another edge.
func TestCloneSharesDAG(t *testing.T) {
	j := diamond()
	c := j.Clone()
	cc := c.Clone()
	for _, x := range []*Job{c, cc} {
		if len(x.Stages) != len(j.Stages) || cap(x.Stages) != len(j.Stages) {
			t.Fatalf("clone stages len %d cap %d, want %d cap-clipped", len(x.Stages), cap(x.Stages), len(j.Stages))
		}
		for i := range j.Stages {
			if x.Stages[i] != j.Stages[i] {
				t.Fatalf("clone stage %d is a copy, not the template's", i)
			}
		}
		if x.Levels() != j.Levels() {
			t.Fatal("clone rebuilt the level plan")
		}
	}
	c.ID, c.Name, c.Arrival = 7, "instance", 3
	if j.ID != 0 || j.Name != "diamond" || j.Arrival != 0 || cc.ID != 0 {
		t.Fatal("per-instance fields are shared")
	}
	c.Stages = append(c.Stages, &Stage{ID: 4, NumTasks: 1})
	if len(j.Stages) != 4 || len(cc.Stages) != 4 {
		t.Fatal("an append to a clone's stages reached the template")
	}
	for name, x := range map[string]*Job{"template": j, "clone": c, "clone of a clone": cc} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("AddEdge on the %s did not panic", name)
				}
			}()
			x.AddEdge(1, 2)
		}()
	}
	if len(j.Stages[1].Children) != 1 {
		t.Fatal("a refused AddEdge changed the shared adjacency")
	}
	if err := j.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRandomAlwaysValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		j := Random(rng, 1+rng.Intn(40), rng.Float64())
		return j.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSingleStageJob(t *testing.T) {
	j := &Job{Stages: []*Stage{{ID: 0, NumTasks: 3, TaskDuration: 1.5, CPUReq: 1}}}
	if err := j.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := j.CriticalPathLength(); math.Abs(got-4.5) > 1e-12 {
		t.Fatalf("cp = %v, want 4.5", got)
	}
	if h := j.Heights(); h[0] != 0 {
		t.Fatalf("height = %v", h[0])
	}
}

// TestLevelsProperty checks the cached level plan against its definition:
// level h lists exactly the stages of height h in ascending id, with their
// children flattened in parent order and Seg pointing each child back at its
// parent; the plan is built once per job, dropped by AddEdge, and shared,
// not rebuilt, by a clone.
func TestLevelsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		j := Random(rng, 1+rng.Intn(30), 0.3)
		p := j.Levels()
		if j.Levels() != p {
			return false
		}
		h := j.Heights()
		seen := 0
		for li, lv := range p.Levels {
			next := 0
			for pi, v := range lv.Parents {
				if h[v] != li+1 || (pi > 0 && lv.Parents[pi-1] >= v) {
					return false
				}
				for _, c := range j.Stages[v].Children {
					if next >= len(lv.ChildIdx) || lv.ChildIdx[next] != c || lv.Seg[next] != pi {
						return false
					}
					next++
				}
			}
			if len(lv.Parents) == 0 || next != len(lv.ChildIdx) || len(lv.Seg) != next {
				return false
			}
			seen += len(lv.Parents)
		}
		for _, hv := range h {
			if hv == 0 {
				seen++
			}
		}
		if seen != len(j.Stages) || len(p.Heights) != len(h) || len(p.Children) != len(h) {
			return false
		}
		// A new edge invalidates the plan.
		j.Stages = append(j.Stages, &Stage{ID: len(j.Stages), NumTasks: 1})
		j.AddEdge(0, len(j.Stages)-1)
		if j.Levels() == p || len(j.Levels().Heights) != len(j.Stages) {
			return false
		}
		return j.Clone().Levels() == j.Levels()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
