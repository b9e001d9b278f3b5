// Package dag models DAG-structured data-processing jobs: jobs made of
// stages connected by input/output dependencies, as produced by systems
// like Spark, Hive or DryadLINQ (§2, §3 of the paper). It provides the
// static structure and graph algorithms (validation, topological order,
// height levels, critical path) that the simulator, the schedulers and the
// graph neural network all build on.
//
// Edge direction convention follows the paper: an edge runs from a parent
// stage to the child stages that consume its output. A stage becomes
// runnable once all its parents have completed, and the critical path of a
// node is computed downstream over its children:
//
//	cp(v) = work(v) + max_{u ∈ children(v)} cp(u).
//
// A job's DAG is an immutable value once the job has been instanced: Clone
// hands each instance the template's Stages slice and LevelPlan instead of
// copying them, so every Stage, its adjacency lists and the plan are shared
// by the template and all its instances, across goroutines. They are
// read-only from then on; AddEdge panics on a job that shares its stages.
// Only the per-instance fields (ID, Name, Arrival, Inflation) are the
// instance's own.
package dag

import (
	"fmt"
	"math/rand"
	"sync/atomic"
)

// Stage is one execution stage of a job: an operation run as many parallel
// tasks over shards of its input.
type Stage struct {
	// ID is the stage's index within its job's Stages slice.
	ID int
	// Name is an optional human-readable label.
	Name string
	// NumTasks is the number of parallel tasks in the stage.
	NumTasks int
	// TaskDuration is the mean duration of one task in seconds at the
	// baseline parallelism (before wave and inflation effects).
	TaskDuration float64
	// ShuffleMB is the intermediate data this stage shuffles, in megabytes.
	ShuffleMB float64
	// MemReq is the stage's per-task memory requirement in normalized units
	// (0,1]; only meaningful in the multi-resource setting (§7.3).
	MemReq float64
	// CPUReq is the per-task CPU requirement; 1 for all workloads here.
	CPUReq float64

	// Parents lists stage IDs this stage depends on (upstream).
	Parents []int
	// Children lists stage IDs that depend on this stage (downstream).
	Children []int
}

// Work returns the stage's total work: NumTasks × TaskDuration seconds.
func (s *Stage) Work() float64 { return float64(s.NumTasks) * s.TaskDuration }

// Job is a DAG of stages plus arrival metadata.
type Job struct {
	// ID uniquely identifies the job within a workload.
	ID int
	// Name is a human-readable label, e.g. "tpch-q9-100g".
	Name string
	// Stages holds the job's stages indexed by Stage.ID.
	Stages []*Stage
	// Arrival is the job's arrival time in seconds since experiment start.
	Arrival float64
	// Inflation maps a degree of parallelism to a task-duration multiplier
	// (≥1), modelling the work inflation of wide shuffles (§6.2, item 3).
	// A nil Inflation means no inflation.
	Inflation func(parallelism int) float64

	// plan caches Levels(); a finished job's DAG is immutable, so it is
	// derived once. AddEdge drops it.
	plan atomic.Pointer[LevelPlan]
	// shared marks a job whose Stages another Job also holds: the template
	// of a Clone and every Clone. Its DAG is frozen.
	shared atomic.Bool
}

// NumStages returns the number of stages in the job.
func (j *Job) NumStages() int { return len(j.Stages) }

// TotalWork returns the sum of all stages' work in task-seconds.
func (j *Job) TotalWork() float64 {
	var w float64
	for _, s := range j.Stages {
		w += s.Work()
	}
	return w
}

// TotalTasks returns the number of tasks across all stages.
func (j *Job) TotalTasks() int {
	n := 0
	for _, s := range j.Stages {
		n += s.NumTasks
	}
	return n
}

// AddEdge records a parent→child dependency, updating both adjacency lists.
// It panics on a job that shares its stages (a Clone or its template).
func (j *Job) AddEdge(parent, child int) {
	if j.shared.Load() {
		panic(fmt.Sprintf("dag: AddEdge on job %d (%q), whose stages are shared with its instances", j.ID, j.Name))
	}
	j.Stages[parent].Children = append(j.Stages[parent].Children, child)
	j.Stages[child].Parents = append(j.Stages[child].Parents, parent)
	j.plan.Store(nil)
}

// Roots returns the IDs of stages with no parents (immediately runnable).
func (j *Job) Roots() []int {
	var r []int
	for _, s := range j.Stages {
		if len(s.Parents) == 0 {
			r = append(r, s.ID)
		}
	}
	return r
}

// Leaves returns the IDs of stages with no children (final stages).
func (j *Job) Leaves() []int {
	var r []int
	for _, s := range j.Stages {
		if len(s.Children) == 0 {
			r = append(r, s.ID)
		}
	}
	return r
}

// Validate checks structural invariants: stage IDs match slice indices,
// adjacency lists are symmetric and in range, and the graph is acyclic.
func (j *Job) Validate() error {
	n := len(j.Stages)
	for i, s := range j.Stages {
		if s == nil {
			return fmt.Errorf("dag: job %d stage %d is nil", j.ID, i)
		}
		if s.ID != i {
			return fmt.Errorf("dag: job %d stage at index %d has ID %d", j.ID, i, s.ID)
		}
		if s.NumTasks <= 0 {
			return fmt.Errorf("dag: job %d stage %d has %d tasks", j.ID, i, s.NumTasks)
		}
		if s.TaskDuration < 0 {
			return fmt.Errorf("dag: job %d stage %d has negative task duration", j.ID, i)
		}
		for _, c := range s.Children {
			if c < 0 || c >= n {
				return fmt.Errorf("dag: job %d stage %d child %d out of range", j.ID, i, c)
			}
			if !contains(j.Stages[c].Parents, i) {
				return fmt.Errorf("dag: job %d edge %d→%d missing reverse link", j.ID, i, c)
			}
		}
		for _, p := range s.Parents {
			if p < 0 || p >= n {
				return fmt.Errorf("dag: job %d stage %d parent %d out of range", j.ID, i, p)
			}
			if !contains(j.Stages[p].Children, i) {
				return fmt.Errorf("dag: job %d edge %d→%d missing forward link", j.ID, p, i)
			}
		}
	}
	if _, err := j.TopoOrder(); err != nil {
		return err
	}
	return nil
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// TopoOrder returns stage IDs in a topological order (parents before
// children) using Kahn's algorithm, or an error if the graph has a cycle.
func (j *Job) TopoOrder() ([]int, error) {
	n := len(j.Stages)
	indeg := make([]int, n)
	for _, s := range j.Stages {
		indeg[s.ID] = len(s.Parents)
	}
	queue := make([]int, 0, n)
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	order := make([]int, 0, n)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, c := range j.Stages[v].Children {
			indeg[c]--
			if indeg[c] == 0 {
				queue = append(queue, c)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("dag: job %d contains a cycle", j.ID)
	}
	return order, nil
}

// Heights returns, per stage, the length of the longest path to a leaf
// (stages with no children have height 0). The graph neural network batches
// its message passing by these levels: all stages of height h can be
// embedded together once heights < h are done.
func (j *Job) Heights() []int {
	order, err := j.TopoOrder()
	if err != nil {
		panic(err)
	}
	h := make([]int, len(j.Stages))
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		for _, c := range j.Stages[v].Children {
			if h[c]+1 > h[v] {
				h[v] = h[c] + 1
			}
		}
	}
	return h
}

// Level is one height level of a job's message-passing plan: the stages of
// that height and, flattened, the children whose embeddings they aggregate.
type Level struct {
	// Parents lists the level's stages in ascending id.
	Parents []int
	// ChildIdx concatenates the parents' children, in parent order.
	ChildIdx []int
	// Seg maps each ChildIdx entry to its parent's index in Parents.
	Seg []int
}

// LevelPlan is everything the graph neural network derives from a job's
// static DAG: adjacency, heights and the per-height gather/segment indices of
// the level-batched message passing. It is immutable and shared by every
// graph view of the job.
type LevelPlan struct {
	// Children lists, per stage, the downstream stage ids.
	Children [][]int
	// Heights is Job.Heights().
	Heights []int
	// Levels[h-1] is the level of height h, for h = 1..max height (a stage
	// of height h has a child of height h−1, so no level is empty).
	Levels []Level
}

// Levels returns the job's level plan, computed on first use and cached: the
// DAG of a job in the system never changes. Build the DAG (AddEdge, or the
// Stages' adjacency lists directly) before the first call. Safe for
// concurrent use.
func (j *Job) Levels() *LevelPlan {
	if p := j.plan.Load(); p != nil {
		return p
	}
	p := &LevelPlan{Children: make([][]int, len(j.Stages)), Heights: j.Heights()}
	for v, h := range p.Heights {
		p.Children[v] = j.Stages[v].Children
		if h == 0 {
			continue
		}
		for h > len(p.Levels) {
			p.Levels = append(p.Levels, Level{})
		}
		lv := &p.Levels[h-1]
		pi := len(lv.Parents)
		lv.Parents = append(lv.Parents, v)
		for _, c := range p.Children[v] {
			lv.ChildIdx = append(lv.ChildIdx, c)
			lv.Seg = append(lv.Seg, pi)
		}
	}
	j.plan.Store(p)
	return p
}

// CriticalPath returns, per stage, the total work on the longest downstream
// path starting at (and including) that stage:
//
//	cp(v) = work(v) + max_{u ∈ children(v)} cp(u)
//
// matching footnote 5 of the paper. The job's critical path is the maximum
// over its root stages.
func (j *Job) CriticalPath() []float64 {
	order, err := j.TopoOrder()
	if err != nil {
		panic(err)
	}
	cp := make([]float64, len(j.Stages))
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		var best float64
		for _, c := range j.Stages[v].Children {
			if cp[c] > best {
				best = cp[c]
			}
		}
		cp[v] = j.Stages[v].Work() + best
	}
	return cp
}

// CriticalPathLength returns the job-level critical path: the maximum
// critical-path value over all stages.
func (j *Job) CriticalPathLength() float64 {
	var best float64
	for _, v := range j.CriticalPath() {
		if v > best {
			best = v
		}
	}
	return best
}

// Clone returns a new instance of the job: its own ID, Name, Arrival and
// Inflation, and j's DAG — the same cap-clipped Stages slice and the same
// LevelPlan, built here if j had none (so j must be acyclic, as Levels
// requires). Both jobs are frozen afterwards (see the package doc): an
// instance costs one small struct, and no instance ever rebuilds a level
// plan.
func (j *Job) Clone() *Job {
	j.shared.Store(true)
	c := &Job{ID: j.ID, Name: j.Name, Stages: j.Stages[:len(j.Stages):len(j.Stages)], Arrival: j.Arrival, Inflation: j.Inflation}
	c.plan.Store(j.Levels())
	c.shared.Store(true)
	return c
}

// Random generates a random valid DAG with n stages for tests and the
// critical-path expressiveness experiment (Appendix E). Edges only run from
// lower to higher stage indices, guaranteeing acyclicity; edgeProb controls
// density.
func Random(rng *rand.Rand, n int, edgeProb float64) *Job {
	j := &Job{Name: fmt.Sprintf("random-%d", n)}
	for i := 0; i < n; i++ {
		j.Stages = append(j.Stages, &Stage{
			ID:           i,
			NumTasks:     1 + rng.Intn(20),
			TaskDuration: 0.1 + rng.Float64()*5,
			MemReq:       rng.Float64(),
			CPUReq:       1,
		})
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if rng.Float64() < edgeProb {
				j.AddEdge(a, b)
			}
		}
	}
	return j
}
