package core

import (
	"repro/internal/gnn"
	"repro/internal/nn"
	"repro/internal/sim"
)

// The inference fast path's incremental embedding cache.
//
// Decima's GNN passes are job-local up to the final global aggregation:
// Eq. (1) propagates messages only along a job's own DAG, and the per-job
// summary reads only that job's features and node embeddings. A job's
// feature matrix (§6.1) in turn depends only on the job's runtime state
// (captured by sim.JobState.Version), the cluster-wide free-executor count,
// the executor-pool size (constant per run without failure dynamics, varying
// under churn), and the job's locality flag. So per-job results cached under
// the key (Version, freeTotal, total, local) can be reused *exactly* — not
// approximately — and only jobs an event actually touched are re-embedded.
// The global summary GGlob(Σ FGlob(y_i)) is recombined on every decision from
// each entry's cached FGlob row, summed in job order from zero, so its
// floating-point summation order matches a full forward bit for bit and an
// event that changed one job runs FGlob on one row.
//
// Each job holds a small set of entries (maxEntriesPerJob), not just the
// latest: the free-executor count and locality flag are part of every job's
// key, and a workload whose executor pool oscillates can revisit a recent
// key after the single newest entry would already have been overwritten.
// (Measured on the serving benchmarks the revisit rate is small — ~85% of
// lookups hit on the newest entry and most misses are genuine Version
// changes — so this generalisation is about robustness across workload
// shapes, not a large win on the current ones; see DESIGN.md.) Lookups are
// linear scans over ≤ maxEntriesPerJob entries — cheaper than a map at this
// size — and a full set recycles its least recently used entry in place.
//
// Entries are keyed by *sim.JobState pointer: pointer identity scopes the
// cache to one simulation run (every run builds fresh JobStates), so agents
// reused across evaluation runs never see stale hits. Entries for jobs that
// left the system are swept whenever the cache outgrows the live job set.

// maxEntriesPerJob bounds one job's cached embeddings.
const maxEntriesPerJob = 8

// embEntry is one job's cached embedding state under one exact key. Its
// buffers belong to the entry and are refilled in place when the entry is
// recycled for a new key: a job's node matrix never changes shape.
type embEntry struct {
	version   uint64  // sim.JobState.Version the entry was computed at
	freeTotal int     // cluster-wide free-executor count observed
	total     int     // executor-pool size observed (varies under churn)
	local     float64 // locality feature observed (0 or 1)
	nodes     *nn.Tensor
	jobRow    []float64
	// globRow is FGlob(jobRow), the job's message to the global summary.
	// FGlob is row-wise, so the row computed alone equals the row a full
	// forward computes among the other jobs', bit for bit.
	globRow []float64
	pass    uint64 // last embed pass that referenced the entry
	// graph is the observation the entry was computed from, retained only
	// while Record is set: handing the same *gnn.Graph to every decision
	// that hits the entry is what lets the training replay deduplicate
	// identical observations across an episode. A recorder may keep it
	// forever, so recycling the entry drops the pointer and never touches
	// the graph.
	graph *gnn.Graph
}

// jobCache holds one job's cached entries.
type jobCache struct {
	entries []*embEntry
	pass    uint64 // last embed pass that referenced the job
}

// lookup returns the entry matching the exact key, or nil.
func (c *jobCache) lookup(version uint64, freeTotal, total int, local float64) *embEntry {
	for _, e := range c.entries {
		if e.version == version && e.freeTotal == freeTotal && e.total == total && e.local == local {
			return e
		}
	}
	return nil
}

// claim returns the entry to fill for a new key of a job with n stages: a
// fresh one while the job has room, else the least recently used, recycled.
func (c *jobCache) claim(n, d int) *embEntry {
	if len(c.entries) < maxEntriesPerJob {
		rows := make([]float64, 2*d)
		ent := &embEntry{nodes: nn.Zeros(n, d), jobRow: rows[:d:d], globRow: rows[d:]}
		c.entries = append(c.entries, ent)
		return ent
	}
	victim := c.entries[0]
	for _, e := range c.entries {
		if e.pass < victim.pass {
			victim = e
		}
	}
	victim.graph = nil
	return victim
}

// cacheFor returns (creating if needed) the job's entry set and stamps it
// as referenced by the current pass.
func (a *Agent) cacheFor(j *sim.JobState) *jobCache {
	c := a.cache[j]
	if c == nil {
		c = &jobCache{}
		a.cache[j] = c
	}
	c.pass = a.embedPass
	return c
}

// cacheSweep drops jobs that left the system (or runs that ended), keeping
// the map bounded by the live job set.
func (a *Agent) cacheSweep(liveJobs int) {
	if len(a.cache) <= liveJobs {
		return
	}
	for k, c := range a.cache {
		if c.pass != a.embedPass {
			delete(a.cache, k)
		}
	}
}

// observe builds job j's GNN input under the given key inputs. With retain
// (a recorder will keep the graph) the features are a fresh heap matrix;
// otherwise they live in the scratch arena and the value dies with the
// decision.
func (a *Agent) observe(j *sim.JobState, freeTotal, total int, local float64, retain bool) gnn.Graph {
	var f *nn.Tensor
	if retain {
		f = nn.Zeros(len(j.Stages), a.Cfg.FeatDim())
	} else {
		f = a.scratch.AllocTensor(len(j.Stages), a.Cfg.FeatDim())
	}
	a.fillFeatures(f, j, freeTotal, total, local)
	return gnn.Graph{Feats: f, LevelPlan: j.Job.Levels()}
}

// heapGraph moves an observation a recorder will retain to the heap; the
// by-value graphs embedInference works on stay on its stack.
func heapGraph(gr gnn.Graph) *gnn.Graph { return &gr }

// embedInference produces embeddings on the no-grad fast path, re-embedding
// only jobs whose cache key changed. The returned value, its tensors (beyond
// the cache-owned node embeddings) and recGraphs are agent-owned scratch,
// which this call resets — one decision's embeddings are valid until the next
// fast-path decision. A warm call allocates nothing.
func (a *Agent) embedInference(s *sim.State) *gnn.Embeddings {
	a.scratch.Reset()
	recording := a.Record != nil
	a.recGraphs = a.recGraphs[:0]
	emb := &a.emb
	emb.Nodes = emb.Nodes[:0]
	d := a.Pol.Cfg.EmbedDim
	emb.Jobs = a.scratch.AllocTensor(len(s.Jobs), d)
	if a.GNN == nil || len(s.Jobs) == 0 {
		// Ablation (or no jobs): raw features stand in for node embeddings,
		// with zero job and global summaries; there is nothing to cache.
		emb.Global = a.scratch.AllocTensor(1, d)
		for _, j := range s.Jobs {
			freeTotal, total, local := featureKeyInputs(s, j)
			gr := a.observe(j, freeTotal, total, local, recording)
			if recording {
				a.recGraphs = append(a.recGraphs, heapGraph(gr))
			}
			emb.Nodes = append(emb.Nodes, gr.Feats)
		}
		return emb
	}
	if a.cache == nil {
		a.cache = make(map[*sim.JobState]*jobCache)
	}
	a.embedPass++
	// globSum accumulates the cached FGlob rows in job order from zero — the
	// order and arithmetic of GlobalInference's column sum.
	globSum := a.scratch.AllocTensor(1, d)
	for i, j := range s.Jobs {
		freeTotal, total, local := featureKeyInputs(s, j)
		var jc *jobCache
		var ent *embEntry
		if !a.NoCache {
			jc = a.cacheFor(j)
			ent = jc.lookup(j.Version, freeTotal, total, local)
		}
		if ent == nil {
			gr := a.observe(j, freeTotal, total, local, recording)
			nodes := a.GNN.EmbedNodesInference(&gr, &a.scratch)
			row := a.GNN.JobSummaryInference(&gr, nodes, &a.scratch)
			if a.NoCache {
				// The reference path: nothing outlives the decision, so the
				// arena-backed tensors are used directly and the global
				// summary is recomputed over every row below.
				if recording {
					a.recGraphs = append(a.recGraphs, heapGraph(gr))
				}
				emb.Nodes = append(emb.Nodes, nodes)
				copy(emb.Jobs.Data[i*d:(i+1)*d], row.Data)
				continue
			}
			// Copy the results out of the arena into the entry's own
			// buffers: cached values must survive arena resets.
			ent = jc.claim(len(j.Stages), d)
			ent.version, ent.freeTotal, ent.total, ent.local = j.Version, freeTotal, total, local
			copy(ent.nodes.Data, nodes.Data)
			copy(ent.jobRow, row.Data)
			copy(ent.globRow, a.GNN.FGlob.ForwardInference(row, &a.scratch).Data)
			if recording {
				ent.graph = heapGraph(gr)
			}
		}
		if recording {
			if ent.graph == nil {
				// The entry predates recording (Record toggled mid-run);
				// rebuild the observation — the cache key guarantees the
				// features are identical to the cached embedding's.
				ent.graph = heapGraph(a.observe(j, freeTotal, total, local, true))
			}
			a.recGraphs = append(a.recGraphs, ent.graph)
		}
		ent.pass = a.embedPass
		emb.Nodes = append(emb.Nodes, ent.nodes)
		copy(emb.Jobs.Data[i*d:(i+1)*d], ent.jobRow)
		for k, v := range ent.globRow {
			globSum.Data[k] += v
		}
	}
	if a.NoCache {
		emb.Global = a.GNN.GlobalInference(emb.Jobs, &a.scratch)
		return emb
	}
	a.cacheSweep(len(s.Jobs))
	emb.Global = a.GNN.GGlob.ForwardInference(globSum, &a.scratch)
	return emb
}
