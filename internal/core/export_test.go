package core

// CachedJobs reports how many jobs a's embedding cache holds, so external
// tests can tell one agent's cache from another's.
func CachedJobs(a *Agent) int { return len(a.cache) }
