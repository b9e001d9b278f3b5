package fleet

import "time"

// SetBreakers gives every registered replica a fresh circuit breaker with
// threshold and cooldown in place of the package constants, so a test can
// trip one in a few requests and rule out the cooldown expiring mid-test.
// Call it before any traffic: breakers are swapped under the router's lock,
// which every forward path takes to look its replica up.
func (rt *Router) SetBreakers(threshold int, cooldown time.Duration) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, rep := range rt.replicas {
		rep.brk = newBreaker(threshold, cooldown)
	}
}
