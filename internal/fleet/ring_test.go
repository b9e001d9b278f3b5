package fleet_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/fleet"
)

func keys(n int) []string {
	ks := make([]string, n)
	for i := range ks {
		ks[i] = fmt.Sprintf("session-%d", i)
	}
	return ks
}

// TestRingDeterministicPlacement pins that ownership depends only on the
// member set: the same members added in any order place every key
// identically. Clients and routers rebuilt at different times must agree.
func TestRingDeterministicPlacement(t *testing.T) {
	a := fleet.NewRing(0)
	b := fleet.NewRing(0)
	for _, id := range []string{"r1", "r2", "r3", "r4", "r5"} {
		a.Add(id)
	}
	for _, id := range []string{"r4", "r1", "r5", "r3", "r2"} {
		b.Add(id)
	}
	for _, k := range keys(2000) {
		if ao, bo := a.Owner(k), b.Owner(k); ao != bo {
			t.Fatalf("placement depends on insertion order: key %q → %q vs %q", k, ao, bo)
		}
	}
}

// TestRingBoundedChurn pins the consistent-hashing contract on the paths the
// router takes: excluding one member (OwnerWhere) moves only the keys that
// member owned, and adding a member moves keys only onto it.
func TestRingBoundedChurn(t *testing.T) {
	r := fleet.NewRing(0)
	members := []string{"r1", "r2", "r3", "r4", "r5", "r6"}
	for _, id := range members {
		r.Add(id)
	}
	ks := keys(3000)
	before := make(map[string]string, len(ks))
	perOwner := make(map[string]int)
	for _, k := range ks {
		o := r.Owner(k)
		if o == "" {
			t.Fatalf("no owner for %q on a populated ring", k)
		}
		before[k] = o
		perOwner[o]++
	}
	// Every member should own a meaningful share — vnodes spread the keys.
	for _, id := range members {
		if perOwner[id] == 0 {
			t.Fatalf("member %q owns no keys: distribution collapsed (%v)", id, perOwner)
		}
	}

	moved := 0
	for _, k := range ks {
		o := r.OwnerWhere(k, func(id string) bool { return id != "r3" })
		if before[k] == "r3" {
			if o == "r3" || o == "" {
				t.Fatalf("key %q: owner %q with r3 excluded", k, o)
			}
			moved++
			continue
		}
		if o != before[k] {
			t.Fatalf("key %q moved from %q to %q though its owner was not excluded", k, before[k], o)
		}
	}
	if moved != perOwner["r3"] {
		t.Fatalf("moved %d keys, want exactly r3's share %d", moved, perOwner["r3"])
	}

	r.Add("r7")
	gained := 0
	for _, k := range ks {
		if o := r.Owner(k); o == "r7" {
			gained++
		} else if o != before[k] {
			t.Fatalf("after adding r7, key %q moved from %q to %q", k, before[k], o)
		}
	}
	if gained == 0 {
		t.Fatal("the added member r7 owns no keys")
	}
}

// TestRingOwnerWhere pins the failover walk: excluding the preferred owner
// yields a deterministic successor, and excluding everyone yields "".
func TestRingOwnerWhere(t *testing.T) {
	r := fleet.NewRing(0)
	for _, id := range []string{"r1", "r2", "r3"} {
		r.Add(id)
	}
	for _, k := range keys(200) {
		owner := r.Owner(k)
		next := r.OwnerWhere(k, func(id string) bool { return id != owner })
		if next == "" || next == owner {
			t.Fatalf("key %q: successor %q invalid (owner %q)", k, next, owner)
		}
		// The walk is deterministic: ask again, same answer.
		if again := r.OwnerWhere(k, func(id string) bool { return id != owner }); again != next {
			t.Fatalf("key %q: successor changed between identical lookups: %q vs %q", k, next, again)
		}
		if none := r.OwnerWhere(k, func(string) bool { return false }); none != "" {
			t.Fatalf("key %q: owner %q found with every member excluded", k, none)
		}
	}
	if fleet.NewRing(0).Owner("x") != "" {
		t.Fatal("empty ring returned an owner")
	}
}

// TestRingConcurrent exercises concurrent lookups against members being
// added; meaningful under -race.
func TestRingConcurrent(t *testing.T) {
	r := fleet.NewRing(16)
	for _, id := range []string{"r1", "r2", "r3"} {
		r.Add(id)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ks := keys(64)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, k := range ks {
					r.Owner(k)
					r.OwnerWhere(k, func(id string) bool { return id != "r2" })
				}
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		r.Add(fmt.Sprintf("n%d", i))
		r.Len()
	}
	close(stop)
	wg.Wait()
}
