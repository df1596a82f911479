package fleet

import (
	"testing"
)

// testPool builds a pool without starting its prober, with every
// backend marked healthy.
func testPool(t *testing.T, opts PoolOptions) *Pool {
	t.Helper()
	p, err := newPool(opts, NewMetrics())
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range p.all() {
		b.mu.Lock()
		b.healthy = true
		b.mu.Unlock()
	}
	return p
}

// TestPickFollowsRingOrder: pick ignores load — an owner with any
// number of dispatches in flight is still the first pick — and an
// excluded or ejected owner yields its ring successor.
func TestPickFollowsRingOrder(t *testing.T) {
	p := testPool(t, PoolOptions{Backends: []string{"http://a:1", "http://b:1", "http://c:1"}})
	const key = "some-content-key"
	seq := p.ring.seq(key)
	owner := p.backends[seq[0]]

	for _, inflight := range []int{0, 1, 100} {
		owner.mu.Lock()
		owner.inflight = inflight
		owner.mu.Unlock()
		got, err := p.pick(key, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got != owner {
			t.Fatalf("owner with %d in flight: pick chose %s, want owner %s", inflight, got.URL, owner.URL)
		}
	}

	got, err := p.pick(key, map[string]bool{owner.URL: true})
	if err != nil {
		t.Fatal(err)
	}
	if got.URL != seq[1] {
		t.Fatalf("excluded owner: pick chose %s, want ring successor %s", got.URL, seq[1])
	}

	p.markDown(owner, nil)
	if got, err = p.pick(key, nil); err != nil {
		t.Fatal(err)
	}
	if got.URL != seq[1] {
		t.Fatalf("ejected owner: pick chose %s, want ring successor %s", got.URL, seq[1])
	}
}

// TestPickSkipsUnhealthyAndExcluded: ejected and explicitly excluded
// backends never receive work; an empty candidate set is ErrNoBackends.
func TestPickSkipsUnhealthyAndExcluded(t *testing.T) {
	p := testPool(t, PoolOptions{Backends: []string{"http://a:1", "http://b:1", "http://c:1"}})
	const key = "another-key"
	owner := p.ring.owner(key)

	p.markDown(p.backends[owner], nil)
	got, err := p.pick(key, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.URL == owner {
		t.Fatalf("pick routed to ejected owner %s", owner)
	}

	// Exclude the failover target too; the last backend must be picked.
	got2, err := p.pick(key, map[string]bool{got.URL: true})
	if err != nil {
		t.Fatal(err)
	}
	if got2.URL == got.URL || got2.URL == owner {
		t.Fatalf("pick ignored exclusion: %s", got2.URL)
	}

	if _, err := p.pick(key, map[string]bool{got.URL: true, got2.URL: true}); err != ErrNoBackends {
		t.Fatalf("exhausted pool: err=%v, want ErrNoBackends", err)
	}
}
