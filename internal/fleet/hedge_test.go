package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pcoup/internal/service"
)

// fakeBackend is a scripted pcserved stand-in: jobs "finish" instantly
// unless the backend is stalled, in which case streams hang until the
// client gives up. It records DELETEs so tests can assert that hedge
// losers are cancelled.
type fakeBackend struct {
	stalled atomic.Bool
	// failAfter (ns), when set, makes streams report a deterministic
	// failure after that delay instead of finishing.
	failAfter atomic.Int64

	mu      sync.Mutex
	nextID  int
	deletes []string
}

func (f *fakeBackend) deleted() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.deletes...)
}

func (f *fakeBackend) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(service.Health{Status: "ready", Accepting: true, Workers: 1})
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		f.nextID++
		id := fmt.Sprintf("x-%06d", f.nextID)
		f.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(service.JobView{ID: id, State: service.JobQueued})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(service.JobView{
			ID: r.PathValue("id"), State: service.JobDone, CacheHit: false,
		})
	})
	mux.HandleFunc("GET /v1/jobs/{id}/stream", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		if f.stalled.Load() {
			if fl, ok := w.(http.Flusher); ok {
				fl.Flush() // headers out, then hang like a straggler
			}
			<-r.Context().Done()
			return
		}
		if d := f.failAfter.Load(); d > 0 {
			select {
			case <-time.After(time.Duration(d)):
			case <-r.Context().Done():
				return
			}
			fmt.Fprintf(w, "{\"state\":\"failed\",\"error\":\"injected\"}\n")
			return
		}
		fmt.Fprintf(w, "{\"v\":1}\n{\"state\":\"done\"}\n")
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		f.deletes = append(f.deletes, r.PathValue("id"))
		f.mu.Unlock()
		json.NewEncoder(w).Encode(service.JobView{ID: r.PathValue("id"), State: service.JobCancelled})
	})
	return mux
}

// TestHedgingFiresAndCancelsLoser: with the latency sampler primed, a
// straggling primary gets exactly one hedged duplicate on the other
// ring node; the duplicate's result is used, and the straggler's
// backend job is DELETEd.
func TestHedgingFiresAndCancelsLoser(t *testing.T) {
	fakes := map[string]*fakeBackend{}
	var urls []string
	for i := 0; i < 2; i++ {
		f := &fakeBackend{}
		ts := httptest.NewServer(f.handler())
		t.Cleanup(ts.Close)
		fakes[ts.URL] = f
		urls = append(urls, ts.URL)
	}

	gw, _ := startGateway(t, urls, func(o *Options) {
		o.HedgeQuantile = 0.5
		o.HedgeMinSamples = 1
		o.HedgeMinDelay = time.Millisecond
	})

	// Prime the sampler: one fast job (both fakes answer instantly).
	warm := service.JobSpec{Cell: &service.CellSpec{Bench: "matrix", Mode: "SEQ"}}
	wj, err := gw.Submit(warm)
	if err != nil {
		t.Fatal(err)
	}
	<-wj.Done()
	if v := wj.View(false); v.State != service.JobDone {
		t.Fatalf("warm-up job: %s (%s)", v.State, v.Error)
	}

	// Find the owner of the next job's routing key and stall it.
	spec := service.JobSpec{Cell: &service.CellSpec{Bench: "fft", Mode: "TPE"}}
	key, _ := routeKey(&spec)
	primary, _, err := gw.pool.pick(key, nil)
	if err != nil {
		t.Fatal(err)
	}
	fakes[primary.URL].stalled.Store(true)

	job, err := gw.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-job.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("hedged job never finished (hedge did not fire?)")
	}
	if v := job.View(true); v.State != service.JobDone || string(v.Result) != `{"v":1}` {
		t.Fatalf("hedged job: %s (%s), result %s", v.State, v.Error, v.Result)
	}

	fired, won := gw.Metrics().HedgeStats()
	if fired != 1 || won != 1 {
		t.Fatalf("hedges fired=%d won=%d, want 1/1", fired, won)
	}
	// The straggler's backend job is cancelled best-effort; give the
	// async DELETE a moment.
	deadline := time.Now().Add(10 * time.Second)
	for len(fakes[primary.URL].deleted()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stalled primary never received a DELETE for the hedge loser")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if dels := fakes[primary.URL].deleted(); len(dels) != 1 {
		t.Fatalf("primary received %d DELETEs, want 1", len(dels))
	}
	// The primary's backend must NOT have been ejected: slow is not dead.
	if !primary.Healthy() {
		t.Fatal("straggling backend was ejected by a hedge win")
	}
}

// TestHedgeBoundedWaitWhenPrimaryFails: after a hedge is launched, a
// failing primary must not pin the cell on the hung duplicate forever —
// the dispatch client has no timeout, so hedged() has to bound its wait
// for the second racer before surfacing the first error.
func TestHedgeBoundedWaitWhenPrimaryFails(t *testing.T) {
	fakes := map[string]*fakeBackend{}
	var urls []string
	for i := 0; i < 2; i++ {
		f := &fakeBackend{}
		ts := httptest.NewServer(f.handler())
		t.Cleanup(ts.Close)
		fakes[ts.URL] = f
		urls = append(urls, ts.URL)
	}

	gw, _ := startGateway(t, urls, func(o *Options) {
		o.HedgeQuantile = 0.5
		o.HedgeMinSamples = 1
		o.HedgeMinDelay = time.Millisecond
	})
	// Prime the sampler so the hedge arms well before the primary fails.
	for i := 0; i < 8; i++ {
		gw.sampler.record(20 * time.Millisecond)
	}

	spec := service.JobSpec{Cell: &service.CellSpec{Bench: "fft", Mode: "TPE"}}
	key, _ := routeKey(&spec)
	primary, _, err := gw.pool.pick(key, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Primary straggles past the hedge delay, then fails; the hedge lands
	// on the other backend, which hangs forever.
	fakes[primary.URL].failAfter.Store(int64(200 * time.Millisecond))
	for u, f := range fakes {
		if u != primary.URL {
			f.stalled.Store(true)
		}
	}

	specJSON, _ := json.Marshal(spec)
	done := make(chan error, 1)
	go func() {
		_, _, err := gw.hedged(context.Background(), primary, &task{key: key, specJSON: specJSON})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("hedged returned success despite the primary failing")
		}
	case <-time.After(15 * time.Second):
		t.Fatal("hedged blocked unboundedly on the hung hedge after the primary failed")
	}
	fired, _ := gw.Metrics().HedgeStats()
	if fired != 1 {
		t.Fatalf("hedges fired=%d, want 1", fired)
	}
}
