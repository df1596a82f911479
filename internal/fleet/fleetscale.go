package fleet

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"pcoup/internal/experiments"
	"pcoup/internal/machine"
	"pcoup/internal/service"
)

// The fleetscale experiment measures how sweep wall-clock scales with
// the backend count behind one gateway: for each fleet size it boots
// that many in-process pcserved backends (cold caches), runs a fixed
// unit-mix sweep through pcfleet, and then re-runs it to show the
// affinity payoff (the resubmission should be served almost entirely
// from the sharded caches). It lives in package fleet because the
// service layer imports internal/experiments, so the experiment cannot
// be defined there without a cycle; pcbench links it in via a blank
// import.
func init() {
	experiments.Register(experiments.Experiment{
		Name:      "fleetscale",
		Brief:     "sweep wall-clock through pcfleet vs backend count (extension; spawns local daemons)",
		SkipInAll: true,
		Run:       func(rc *experiments.RunContext) (any, error) { return FleetScale(rc.Context()) },
		Write: func(w io.Writer, _ *machine.Config, rows any) {
			WriteFleetScale(w, rows.([]FleetScaleRow))
		},
	})
}

// FleetScaleRow is one fleet size's measurement.
type FleetScaleRow struct {
	// Backends is the pcserved count behind the gateway.
	Backends int `json:"backends"`
	// Cells is the sweep's cell count.
	Cells int `json:"cells"`
	// ColdMS is the sweep wall-clock with empty backend caches.
	ColdMS float64 `json:"cold_ms"`
	// WarmMS is the wall-clock of resubmitting the identical sweep.
	WarmMS float64 `json:"warm_ms"`
	// Speedup is the 1-backend cold wall-clock over this row's.
	Speedup float64 `json:"speedup"`
	// AffinityHitRatio is cache hits over content-key-routed dispatches
	// during the warm pass: cells whose owner served them from its own
	// cache, over those plus the cells that were recomputed (peer-fill
	// hits count in neither). A cell stolen during the cold pass is
	// cached only on its thief. On the warm pass its owner probes its own
	// cache and then its next ring node's, so with 2 backends the copy is
	// always found, and with 4 the cell is recomputed whenever the thief
	// was a third backend.
	AffinityHitRatio float64 `json:"affinity_hit_ratio"`
	// ColdSteals is how many cells the cold pass moved between backend
	// queues (each leaves its cached copy off its owner).
	ColdSteals int64 `json:"cold_steals"`
	// WarmPeerFills is how many warm-pass cells a peer cache served:
	// cold-pass steals found on the owner's next ring node, and cells
	// stolen again during the warm pass found on their owner.
	WarmPeerFills int64 `json:"warm_peer_fills"`
}

// fleetScaleSweep is the fixed workload: every benchmark across a
// 3x2 unit grid in Coupled mode (24 cells), heavy enough that scatter
// parallelism is visible, small enough for CI.
func fleetScaleSweep() *service.SweepSpec {
	return &service.SweepSpec{Mode: "Coupled", MinIU: 1, MaxIU: 3, MinFPU: 1, MaxFPU: 2}
}

// FleetScale runs the scaling measurement for 1, 2, and 4 backends.
func FleetScale(ctx context.Context) ([]FleetScaleRow, error) {
	var rows []FleetScaleRow
	var baseline float64
	for _, n := range []int{1, 2, 4} {
		row, err := fleetScaleOne(ctx, n)
		if err != nil {
			return nil, fmt.Errorf("fleetscale %d backends: %w", n, err)
		}
		if baseline == 0 {
			baseline = row.ColdMS
		}
		if row.ColdMS > 0 {
			row.Speedup = baseline / row.ColdMS
		}
		rows = append(rows, *row)
	}
	return rows, nil
}

// fleetScaleOne boots n fresh backends plus a gateway, runs the sweep
// cold and warm, and tears everything down.
func fleetScaleOne(ctx context.Context, n int) (*FleetScaleRow, error) {
	var urls []string
	var stops []func()
	defer func() {
		for _, stop := range stops {
			stop()
		}
	}()
	for i := 0; i < n; i++ {
		url, stop, err := startLocalBackend()
		if err != nil {
			return nil, err
		}
		urls = append(urls, url)
		stops = append(stops, stop)
	}

	gw, err := New(Options{Pool: PoolOptions{Backends: urls, ProbeInterval: 200 * time.Millisecond}})
	if err != nil {
		return nil, err
	}
	if err := gw.Start(); err != nil {
		return nil, err
	}
	stops = append(stops, func() {
		sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		gw.Shutdown(sctx)
	})

	sw := fleetScaleSweep()
	cold, cells, err := runFleetSweep(ctx, gw, sw)
	if err != nil {
		return nil, err
	}
	coldLookups, coldHits := gw.Metrics().AffinityStats()
	coldSteals, coldFills := gw.Metrics().Steals(), gw.Metrics().PeerFillHits()
	warm, _, err := runFleetSweep(ctx, gw, sw)
	if err != nil {
		return nil, err
	}
	allLookups, allHits := gw.Metrics().AffinityStats()
	lookups, hits := allLookups-coldLookups, allHits-coldHits
	row := &FleetScaleRow{
		Backends:      n,
		Cells:         cells,
		ColdMS:        float64(cold) / float64(time.Millisecond),
		WarmMS:        float64(warm) / float64(time.Millisecond),
		ColdSteals:    coldSteals,
		WarmPeerFills: gw.Metrics().PeerFillHits() - coldFills,
	}
	if lookups > 0 {
		row.AffinityHitRatio = float64(hits) / float64(lookups)
	}
	return row, nil
}

// runFleetSweep submits sw through the gateway and waits for it.
func runFleetSweep(ctx context.Context, gw *Gateway, sw *service.SweepSpec) (time.Duration, int, error) {
	start := time.Now()
	job, err := gw.Submit(service.JobSpec{Sweep: &service.SweepSpec{
		Benches: sw.Benches, Mode: sw.Mode,
		MinIU: sw.MinIU, MaxIU: sw.MaxIU, MinFPU: sw.MinFPU, MaxFPU: sw.MaxFPU,
	}})
	if err != nil {
		return 0, 0, err
	}
	select {
	case <-job.Done():
	case <-ctx.Done():
		gw.jobs.Cancel(job.ID())
		<-job.Done()
		return 0, 0, ctx.Err()
	}
	v := job.View(false)
	if v.State != service.JobDone {
		return 0, 0, fmt.Errorf("sweep %s: %s", v.State, v.Error)
	}
	return time.Since(start), v.CellsTotal, nil
}

// startLocalBackend boots one in-process pcserved (loopback listener,
// cold cache) and returns its base URL plus a stop function.
func startLocalBackend() (string, func(), error) {
	srv := service.New(service.Options{})
	if err := srv.Start(); err != nil {
		return "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		return "", nil, err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	stop := func() {
		sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(sctx)
		httpSrv.Shutdown(context.Background())
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// WriteFleetScale renders the scaling table.
func WriteFleetScale(w io.Writer, rows []FleetScaleRow) {
	fmt.Fprintf(w, "Fleet scaling: sweep wall-clock through pcfleet vs backend count\n")
	fmt.Fprintf(w, "(cold: empty caches; warm: identical resubmission hitting the sharded caches)\n\n")
	fmt.Fprintf(w, "%9s %6s %10s %10s %8s %9s %12s %16s\n",
		"backends", "cells", "cold ms", "warm ms", "speedup", "affinity", "cold steals", "warm peer fills")
	for _, r := range rows {
		fmt.Fprintf(w, "%9d %6d %10.1f %10.1f %7.2fx %8.1f%% %12d %16d\n",
			r.Backends, r.Cells, r.ColdMS, r.WarmMS, r.Speedup, 100*r.AffinityHitRatio, r.ColdSteals, r.WarmPeerFills)
	}
}
