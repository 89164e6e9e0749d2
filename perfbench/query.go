package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dimm/internal/cluster"
	"dimm/internal/core"
	"dimm/internal/diffusion"
	"dimm/internal/graph"
	"dimm/internal/metrics"
	"dimm/internal/rrset"
	"dimm/internal/serve"
)

// Traced-run phase sizes.
const (
	replayQueries = 1000 // window queries replayed in process
	selectQueries = 300  // of those, selections timed on the benchmark's sample
	healthProbes  = 300
	spreadChecks  = 3 // latest answers simulated after the window
)

// queryAt is request i's (k, ε). ε grows with i, so no pair repeats and
// no answer can come from the LRU. On query_miss k is a seeded hash of i
// over 1..k_max, as the repository's serve benchmark spreads k over
// 1..k_max (internal/bench/serve.go); on query_update_mix it is updateK.
func (s *service) queryAt(seed uint64, i int64) (int, float64) {
	eps := queryEpsBase + float64(i)*queryEpsStep
	if s.dynamic {
		return updateK, eps
	}
	h := seed ^ uint64(i)*0x9e3779b97f4a7c15
	h ^= h >> 31
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 29
	return 1 + int(h%serveKMax), eps
}

// service is one query workload's open state.
type service struct {
	dynamic bool
	g       *graph.Graph
	svc     *serve.Service
	warm    *serve.Answer
	url     string
	srv     *http.Server
	served  chan error
	client  *http.Client
}

func newService(dynamic bool) (*service, error) {
	g, err := buildGraph()
	if err != nil {
		return nil, err
	}
	svc, err := serve.New(serve.Config{
		Graph: g, Model: diffusion.IC, Seed: serviceSeed, Machines: machines, Parallelism: 1,
		KMax: serveKMax, EpsFloor: serveEpsFloor, Dynamic: dynamic,
	})
	if err != nil {
		return nil, err
	}
	warm, err := svc.Warm()
	if err != nil {
		svc.Close()
		return nil, fmt.Errorf("warming: %w", err)
	}
	return &service{dynamic: dynamic, g: g, svc: svc, warm: warm}, nil
}

// listen serves the service's HTTP API on a loopback port.
func (s *service) listen() error {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.url = "http://" + lis.Addr().String()
	s.srv = &http.Server{Handler: s.svc.Handler()}
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(lis) }()
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2, DisableCompression: true}}
	return nil
}

func (s *service) close() {
	if s.srv != nil {
		_ = s.srv.Close() // no request is in flight any more
		<-s.served
		s.client.CloseIdleConnections()
	}
	_ = s.svc.Close()
}

// post sends one JSON request and returns the round-trip time, from
// sending the request to reading the whole response.
func (s *service) post(path string, body, out any) (time.Duration, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	resp, err := s.client.Post(s.url+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		return 0, err
	}
	payload, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rtt := time.Since(start)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("POST %s: %s: %s", path, resp.Status, bytes.TrimSpace(payload))
	}
	return rtt, json.Unmarshal(payload, out)
}

type updateBody struct {
	Seq uint64     `json:"seq"`
	Ops []updateOp `json:"ops"`
}

type updateOp struct {
	Op   string  `json:"op"`
	From uint32  `json:"from"`
	To   uint32  `json:"to"`
	Prob float32 `json:"prob,omitempty"`
}

func updateRequest(seq uint64, ops []graph.EdgeUpdate) updateBody {
	b := updateBody{Seq: seq, Ops: make([]updateOp, len(ops))}
	for i, op := range ops {
		b.Ops[i] = updateOp{Op: op.Op.String(), From: op.From, To: op.To, Prob: op.Prob}
	}
	return b
}

// window is what the timed window of a query workload observed.
type window struct {
	lats       []float64 // every op, failed ones at the window length
	queryLats  []float64
	updateLats []float64
	checks     *answerChecks
	replay     []int64 // the first answered requests' indexes, for the traced replay
	version    uint64  // graph version after the window's updates
	done       int64
	cpu        float64
	gcs        uint32
	// Per-update registry deltas (traced runs only).
	repairNs, rebuildNs, repaired []float64
}

// answered checks one answer and notes its request for the replay.
func (w *window) answered(r *run, i int64, a *serve.Answer) {
	w.checks.add(r, i, a)
	if len(w.replay) < replayQueries {
		w.replay = append(w.replay, i)
	}
}

func runQueries(r *run, dynamic bool) error {
	var setups []float64
	setUp := func() (*service, error) {
		runtime.GC()
		start := time.Now()
		s, err := newService(dynamic)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		return s, nil
	}
	var s *service
	for i := 0; i < serviceSetups; i++ {
		if s != nil {
			s.close()
		}
		var err error
		if s, err = setUp(); err != nil {
			return err
		}
	}
	err := s.measure(r)
	s.close()
	if err != nil || r.trace {
		return err
	}
	// As many set-ups again after the window, so setup_s samples the host
	// at both ends of the run.
	for i := 0; i < serviceSetups; i++ {
		s, err := setUp()
		if err != nil {
			return err
		}
		s.close()
	}
	r.set("setup_s", median(setups))
	return nil
}

// measure runs the timed window on the last service set up, checks what
// it served, and reports every metric but setup_s (or, traced, the
// per-layer split).
func (s *service) measure(r *run) error {
	warmStats := s.svc.Stats()
	warmSnap := s.svc.MetricsSnapshot()

	// The benchmark's own edge copy is not the service's memory, so it is
	// kept out of heap_mb: query_miss makes it after heap_mb is taken,
	// and query_update_mix, which needs it during the window, subtracts
	// the heap the copy took when it was made.
	var edges *edgeSet
	var copyMB, spread float64
	checkWarm := func() {
		var se float64
		spread, se = edges.simulator().spread(s.warm.Seeds, mcRounds, mcSeed)
		r.check(spread+mcZ*se >= s.warm.SpreadLower, "warm answer: MC spread %.1f ± %.1f below SpreadLower %.1f", spread, se, s.warm.SpreadLower)
		fmt.Fprintf(os.Stderr, "serve: θ=%d grow_rounds=%d spread_mc=%.1f±%.1f lower=%.1f\n", s.warm.Theta, warmStats.GrowRounds, spread, se, s.warm.SpreadLower)
	}
	if s.dynamic {
		before := heapInuseMB()
		edges = copyEdges(s.g)
		copyMB = heapInuseMB() - before
		checkWarm()
	}

	if err := s.listen(); err != nil {
		return err
	}
	queries := r.op("query")
	var w *window
	if s.dynamic {
		w = s.mixWindow(r, edges, queries, r.op("update"))
	} else {
		w = s.missWindow(r, queries)
	}
	heap := heapInuseMB() - copyMB
	if edges == nil {
		edges = copyEdges(s.g)
		checkWarm()
	}

	// Checks on what the window served.
	st := s.svc.Stats()
	r.check(st.CacheHits == warmStats.CacheHits, "%d answers came from the LRU", st.CacheHits-warmStats.CacheHits)
	r.check(st.GrowRounds == warmStats.GrowRounds, "queries grew the sample by %d rounds", st.GrowRounds-warmStats.GrowRounds)
	r.check(st.Remirrors == 0, "%d updates re-mirrored the sample", st.Remirrors)
	s.checkSpreads(r, edges, w)

	if r.trace {
		return s.traceQueries(r, w, warmSnap)
	}
	r.set("p50_ms", quantile(w.lats, 0.5))
	r.set("p90_ms", quantile(w.lats, 0.9))
	r.set("ops_per_cpu_s", float64(w.done)/w.cpu)
	r.set("spread_mc", spread)
	r.set("heap_mb", heap)
	return nil
}

// checkSpreads simulates, on the benchmark's own edge set, the latest
// answers given on the final graph version, and checks that each
// certificate's SpreadLower is not above the simulated spread.
func (s *service) checkSpreads(r *run, edges *edgeSet, w *window) {
	sim := edges.simulator()
	checked := 0
	for i, a := range w.checks.last {
		if a.GraphVersion != w.version {
			continue
		}
		m, se := sim.spread(a.Seeds, mcRounds, mcSeed+uint64(i))
		r.check(m+mcZ*se >= a.SpreadLower, "k=%d answer: MC spread %.1f ± %.1f below SpreadLower %.1f", a.K, m, se, a.SpreadLower)
		checked++
	}
	r.check(checked > 0, "no answer on the final graph version to simulate")
}

// missWindow runs two closed-loop clients sending certified queries
// whose (k, ε) never repeat.
func (s *service) missWindow(r *run, queries *opCount) *window {
	const clients = 2
	w := &window{checks: newAnswerChecks(s.warm.Theta)}
	var next atomic.Int64
	var mu sync.Mutex
	failMs := r.seconds * 1000
	m0, c0 := memStats(), cpuSeconds()
	deadline := time.Now().Add(time.Duration(r.seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				k, eps := s.queryAt(r.seed, i)
				var a serve.Answer
				rtt, err := s.post("/v1/seeds", map[string]any{"k": k, "eps": eps}, &a)
				mu.Lock()
				queries.attempted++
				if err != nil {
					queries.failed++
					w.lats = append(w.lats, failMs)
					fmt.Fprintln(os.Stderr, "query:", err)
				} else {
					w.lats = append(w.lats, ms(rtt))
					w.queryLats = append(w.queryLats, ms(rtt))
					w.answered(r, i, &a)
					w.done++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	w.cpu = cpuSeconds() - c0
	w.gcs = memStats().NumGC - m0.NumGC
	return w
}

// mixWindow runs one closed-loop client over a fixed seeded sequence:
// certified queries whose (k, ε) never repeat, and every updateEvery-th
// request an edge-update batch valid against the benchmark's own edge set.
// Every second batch undoes the one before it, so the graph never drifts
// more than one batch from the warmed one, however long the run: left to
// accumulate, the churn eventually fails a certificate and grows the
// sample, at a request that depends on the seed and on how fast the host
// runs.
func (s *service) mixWindow(r *run, edges *edgeSet, queries, updates *opCount) *window {
	w := &window{checks: newAnswerChecks(s.warm.Theta)}
	var undo []graph.EdgeUpdate
	rng := rand.New(rand.NewPCG(r.seed, 0xda7a))
	failMs := r.seconds * 1000
	theta := s.warm.Theta
	m0, c0 := memStats(), cpuSeconds()
	deadline := time.Now().Add(time.Duration(r.seconds * float64(time.Second)))
	var i int64
	for ; time.Now().Before(deadline); i++ {
		if (i+1)%updateEvery != 0 {
			k, eps := s.queryAt(r.seed, i)
			var a serve.Answer
			rtt, err := s.post("/v1/seeds", map[string]any{"k": k, "eps": eps}, &a)
			queries.attempted++
			if err != nil {
				queries.failed++
				w.lats = append(w.lats, failMs)
				fmt.Fprintln(os.Stderr, "query:", err)
				continue
			}
			r.check(a.GraphVersion == w.version, "request %d answered on graph version %d, not %d", i, a.GraphVersion, w.version)
			w.lats = append(w.lats, ms(rtt))
			w.queryLats = append(w.queryLats, ms(rtt))
			w.answered(r, i, &a)
			w.done++
			continue
		}
		var ops, next []graph.EdgeUpdate
		if undo != nil {
			ops = undo
		} else {
			ops, next = edges.nextBatch(rng)
		}
		seq := w.version + 1
		var before updateCounters
		if r.trace {
			before = s.updateCounters()
		}
		var res serve.UpdateResult
		rtt, err := s.post("/v1/update", updateRequest(seq, ops), &res)
		updates.attempted++
		if err != nil {
			updates.failed++
			w.lats = append(w.lats, failMs)
			fmt.Fprintln(os.Stderr, "update:", err)
			continue
		}
		edges.apply(ops)
		undo = next
		w.version = seq
		r.check(res.Applied && res.Seq == seq && res.GraphVersion == seq, "update %d: applied=%v seq=%d graph_version=%d", seq, res.Applied, res.Seq, res.GraphVersion)
		r.check(res.Theta == theta, "update %d: θ changed from %d to %d", seq, theta, res.Theta)
		r.check(!res.Remirrored, "update %d re-mirrored the sample", seq)
		r.check(res.Repaired > 0, "update %d repaired no RR set", seq)
		if r.trace {
			after := s.updateCounters()
			w.repairNs = append(w.repairNs, after.repairNs-before.repairNs)
			w.rebuildNs = append(w.rebuildNs, after.rebuildNs-before.rebuildNs)
			w.repaired = append(w.repaired, after.repaired-before.repaired)
		}
		w.lats = append(w.lats, ms(rtt))
		w.updateLats = append(w.updateLats, ms(rtt))
		w.done++
	}
	w.cpu = cpuSeconds() - c0
	w.gcs = memStats().NumGC - m0.NumGC
	// One more query, outside the window, so the final graph version
	// always has an answer to simulate.
	k, eps := s.queryAt(r.seed, i)
	if a, err := s.svc.Query(k, eps); err != nil {
		r.check(false, "closing query: %v", err)
	} else {
		w.answered(r, i, a)
	}
	return w
}

// updateCounters are the registry counters an update moves: worker
// repair time (the clusters' generation phase), sketch rebuild time and
// repaired RR sets.
type updateCounters struct{ repairNs, rebuildNs, repaired float64 }

func (s *service) updateCounters() updateCounters {
	snap := s.svc.MetricsSnapshot()
	return updateCounters{
		repairNs:  float64(snap["r1.cluster.gen.critical_ns"].Sum + snap["r2.cluster.gen.critical_ns"].Sum),
		rebuildNs: float64(snap["svc.sketch.build_ns"].Sum),
		repaired:  float64(snap["svc.update.repaired_sets"].Sum),
	}
}

// traceQueries reports the query path's split. The window's round trips
// ran without wrappers; the layers come from more phases on the same
// service: the window's queries replayed alone, in process through
// Service.QueryMode and over HTTP, core.SelectFromSample over a same-θ
// sample the benchmark builds itself, and bare /healthz round trips.
func (s *service) traceQueries(r *run, w *window, warmSnap metrics.Snapshot) error {
	n := s.g.NumNodes()
	r.set("serve.theta", float64(s.warm.Theta))
	r.set("serve.warm_generate_ms", float64(warmSnap["r1.cluster.gen.critical_ns"].Sum+warmSnap["r2.cluster.gen.critical_ns"].Sum)/1e6)
	r.set("sketch.build_ms", float64(warmSnap["svc.sketch.build_ns"].Sum)/1e6)
	r.set("runtime.gc_per_1k_ops", float64(w.gcs)/float64(w.done)*1000)

	// Replay the window's first queries one at a time, each in process
	// and over HTTP (alternating which goes first), at ε shifted by a
	// fraction of a step so the LRU still never answers. The paired
	// differences give the HTTP overhead.
	replay := w.replay
	inProc := make([]float64, len(replay))
	alone := make([]float64, len(replay))
	diffs := make([]float64, len(replay))
	var alloc uint64
	for j, i := range replay {
		k, eps := s.queryAt(r.seed, i)
		local := func() error {
			m0 := memStats()
			start := time.Now()
			a, err := s.svc.QueryMode(k, eps+queryEpsStep/4, serve.ModeCertified)
			inProc[j] = ms(time.Since(start))
			alloc += memStats().TotalAlloc - m0.TotalAlloc
			if err != nil {
				return fmt.Errorf("in-process replay: %w", err)
			}
			r.check(a.GrowRounds == 0 && !a.Cached, "in-process replay k=%d: grow_rounds=%d cached=%v", k, a.GrowRounds, a.Cached)
			return nil
		}
		remote := func() error {
			var a serve.Answer
			rtt, err := s.post("/v1/seeds", map[string]any{"k": k, "eps": eps + queryEpsStep/2}, &a)
			if err != nil {
				return fmt.Errorf("HTTP replay: %w", err)
			}
			r.check(a.GrowRounds == 0 && !a.Cached, "HTTP replay k=%d: grow_rounds=%d cached=%v", k, a.GrowRounds, a.Cached)
			alone[j] = ms(rtt)
			return nil
		}
		first, second := local, remote
		if j%2 == 1 {
			first, second = remote, local
		}
		if err := first(); err != nil {
			return err
		}
		if err := second(); err != nil {
			return err
		}
		diffs[j] = alone[j] - inProc[j]
	}
	queryP50, aloneP50 := median(inProc), median(alone)

	// Selection alone, over a same-θ sample built through the cluster API.
	sample, idx, err := buildSample(s.g, r.seed, s.warm.Theta)
	if err != nil {
		return err
	}
	sel := replay
	if len(sel) > selectQueries {
		sel = sel[:selectQueries]
	}
	selLats := make([]float64, len(sel))
	for j, i := range sel {
		k, _ := s.queryAt(r.seed, i)
		start := time.Now()
		if _, err := core.SelectFromSample(sample, idx, n, k, 1); err != nil {
			return err
		}
		selLats[j] = ms(time.Since(start))
	}
	selectP50 := median(selLats)
	sample, idx = nil, nil

	// Bare transport: /healthz round trips from the same client.
	var health []float64
	for j := 0; j < healthProbes; j++ {
		start := time.Now()
		resp, err := s.client.Get(s.url + "/healthz")
		if err != nil {
			return err
		}
		_, _ = io.Copy(io.Discard, resp.Body) // only the round trip matters
		resp.Body.Close()
		health = append(health, ms(time.Since(start)))
	}
	transport := median(health)

	overhead := median(diffs)
	r.set("serve.interference_ms", median(w.queryLats)-aloneP50)
	r.set("serve.query_p50_ms", queryP50)
	r.set("serve.http_overhead_ms", overhead)
	r.set("core.select_p50_ms", selectP50)
	r.set("serve.certify_ms", queryP50-selectP50)
	r.set("serve.transport_ms", transport)
	r.set("serve.residue_ms", overhead-transport)
	r.set("serve.alloc_kb_per_query", float64(alloc)/1024/float64(len(replay)))
	if len(w.updateLats) > 0 {
		repair, rebuild := mean(w.repairNs)/1e6, mean(w.rebuildNs)/1e6
		r.set("serve.update_p50_ms", median(w.updateLats))
		r.set("cluster.repair_ms", repair)
		r.set("sketch.rebuild_ms", rebuild)
		r.set("mutate.repaired_sets_per_update", mean(w.repaired))
		r.set("serve.splice_ms", mean(w.updateLats)-repair-rebuild)
		r.set("graph.overlay_edges", float64(s.g.OverlayEdges()))
	}
	fmt.Fprintf(os.Stderr, "serve traced: window rtt p50 %.3f ms, alone %.3f ms, in-process %.3f ms, select %.3f ms, healthz %.3f ms\n",
		median(w.queryLats), aloneP50, queryP50, selectP50, transport)
	return nil
}

// buildSample draws θ RR sets on a fresh in-process cluster, gathers them
// and indexes them: the same kind of sample the service selects from.
func buildSample(g *graph.Graph, seed uint64, theta int64) (*rrset.Collection, *rrset.Index, error) {
	cfgs := make([]cluster.WorkerConfig, machines)
	for i := range cfgs {
		cfgs[i] = cluster.WorkerConfig{Graph: g, Model: diffusion.IC, Seed: cluster.DeriveSeed(seed^0x0111, i), Parallelism: 1}
	}
	cl, err := cluster.NewLocal(cfgs, g.NumNodes())
	if err != nil {
		return nil, nil, err
	}
	defer cl.Close()
	if _, err := cl.Generate(theta); err != nil {
		return nil, nil, err
	}
	c, err := cl.GatherAll()
	if err != nil {
		return nil, nil, err
	}
	idx, err := rrset.BuildIndex(c, g.NumNodes())
	return c, idx, err
}
