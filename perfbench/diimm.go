package main

import (
	"fmt"
	"math"
	"net"
	"os"
	"runtime"
	"slices"
	"time"

	"dimm/internal/cluster"
	"dimm/internal/core"
	"dimm/internal/coverage"
	"dimm/internal/diffusion"
	"dimm/internal/graph"
	"dimm/internal/imm"
)

// loopback is one op's cluster: ℓ workers served on loopback TCP ports.
type loopback struct {
	cl   *cluster.Cluster
	lis  []net.Listener
	conn []cluster.Conn
}

// startLoopback starts ℓ fresh workers with fixed seeds, so every op on
// the same graph draws the same samples (Cluster.Reset does not reseed
// the workers, so a reused cluster would not).
func startLoopback(g *graph.Graph, seed uint64) (*loopback, error) {
	lb := &loopback{}
	for i := 0; i < machines; i++ {
		lis, conn, err := cluster.StartLoopbackWorker(cluster.WorkerConfig{
			Graph: g, Model: diffusion.IC, Seed: cluster.DeriveSeed(seed, i), Parallelism: 1,
		})
		if err != nil {
			lb.close()
			return nil, err
		}
		lb.lis = append(lb.lis, lis)
		lb.conn = append(lb.conn, conn)
	}
	cl, err := cluster.New(lb.conn, g.NumNodes())
	if err != nil {
		lb.close()
		return nil, err
	}
	lb.cl = cl
	return lb, nil
}

func (lb *loopback) close() {
	if lb.cl != nil {
		_ = lb.cl.Close() // the op's result is already in hand
	} else {
		for _, c := range lb.conn {
			_ = c.Close()
		}
	}
	for _, l := range lb.lis {
		_ = l.Close()
	}
}

func diimmOptions(seed uint64) core.Options {
	return core.Options{K: diimmK, Eps: diimmEps, Machines: machines, Model: diffusion.IC, Seed: seed, Parallelism: 1}
}

// diimmOp is one untraced op: start the workers, run DIIMM from θ
// planning to seeds, close. inspect, when set, runs before the close on
// the still-open cluster and is not part of the returned wall time.
func diimmOp(g *graph.Graph, seed uint64, inspect func(*cluster.Cluster, *core.Result) error) (*core.Result, time.Duration, error) {
	start := time.Now()
	lb, err := startLoopback(g, seed)
	if err != nil {
		return nil, 0, err
	}
	res, err := core.RunDIIMMOnCluster(g.NumNodes(), lb.cl, diimmOptions(seed))
	wall := time.Since(start)
	if err == nil && inspect != nil {
		err = inspect(lb.cl, res)
	}
	closeStart := time.Now()
	lb.close()
	return res, wall + time.Since(closeStart), err
}

func runDIIMM(r *run) error {
	// setUp builds the graph, timed. setup_s is the median of the first
	// build and of one more before every op of the window, so its samples
	// spread over the run as the ops' do.
	var setups []float64
	setUp := func() (*graph.Graph, error) {
		runtime.GC()
		start := time.Now()
		g, err := buildGraph()
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		return g, nil
	}
	g, err := setUp()
	if err != nil {
		return err
	}
	n := g.NumNodes()
	sim := copyEdges(g).simulator()

	// The untimed warm-up op: its sample is gathered and checked, and its
	// answer is the reference every later op must reproduce.
	ref, _, err := diimmOp(g, r.seed, func(cl *cluster.Cluster, res *core.Result) error {
		sample, err := cl.GatherAll()
		if err != nil {
			return fmt.Errorf("gathering the warm-up sample: %w", err)
		}
		r.check(int64(sample.Count()) == res.Theta, "gathered %d RR sets, θ is %d", sample.Count(), res.Theta)
		if err := checkGreedy(sample, n, res.Seeds, res.Coverage); err != nil {
			r.check(false, "DIIMM greedy: %v", err)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("warm-up op: %w", err)
	}
	spread, se := sim.spread(ref.Seeds, mcRounds, mcSeed)
	bound := (1 - 1/math.E - diimmEps) * ref.LowerBound
	r.check(spread+mcZ*se >= bound, "MC spread %.1f ± %.1f below (1-1/e-ε)·LB = %.1f", spread, se, bound)
	fmt.Fprintf(os.Stderr, "diimm_tcp: θ=%d rounds=%d LB=%.1f spread_mc=%.1f±%.1f\n", ref.Theta, ref.Rounds, ref.LowerBound, spread, se)

	runs := r.op("diimm_run")
	same := func(res *core.Result) bool {
		return res.Theta == ref.Theta && slices.Equal(res.Seeds, ref.Seeds)
	}
	failMs := r.seconds * 1000

	if r.trace {
		return traceDIIMM(r, g, ref, same, runs)
	}

	var lats []float64
	var cpu float64
	var done int
	deadline := time.Now().Add(time.Duration(r.seconds * float64(time.Second)))
	for time.Now().Before(deadline) {
		if _, err := setUp(); err != nil {
			return err
		}
		runtime.GC()
		c0 := cpuSeconds()
		res, wall, err := diimmOp(g, r.seed, nil)
		// Collect the op's own garbage inside its CPU account, so no op
		// pays for the previous one.
		runtime.GC()
		cpu += cpuSeconds() - c0
		runs.attempted++
		if err != nil {
			runs.failed++
			lats = append(lats, failMs)
			fmt.Fprintln(os.Stderr, "diimm op:", err)
			continue
		}
		r.check(same(res), "op %d: θ=%d seeds %v differ from the warm-up op's", runs.attempted, res.Theta, res.Seeds)
		lats = append(lats, ms(wall))
		done++
	}

	// State-open heap: one more op, measured before its cluster closes.
	var heap float64
	if _, _, err := diimmOp(g, r.seed, func(*cluster.Cluster, *core.Result) error {
		heap = heapInuseMB()
		return nil
	}); err != nil {
		return fmt.Errorf("heap op: %w", err)
	}

	r.set("setup_s", median(setups))
	r.set("p50_ms", quantile(lats, 0.5))
	r.set("p90_ms", quantile(lats, 0.9))
	r.set("ops_per_cpu_s", float64(done)/cpu)
	r.set("spread_mc", spread)
	r.set("heap_mb", heap)
	return nil
}

// tracedEngine is the benchmark's own imm.Engine over a cluster, the same
// adapter core uses for DIIMM, with the calls into each layer timed.
type tracedEngine struct {
	cl    *cluster.Cluster
	count int64
	gen   time.Duration
	sel   timedOracle
	// greedy is the wall time of coverage.RunGreedy; what the oracle
	// calls do not account for is the master's bucket scan.
	greedy time.Duration
}

func (e *tracedEngine) Generate(target int64) error {
	add := target - e.count
	if add <= 0 {
		return nil
	}
	start := time.Now()
	stats, err := e.cl.Generate(add)
	e.gen += time.Since(start)
	if err != nil {
		return err
	}
	e.count = stats.Count
	return nil
}

func (e *tracedEngine) Count() int64 { return e.count }

func (e *tracedEngine) SelectK(k int) (*coverage.Result, error) {
	e.sel.inner = e.cl.Oracle()
	start := time.Now()
	res, err := coverage.RunGreedy(&e.sel, k)
	e.greedy += time.Since(start)
	return res, err
}

// timedOracle times the NEWGREEDI map stage: the degree relabel that
// starts each greedy and every per-seed delta round.
type timedOracle struct {
	inner    coverage.Oracle
	init     time.Duration
	sel      time.Duration
	selCalls int64
}

func (o *timedOracle) NumItems() int { return o.inner.NumItems() }

func (o *timedOracle) InitialDegrees() ([]int64, error) {
	start := time.Now()
	deg, err := o.inner.InitialDegrees()
	o.init += time.Since(start)
	return deg, err
}

func (o *timedOracle) Select(u uint32) ([]coverage.Delta, error) {
	start := time.Now()
	d, err := o.inner.Select(u)
	o.sel += time.Since(start)
	o.selCalls++
	return d, err
}

// layerTimes is one traced op's split.
type layerTimes struct {
	wall, connect, plan, gen, init, sel, master time.Duration
	selCalls, rounds, theta, edges              int64
	m                                           cluster.Metrics // registry deltas over the op
}

// tracedOp runs one op through tracedEngine and imm.Run.
func tracedOp(g *graph.Graph, seed uint64) (*imm.Result, layerTimes, error) {
	start := time.Now()
	lb, err := startLoopback(g, seed)
	if err != nil {
		return nil, layerTimes{}, err
	}
	connect := time.Since(start)
	res, lt, err := tracedRun(lb.cl, g.NumNodes(), seed)
	closeStart := time.Now()
	lb.close()
	lt.connect += connect + time.Since(closeStart)
	lt.wall = time.Since(start)
	return res, lt, err
}

// tracedRun is the body of a traced op on an open cluster. The Reset and
// Stats round trips count as connect time.
func tracedRun(cl *cluster.Cluster, n int, seed uint64) (*imm.Result, layerTimes, error) {
	var lt layerTimes
	opt := diimmOptions(seed)
	before := cl.Metrics()
	start := time.Now()
	if err := cl.Reset(); err != nil {
		return nil, lt, err
	}
	lt.connect = time.Since(start)

	start = time.Now()
	params, err := imm.ComputeParams(n, opt.K, opt.Eps, 1/float64(n))
	lt.plan = time.Since(start)
	if err != nil {
		return nil, lt, err
	}
	e := &tracedEngine{cl: cl}
	res, err := imm.Run(e, params)
	if err != nil {
		return nil, lt, err
	}
	start = time.Now()
	stats, err := cl.Stats()
	lt.connect += time.Since(start)
	if err != nil {
		return nil, lt, err
	}
	lt.m = metricsDelta(before, cl.Metrics())
	lt.gen, lt.init, lt.sel = e.gen, e.sel.init, e.sel.sel
	lt.master = e.greedy - e.sel.init - e.sel.sel
	lt.selCalls, lt.rounds, lt.theta, lt.edges = e.sel.selCalls, int64(res.Rounds), res.Theta, stats.EdgesExamined
	return res, lt, nil
}

func metricsDelta(a, b cluster.Metrics) cluster.Metrics {
	return cluster.Metrics{
		GenCritical:   b.GenCritical - a.GenCritical,
		GenTotal:      b.GenTotal - a.GenTotal,
		SelCritical:   b.SelCritical - a.SelCritical,
		Comm:          b.Comm - a.Comm,
		BytesSent:     b.BytesSent - a.BytesSent,
		BytesReceived: b.BytesReceived - a.BytesReceived,
		DeltaPairs:    b.DeltaPairs - a.DeltaPairs,
		DeltaBytes:    b.DeltaBytes - a.DeltaBytes,
		Rounds:        b.Rounds - a.Rounds,
	}
}

// traceDIIMM alternates untraced ops (through core) and traced ops
// (through tracedEngine) for the window, and reports the traced ops'
// mean split, the residue, and the tracing overhead.
func traceDIIMM(r *run, g *graph.Graph, ref *core.Result, same func(*core.Result) bool, runs *opCount) error {
	var plain, traced []float64
	var lts []layerTimes
	var allocMB, gcs float64
	deadline := time.Now().Add(time.Duration(r.seconds * float64(time.Second)))
	for i := 0; time.Now().Before(deadline); i++ {
		runtime.GC()
		runs.attempted++
		if i%2 == 0 {
			m0 := memStats()
			res, wall, err := diimmOp(g, r.seed, nil)
			m1 := memStats()
			if err != nil {
				runs.failed++
				fmt.Fprintln(os.Stderr, "diimm op:", err)
				continue
			}
			r.check(same(res), "untraced op: seeds differ from the warm-up op's")
			plain = append(plain, ms(wall))
			allocMB += float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
			gcs += float64(m1.NumGC - m0.NumGC)
			continue
		}
		res, lt, err := tracedOp(g, r.seed)
		if err != nil {
			runs.failed++
			fmt.Fprintln(os.Stderr, "traced op:", err)
			continue
		}
		r.check(res.Theta == ref.Theta && slices.Equal(res.Seeds, ref.Seeds), "traced op: seeds differ from the untraced op's")
		traced = append(traced, ms(lt.wall))
		lts = append(lts, lt)
	}
	if len(lts) == 0 || len(plain) == 0 {
		return fmt.Errorf("window too short for a traced and an untraced op")
	}
	avg := func(f func(layerTimes) float64) float64 {
		var s float64
		for _, lt := range lts {
			s += f(lt)
		}
		return s / float64(len(lts))
	}
	avgMs := func(f func(layerTimes) time.Duration) float64 {
		return avg(func(lt layerTimes) float64 { return ms(f(lt)) })
	}
	wall := avgMs(func(lt layerTimes) time.Duration { return lt.wall })
	layers := avgMs(func(lt layerTimes) time.Duration {
		return lt.connect + lt.plan + lt.gen + lt.init + lt.sel + lt.master
	})
	gen := avgMs(func(lt layerTimes) time.Duration { return lt.gen })
	edges := avg(func(lt layerTimes) float64 { return float64(lt.edges) })
	genTotal := avg(func(lt layerTimes) float64 { return float64(lt.m.GenTotal.Nanoseconds()) })

	r.set("cluster.connect_ms", avgMs(func(lt layerTimes) time.Duration { return lt.connect }))
	r.set("imm.plan_ms", avgMs(func(lt layerTimes) time.Duration { return lt.plan }))
	r.set("imm.rounds", avg(func(lt layerTimes) float64 { return float64(lt.rounds) }))
	r.set("cluster.generate_ms", gen)
	r.set("rrset.sets", avg(func(lt layerTimes) float64 { return float64(lt.theta) }))
	r.set("rrset.edges_examined", edges)
	r.set("rrset.ns_per_edge", genTotal/edges)
	r.set("coverage.init_degrees_ms", avgMs(func(lt layerTimes) time.Duration { return lt.init }))
	r.set("coverage.select_ms", avgMs(func(lt layerTimes) time.Duration { return lt.sel }))
	r.set("coverage.select_calls", avg(func(lt layerTimes) float64 { return float64(lt.selCalls) }))
	r.set("coverage.master_ms", avgMs(func(lt layerTimes) time.Duration { return lt.master }))
	r.set("cluster.rounds", avg(func(lt layerTimes) float64 { return float64(lt.m.Rounds) }))
	r.set("cluster.bytes_sent", avg(func(lt layerTimes) float64 { return float64(lt.m.BytesSent) }))
	r.set("cluster.bytes_received", avg(func(lt layerTimes) float64 { return float64(lt.m.BytesReceived) }))
	r.set("cluster.delta_pairs", avg(func(lt layerTimes) float64 { return float64(lt.m.DeltaPairs) }))
	r.set("cluster.delta_bytes", avg(func(lt layerTimes) float64 { return float64(lt.m.DeltaBytes) }))
	r.set("cluster.comm_ms", avgMs(func(lt layerTimes) time.Duration { return lt.m.Comm }))
	r.set("cluster.gen_critical_ms", avgMs(func(lt layerTimes) time.Duration { return lt.m.GenCritical }))
	r.set("cluster.sel_critical_ms", avgMs(func(lt layerTimes) time.Duration { return lt.m.SelCritical }))
	r.set("core.residue_ms", wall-layers)
	r.set("trace.overhead_ms", median(traced)-median(plain))
	r.set("runtime.alloc_mb_per_op", allocMB/float64(len(plain)))
	r.set("runtime.gc_per_op", gcs/float64(len(plain)))
	fmt.Fprintf(os.Stderr, "diimm_tcp traced: %d traced ops, wall %.1f ms, layers %.1f ms\n", len(lts), wall, layers)
	return nil
}
