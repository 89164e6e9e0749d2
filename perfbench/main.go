// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload for a fixed number of seconds over the public functions of
// internal/core, internal/cluster and internal/serve (and the loopback
// HTTP API), checks every answer against computations made apart from the
// program, and prints one JSON result line. From the repository root:
//
//	bash perfbench/run.sh --workload diimm_tcp --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// times the calls into each layer from outside and reports the per-layer
// split instead. README.md lists the workloads, inputs and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// Workload parameters. README.md records why each was chosen.
const (
	graphNodes    = 20000
	graphDegree   = 10
	graphUniform  = 0.15 // GenPreferential's uniform-attachment share
	graphSeed     = 1
	serviceSeed   = 1 // the services' sampling seed; see README on why it is fixed
	diimmK        = 50
	diimmEps      = 0.2
	machines      = 2 // ℓ: one sampling shard each, so ≤ nproc threads busy
	serveKMax     = 50
	serveEpsFloor = 0.25
	queryEpsBase  = 0.3  // queries ask ε in [0.3, 0.32): slack above the floor
	queryEpsStep  = 1e-6 // request i asks ε = base + i·step, so no (k, ε) repeats
	// query_update_mix follows the update storm of internal/bench/update.go:
	// its 64-op batches and k = 10, and in BENCH_UPDATE.json its client
	// completed 141 queries during 16 batches, so 8 whole queries per batch.
	updateEvery   = 9    // every 9th request is an update, after 8 queries
	updateOps     = 64   // edge operations per update batch
	updateK       = 10   // k of every query_update_mix query
	serviceSetups = 3    // query workloads' set-ups (graph, serve.New, Warm) before and again after the window
	mcRounds      = 4000 // Monte-Carlo cascades per spread estimate
	mcZ           = 3.0  // stderr multiple the MC checks allow
	mcSeed        = 0x5eed
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// opCount is the attempted/failed tally of one operation type.
type opCount struct {
	name              string
	attempted, failed int64
}

// run is the state a workload fills in: its metrics, op tallies and the
// outcome of its output checks.
type run struct {
	seed    uint64
	seconds float64
	trace   bool
	metrics map[string]metric
	ops     []*opCount
	errs    []string
}

// endToEnd and perLayer give every metric's unit; BENCHMARK.json lists
// the same names.
var endToEnd = map[string]string{
	"setup_s":       "s",
	"p50_ms":        "ms",
	"p90_ms":        "ms",
	"ops_per_cpu_s": "1/s",
	"spread_mc":     "nodes",
	"heap_mb":       "MB",
}

var perLayer = map[string]string{
	"cluster.connect_ms":              "ms",
	"imm.plan_ms":                     "ms",
	"imm.rounds":                      "count",
	"cluster.generate_ms":             "ms",
	"rrset.sets":                      "count",
	"rrset.edges_examined":            "count",
	"rrset.ns_per_edge":               "ns",
	"coverage.init_degrees_ms":        "ms",
	"coverage.select_ms":              "ms",
	"coverage.select_calls":           "count",
	"coverage.master_ms":              "ms",
	"cluster.rounds":                  "count",
	"cluster.bytes_sent":              "B",
	"cluster.bytes_received":          "B",
	"cluster.delta_pairs":             "count",
	"cluster.delta_bytes":             "B",
	"cluster.comm_ms":                 "ms",
	"cluster.gen_critical_ms":         "ms",
	"cluster.sel_critical_ms":         "ms",
	"core.residue_ms":                 "ms",
	"trace.overhead_ms":               "ms",
	"runtime.alloc_mb_per_op":         "MB",
	"runtime.gc_per_op":               "count",
	"serve.interference_ms":           "ms",
	"serve.http_overhead_ms":          "ms",
	"serve.transport_ms":              "ms",
	"serve.residue_ms":                "ms",
	"core.select_p50_ms":              "ms",
	"serve.certify_ms":                "ms",
	"serve.query_p50_ms":              "ms",
	"serve.alloc_kb_per_query":        "kB",
	"runtime.gc_per_1k_ops":           "count",
	"serve.theta":                     "count",
	"serve.warm_generate_ms":          "ms",
	"sketch.build_ms":                 "ms",
	"serve.update_p50_ms":             "ms",
	"cluster.repair_ms":               "ms",
	"mutate.repaired_sets_per_update": "count",
	"sketch.rebuild_ms":               "ms",
	"serve.splice_ms":                 "ms",
	"graph.overlay_edges":             "count",
}

func (r *run) set(name string, v float64) {
	unit, ok := endToEnd[name]
	if !ok {
		unit, ok = perLayer[name]
	}
	if !ok {
		panic("perfbench: undeclared metric " + name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *run) op(name string) *opCount {
	c := &opCount{name: name}
	r.ops = append(r.ops, c)
	return c
}

// check records a failed output check; any failed check fails the run.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

func main() {
	workload := flag.String("workload", "", "diimm_tcp | query_miss | query_update_mix")
	seed := flag.Uint64("seed", 1, "input seed: DIIMM's sampling seed, the query sequence and the update batches")
	seconds := flag.Float64("seconds", 20, "length of the timed window")
	trace := flag.Int("trace", 0, "1 reports the per-layer split instead of the end-to-end metrics")
	flag.Parse()

	r := &run{seed: *seed, seconds: *seconds, trace: *trace == 1, metrics: map[string]metric{}}
	var err error
	switch *workload {
	case "diimm_tcp":
		err = runDIIMM(r)
	case "query_miss":
		err = runQueries(r, false)
	case "query_update_mix":
		err = runQueries(r, true)
	default:
		err = fmt.Errorf("unknown workload %q", *workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	// A workload measures every end-to-end metric; a layer it does not
	// exercise did no work, so it reads 0.
	res := result{Correct: len(r.errs) == 0, Metrics: map[string]metric{}}
	table := endToEnd
	if r.trace {
		table = perLayer
	}
	for name, unit := range table {
		m, ok := r.metrics[name]
		if !ok && !r.trace {
			fmt.Fprintf(os.Stderr, "perfbench: %s measured no %s\n", *workload, name)
			os.Exit(1)
		}
		if !ok {
			m = metric{Unit: unit}
		}
		res.Metrics[name] = m
	}
	for _, c := range r.ops {
		fmt.Printf("ops %s: attempted %d failed %d\n", c.name, c.attempted, c.failed)
		res.Attempted += c.attempted
		res.Failed += c.failed
	}
	for _, e := range r.errs {
		fmt.Fprintln(os.Stderr, "check failed:", e)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// cpuSeconds is the process's user + system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// heapInuseMB collects garbage and returns HeapInuse in MB.
func heapInuseMB() float64 {
	runtime.GC()
	return float64(memStats().HeapInuse) / (1 << 20)
}

func memStats() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
