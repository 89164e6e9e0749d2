package main

import (
	"math"
	"math/rand/v2"

	"dimm/internal/graph"
)

// buildGraph makes the benchmark's dataset: a directed
// preferential-attachment graph with weighted-cascade probabilities
// p(u,v) = 1/indeg(v), the paper's weight model. It is the same for every
// --seed, so the seed varies what is asked of the program, not how large
// the program's samples have to be.
func buildGraph() (*graph.Graph, error) {
	g, err := graph.GenPreferential(graph.GenConfig{
		Nodes: graphNodes, AvgDegree: graphDegree, UniformAttach: graphUniform, Seed: graphSeed,
	})
	if err != nil {
		return nil, err
	}
	return graph.AssignWeights(g, graph.WeightedCascade, 0, 0)
}

func edgeKey(u, v uint32) uint64 { return uint64(u)<<32 | uint64(v) }

// edgeSet is the benchmark's own copy of the graph's edges. It applies
// the same updates it sends to the service, so answers can be checked by
// simulation on the graph as it stands, without asking the program.
type edgeSet struct {
	n    int
	prob map[uint64]float32
	keys []uint64       // every live edge once, for uniform picks
	pos  map[uint64]int // key → index in keys
}

func copyEdges(g *graph.Graph) *edgeSet {
	e := &edgeSet{
		n:    g.NumNodes(),
		prob: make(map[uint64]float32, g.NumEdges()),
		pos:  make(map[uint64]int, g.NumEdges()),
	}
	g.Edges(func(u, v uint32, p float32) { e.insert(u, v, p) })
	return e
}

func (e *edgeSet) insert(u, v uint32, p float32) {
	k := edgeKey(u, v)
	e.prob[k] = p
	e.pos[k] = len(e.keys)
	e.keys = append(e.keys, k)
}

func (e *edgeSet) remove(u, v uint32) {
	k := edgeKey(u, v)
	i := e.pos[k]
	last := e.keys[len(e.keys)-1]
	e.keys[i] = last
	e.pos[last] = i
	e.keys = e.keys[:len(e.keys)-1]
	delete(e.pos, k)
	delete(e.prob, k)
}

// nextBatch draws one update batch that is valid against the current
// edge set, no edge touched twice, and the batch that undoes it. It
// applies neither. The batch
// is made like the repository's update benchmark makes its churn
// (internal/bench/update.go, churnOps): 45% removals of live edges, 45%
// additions of absent edges at probability 0.01 + 0.1·U, and 10%
// reweights to half the old probability, here in fixed counts so every
// batch has the same make-up.
func (e *edgeSet) nextBatch(rng *rand.Rand) (ops, undo []graph.EdgeUpdate) {
	used := make(map[uint64]bool, updateOps)
	pickLive := func() (uint32, uint32, float32) {
		for {
			k := e.keys[rng.IntN(len(e.keys))]
			if !used[k] {
				used[k] = true
				return uint32(k >> 32), uint32(k), e.prob[k]
			}
		}
	}
	ops = make([]graph.EdgeUpdate, 0, updateOps)
	undo = make([]graph.EdgeUpdate, 0, updateOps)
	for i := 0; i < updateOps; i++ {
		switch share := float64(i) / updateOps; {
		case share < 0.45:
			u, v, p := pickLive()
			ops = append(ops, graph.EdgeUpdate{Op: graph.OpRemove, From: u, To: v})
			undo = append(undo, graph.EdgeUpdate{Op: graph.OpAdd, From: u, To: v, Prob: p})
		case share < 0.9:
			for {
				u, v := uint32(rng.IntN(e.n)), uint32(rng.IntN(e.n))
				k := edgeKey(u, v)
				if u == v || used[k] {
					continue
				}
				if _, ok := e.prob[k]; ok {
					continue
				}
				used[k] = true
				ops = append(ops, graph.EdgeUpdate{Op: graph.OpAdd, From: u, To: v, Prob: float32(0.01 + 0.1*rng.Float64())})
				undo = append(undo, graph.EdgeUpdate{Op: graph.OpRemove, From: u, To: v})
				break
			}
		default:
			u, v, p := pickLive()
			ops = append(ops, graph.EdgeUpdate{Op: graph.OpReweight, From: u, To: v, Prob: p / 2})
			undo = append(undo, graph.EdgeUpdate{Op: graph.OpReweight, From: u, To: v, Prob: p})
		}
	}
	return ops, undo
}

func (e *edgeSet) apply(ops []graph.EdgeUpdate) {
	for _, op := range ops {
		switch op.Op {
		case graph.OpAdd:
			e.insert(op.From, op.To, op.Prob)
		case graph.OpRemove:
			e.remove(op.From, op.To)
		case graph.OpReweight:
			e.prob[edgeKey(op.From, op.To)] = op.Prob
		}
	}
}

// simulator runs independent-cascade Monte-Carlo on a frozen out-CSR of
// an edgeSet.
type simulator struct {
	start []int32
	adj   []uint32
	prob  []float32
	stamp []uint32
	queue []uint32
}

func (e *edgeSet) simulator() *simulator {
	s := &simulator{
		start: make([]int32, e.n+1),
		adj:   make([]uint32, len(e.keys)),
		prob:  make([]float32, len(e.keys)),
		stamp: make([]uint32, e.n),
	}
	for _, k := range e.keys {
		s.start[k>>32+1]++
	}
	for i := 0; i < e.n; i++ {
		s.start[i+1] += s.start[i]
	}
	fill := append([]int32(nil), s.start[:e.n]...)
	for _, k := range e.keys {
		u := k >> 32
		s.adj[fill[u]] = uint32(k)
		s.prob[fill[u]] = e.prob[k]
		fill[u]++
	}
	return s
}

// spread estimates σ(seeds) under IC with a fixed RNG seed, so equal
// graphs and seed sets give equal numbers. It returns the mean and the
// standard error of the mean.
func (s *simulator) spread(seeds []uint32, rounds int, rngSeed uint64) (mean, stderr float64) {
	rng := rand.New(rand.NewPCG(rngSeed, 0x9e3779b97f4a7c15))
	for i := range s.stamp {
		s.stamp[i] = 0
	}
	var sum, sumSq float64
	for r := 1; r <= rounds; r++ {
		ep := uint32(r)
		q := s.queue[:0]
		for _, u := range seeds {
			if s.stamp[u] != ep {
				s.stamp[u] = ep
				q = append(q, u)
			}
		}
		for h := 0; h < len(q); h++ {
			u := q[h]
			for j := s.start[u]; j < s.start[u+1]; j++ {
				v := s.adj[j]
				if s.stamp[v] != ep && rng.Float32() < s.prob[j] {
					s.stamp[v] = ep
					q = append(q, v)
				}
			}
		}
		s.queue = q
		x := float64(len(q))
		sum += x
		sumSq += x * x
	}
	mean = sum / float64(rounds)
	variance := sumSq/float64(rounds) - mean*mean
	if variance < 0 {
		variance = 0
	}
	return mean, math.Sqrt(variance / float64(rounds))
}
