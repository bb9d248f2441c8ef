package core

import (
	"slices"

	"comparisondiag/internal/bitset"
	"comparisondiag/internal/graph"
	"comparisondiag/internal/syndrome"
)

const (
	// parallelFinalMinNodes gates Options.FinalWorkers: below this many
	// nodes the frontier never grows large enough to pay for per-round
	// goroutine coordination.
	parallelFinalMinNodes = 4096
	// parallelFrontierMin is the per-round threshold: smaller frontiers
	// are grown in-line on the calling goroutine.
	parallelFrontierMin = 256
)

// parallelAdmission records one 0-answer found by a worker: tester u
// vouched for non-member v.
type parallelAdmission struct {
	v, u int32
}

// SetBuilderParallel is SetBuilder with the growth rounds split across
// workers — the final-pass variant for multi-million-node graphs. The
// adjacency may be CSR-backed or implicit (graph.CayleyAdjacency):
// workers on an implicit adjacency generate neighbours into private
// buffers, so descriptor-bound engines fan out exactly like CSR ones.
// It allocates a fresh Scratch; hot paths should reuse one via an
// Engine (Options.FinalWorkers) instead.
//
// The result — U, Parent, Contributors, Rounds, AllHealthy — is
// identical to the sequential SetBuilder: within a round every frontier
// neighbour of a non-member may test it, and the least tester answering
// 0 becomes the parent, which is exactly the sequential tie-break. The
// look-up COUNT may exceed the sequential pass, because workers cannot
// observe admissions made concurrently in the same round and therefore
// keep testing nodes a sequential sweep would already have admitted.
// Callers that need the paper's exact look-up economy use the
// sequential pass; callers that need wall-clock on huge graphs use this
// one. (The engine's word kernels have a stronger parallel mode that
// keeps even the look-up count exact — see runWordKernel.)
func SetBuilderParallel(a graph.Adjacencer, s syndrome.Syndrome, u0 int32, delta int, restrict *bitset.Set, workers int) *SetBuilderResult {
	if workers = ClampWorkers(workers); workers < 2 {
		// One hardware thread: the barrier machinery cannot pay for
		// itself, and the sequential pass is additionally look-up-exact.
		return SetBuilderInto(NewScratch(a.N()), a, s, u0, delta, restrict)
	}
	return setBuilderParallelInto(NewScratch(a.N()), a, s, u0, delta, restrict, workers)
}

// setBuilderParallelInto runs the parallel growth rounds inside sc.
// workers must be ≥ 2; each worker takes a sharded syndrome view so
// look-up counting stays exact without a contended atomic, and (on an
// implicit adjacency) a private neighbour-generation buffer.
func setBuilderParallelInto(sc *Scratch, a graph.Adjacencer, s syndrome.Syndrome, u0 int32, delta int, restrict *bitset.Set, workers int) *SetBuilderResult {
	sc.ensure(a.N())
	sc.resetTree()
	csr := graph.CSR(a)
	var offs, tgts []int32
	if csr != nil {
		offs, tgts = csr.Adjacency()
	}
	res := &sc.res
	*res = SetBuilderResult{U: sc.u, Parent: sc.parent, Contributors: sc.contributors}
	res.U.Add(int(u0))
	start := s.Lookups()

	in := func(v int32) bool {
		return restrict == nil || restrict.Contains(int(v))
	}
	// neigh enumerates u's neighbours: a zero-copy CSR view, or
	// generation into the supplied buffer for implicit adjacencies.
	neigh := func(u int32, buf []int32) ([]int32, []int32) {
		if csr != nil {
			return tgts[offs[u]:offs[u+1]], buf
		}
		buf = a.AppendNeighbors(u, buf)
		return buf, buf
	}

	// Round 1 is the O(Δ²) pair scan of the seed — always in-line.
	var adj []int32
	adj, sc.nbuf = neigh(u0, sc.nbuf)
	frontier := sc.frontier[:0]
	next := sc.next[:0]
	for i := 0; i < len(adj); i++ {
		if !in(adj[i]) {
			continue
		}
		for j := i + 1; j < len(adj); j++ {
			if !in(adj[j]) {
				continue
			}
			vi, vj := adj[i], adj[j]
			if res.U.Contains(int(vi)) && res.U.Contains(int(vj)) {
				continue
			}
			if s.Test(u0, vi, vj) == 0 {
				for _, v := range [2]int32{vi, vj} {
					if !res.U.Contains(int(v)) {
						res.U.Add(int(v))
						res.Parent[v] = u0
						frontier = append(frontier, v)
					}
				}
			}
		}
	}
	contribCount := 0
	if len(frontier) > 0 {
		res.Contributors.Add(int(u0))
		contribCount = 1
		res.Rounds = 1
	}
	if contribCount > delta {
		res.AllHealthy = true
	}

	// Per-worker syndrome views, admission buffers and neighbour
	// buffers live in the scratch's round job, reused across rounds and
	// calls. Shards are closed before the final count so the parent's
	// Lookups is exact.
	job := &sc.rounds
	job.begin(s, workers)

	added := sc.added
	// Barrier rounds break admission ties towards the least tester,
	// which matches the sequential sweep only while the frontier is
	// sorted; a faulty seed can scramble the U_1 frontier (see
	// setBuilderLazyInto), and those rounds must stay sequential.
	sorted := slices.IsSorted(frontier)
	for len(frontier) > 0 {
		admitted := 0
		if !sorted || len(frontier) < parallelFrontierMin {
			// Small round: the sequential sweep, directly on s. Mid-round
			// admissions are visible (fewer look-ups); the resulting tree
			// is the same either way — see the equivalence note above.
			for _, u := range frontier {
				tu := res.Parent[u]
				var nbrs []int32
				nbrs, sc.nbuf = neigh(u, sc.nbuf)
				for _, v := range nbrs {
					if res.U.Contains(int(v)) || !in(v) {
						continue
					}
					if s.Test(u, v, tu) == 0 {
						res.U.Add(int(v))
						res.Parent[v] = u
						added.Add(int(v))
						admitted++
						if !res.Contributors.Contains(int(u)) {
							res.Contributors.Add(int(u))
							contribCount++
						}
					}
				}
			}
		} else {
			// Barrier round: workers scan disjoint frontier chunks against
			// the round-start U (it only changes at the merge below).
			admits := job.barrierRound(a, offs, tgts, res.U, restrict, res.Parent, frontier, workers)
			// Merge: the least tester answering 0 wins each node — the
			// sequential tie-break, independent of worker scheduling.
			for _, adm := range admits {
				for _, a := range adm {
					if !added.Contains(int(a.v)) {
						added.Add(int(a.v))
						res.Parent[a.v] = a.u
						admitted++
					} else if a.u < res.Parent[a.v] {
						res.Parent[a.v] = a.u
					}
				}
			}
			if admitted > 0 {
				next = added.Drain(next[:0])
				for _, v := range next {
					res.U.Add(int(v))
					p := res.Parent[v]
					if !res.Contributors.Contains(int(p)) {
						res.Contributors.Add(int(p))
						contribCount++
					}
				}
				frontier, next = next, frontier
				res.Rounds++
				if contribCount > delta {
					res.AllHealthy = true
				}
				continue
			}
		}
		if admitted == 0 {
			break
		}
		next = added.Drain(next[:0])
		sorted = true // Drain yields ascending order
		frontier, next = next, frontier
		res.Rounds++
		if contribCount > delta {
			res.AllHealthy = true
		}
	}
	sc.frontier, sc.next = frontier, next
	job.end(workers)
	res.Lookups = s.Lookups() - start
	return res
}

// barrierShard is one worker's chunk of a barrier round: test every
// non-member neighbour of each frontier node against the round-start U
// and record the 0-answers in buf.
func barrierShard(a graph.Adjacencer, offs, tgts []int32, u, restrict *bitset.Set, parent, work []int32, s syndrome.Syndrome, buf []parallelAdmission, nbuf []int32) ([]parallelAdmission, []int32) {
	for _, x := range work {
		tx := parent[x]
		var nbrs []int32
		if offs != nil {
			nbrs = tgts[offs[x]:offs[x+1]]
		} else {
			nbuf = a.AppendNeighbors(x, nbuf)
			nbrs = nbuf
		}
		for _, v := range nbrs {
			if u.Contains(int(v)) || (restrict != nil && !restrict.Contains(int(v))) {
				continue
			}
			if s.Test(x, v, tx) == 0 {
				buf = append(buf, parallelAdmission{v: v, u: x})
			}
		}
	}
	return buf, nbuf
}
