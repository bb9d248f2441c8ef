package core

import (
	"math/bits"
	"slices"

	"comparisondiag/internal/graph"
	"comparisondiag/internal/syndrome"
)

// wordRounder is the per-structure half of a word-parallel final-pass
// kernel: one growth round against the fixed round-start frontier
// bitset fw, admitting into uw/parent via l and returning the admission
// count. The driver (runWordKernel) owns everything else — the U_1 pair
// scan, the sorted-frontier gate, the small-round reference sweep, the
// round-start snapshot and the bitset-resident frontier, and the deferred
// contributor reconstruction — so a new structure family only has to
// supply its round permutation schedule.
//
// round contract: for every candidate v ∉ U with a neighbour in the
// frontier, test v by its frontier neighbours in ascending node order,
// stopping at the first 0 answer (admission: set v's bit in uw, record
// parent[v], count it). Admissions must be visible immediately, so a
// node admitted by one step is excluded as candidate from every later
// step of the same round — the reference pass's prefix-until-0
// suppression.
type wordRounder interface {
	Name() string
	round(fw, uw []uint64, parent []int32, l *syndrome.Lazy) int
	// sweepThreshold is the frontier size above which the kernel's
	// word-parallel round beats the reference sweep, fixed at bind time
	// (see sweepThresholdFor); smaller frontiers take the sweep.
	sweepThreshold() int
}

// rangedRounder is the multi-worker half of a wordRounder: one growth
// round restricted to the candidate words [lo, hi). Splitting a round
// at word granularity keeps even the look-up count bit-identical to
// the sequential kernel: every candidate v lives in exactly one word,
// so exactly one worker tests it; the frontier bitset fw and the
// parents of frontier testers are frozen for the round; and a
// same-round admission only ever suppresses later tests of the
// admitted node itself (its own uw word), which its owning worker
// observes exactly as the sequential round would. Word ownership is a
// fixed contiguous range for the whole round — an admission in one
// step must suppress the same candidate in every later step — and uw
// reads and writes stay inside the owned range, so workers share no
// mutable words (see runWordKernel).
type rangedRounder interface {
	wordRounder
	roundRange(fw, uw []uint64, parent []int32, sh *syndrome.Shard, lo, hi int) int
}

// sweepThresholdFor converts a kernel's fixed round cost (word visits
// weighted by per-word permute work) into the frontier size above which
// the word-parallel path wins. The sweep spends ~|frontier|·deg probes
// per round (CSR read + bitset test each); a word visit costs a couple
// probes' worth of ALU work, hence the factor. Degree ties the two:
// dense small graphs (augmented cubes: deg ≈ word count) cross over
// much later than big sparse ones, which is what the old flat
// words-count gate got wrong. The word floor stays: below one word per
// frontier node the permutes cannot pay for themselves.
func sweepThresholdFor(roundCost int, a graph.Adjacencer) int {
	words := (a.N() + 63) / 64
	deg := a.MaxDegree()
	if deg == 0 {
		return words
	}
	t := 2 * roundCost / deg
	if t < words {
		t = words
	}
	return t
}

// runWordKernel drives a word-parallel kernel to the same output and
// the same syndrome look-up count as the reference SetBuilder.
//
// Why the look-up count is identical: in the reference loop, a
// non-member v is tested by its frontier neighbours in ascending node
// order until one answers 0 (the frontier is sorted and each admission
// is visible immediately), so v's testers form exactly the prefix of
// its ascending frontier neighbours ending at the first 0 answer. The
// kernel's round consults literally that prefix for each v; only the
// interleaving across different v differs, which is unobservable for
// any deterministic syndrome.
func runWordKernel(sc *Scratch, a graph.Adjacencer, l *syndrome.Lazy, u0 int32, delta int, k wordRounder) *SetBuilderResult {
	sc.ensure(a.N())
	csr := graph.CSR(a)
	sc.resetTree()
	res := &sc.res
	*res = SetBuilderResult{U: sc.u, Parent: sc.parent, Contributors: sc.contributors}
	start := l.Lookups()

	var frontier, next []int32
	var uCount int
	if fp := sc.prefixRes; fp != nil {
		// Resume from the group's shared prefix (see finalPrefix): the
		// checkpoint was recorded at a round boundary, so the loaded
		// frontier is sorted and the loop continues exactly where the
		// representative's behaviour-independent rounds stopped. A
		// complete checkpoint stores an empty frontier, so the loop is
		// skipped and only the contributor reconstruction below runs.
		frontier = fp.loadInto(sc, res)
		next = sc.next[:0]
		uCount = fp.uCount
		res.Rounds = fp.rounds
	} else {
		res.U.Add(int(u0))
		rec := sc.prefixRec
		if rec != nil && !rec.begin(a, l.Faults(), u0) {
			rec = nil // even the pair scan is hazardous: no shareable prefix
			sc.prefixRec = nil
		}

		// Build U_1 exactly as the reference loop: u0 tests unordered pairs
		// of its neighbours; a 0 result certifies both participants at once.
		var adj []int32
		if csr != nil {
			adj = csr.Neighbors(u0)
		} else {
			sc.nbuf = a.AppendNeighbors(u0, sc.nbuf)
			adj = sc.nbuf
		}
		frontier = sc.frontier[:0]
		next = sc.next[:0]
		for i := 0; i < len(adj); i++ {
			for j := i + 1; j < len(adj); j++ {
				vi, vj := adj[i], adj[j]
				if res.U.Contains(int(vi)) && res.U.Contains(int(vj)) {
					continue
				}
				if l.Test(u0, vi, vj) == 0 {
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
		if len(frontier) > 0 {
			res.Rounds = 1
		}
		uCount = 1 + len(frontier)
	}

	n := a.N()
	added := sc.added
	var offs, tgts []int32
	if csr != nil {
		offs, tgts = csr.Adjacency()
	}
	// Implicit neighbour sources: frontier sweeps take generator order
	// (a frontier node tests each non-member neighbour once, whatever
	// the order, and admissions drain sorted), and an XOR kernel's dense
	// sweeps walk its compiled schedule, which lists any node's testers
	// in ascending order without a sort.
	var sched []xorStep
	if xk, ok := k.(*xorKernel); ok && csr == nil {
		sched = xk.steps
	}
	uw := res.U.Words()
	parent := res.Parent
	fw := sc.fsetBuf().Words()
	pw := sc.prevBuf()
	// Word-parallel rounds test each candidate's frontier neighbours in
	// ascending order, which equals the reference's frontier-order sweep
	// only while the frontier is sorted. Round 2+ frontiers always are;
	// a faulty seed's arbitrary pair answers can scramble the U_1
	// frontier, and those rounds must take the order-preserving sweep.
	sorted := slices.IsSorted(frontier)
	threshold := k.sweepThreshold()
	// Parallel fan-out (Options.FinalWorkers, via sc.finalWorkers):
	// word-granular rounds split their candidate words across workers,
	// which keeps results AND look-up counts bit-identical to the
	// sequential kernel (see rangedRounder; the dense sweep defers
	// membership updates, so its candidate words are independent too).
	// Each worker counts look-ups on its own syndrome shard, merged
	// before the final count. diagnoseInto never combines this with a
	// shared-prefix record/resume (parallel members run in full).
	workers := sc.finalWorkers
	rk, ranged := k.(rangedRounder)
	if !ranged || workers < 2 {
		workers = 1
	}
	job := &sc.rounds
	if workers > 1 {
		job.begin(l, workers)
	}
	// The frontier has one of two forms. As a list (frontier, with fw
	// all zero) after U_1, a resume or a sweep round. As a bitset
	// (inBits: fw holds the frontier, pw equals uw, size counts it)
	// after a word round, so chained word rounds never scatter, clear
	// or re-extract it, and a dense sweep reads fw as it stands; only a
	// frontier sweep or a prefix snapshot needs the list back.
	size := len(frontier)
	inBits := false
	// Contributor bookkeeping is deferred: the contributor set is
	// exactly the set of parents, reconstructed in one pass at the end,
	// and the AllHealthy threshold is monotone, so the final count
	// decides it — this drops a membership test from every admission.
	for size > 0 {
		if rec := sc.prefixRec; rec != nil {
			// End of the behaviour-independent prefix: the next round
			// would consult a comparison involving a hypothesised-faulty
			// node (see finalPrefix).
			if inBits && rec.wordsHazardous(fw) {
				next = appendBits(next[:0], fw)
				rec.snapshot(res, next, uCount, res.Rounds, l.Lookups()-start)
				sc.prefixRec = nil
			} else if !inBits && rec.frontierHazardous(frontier) {
				rec.snapshot(res, frontier, uCount, res.Rounds, l.Lookups()-start)
				sc.prefixRec = nil
			}
		}
		admitted := 0
		if sorted && size > threshold {
			// Word-parallel round against the fixed round-start frontier.
			if !inBits {
				copy(pw, uw)
				for _, u := range frontier {
					fw[u>>6] |= 1 << (uint(u) & 63)
				}
			}
			if workers > 1 && size >= parallelFrontierMin {
				admitted = job.kernelRound(rk, fw, uw, parent, workers)
			} else {
				admitted = k.round(fw, uw, parent, l)
			}
			// One fused pass turns the round's admissions — the U delta
			// against the round-start snapshot — into the next frontier,
			// overwriting (and so clearing) this round's, and advances
			// the snapshot. A bitset is ascending by construction: it is
			// the sorted frontier the reference Drain produces. With no
			// admissions it leaves fw empty, as every exit from the loop
			// does.
			for wi, w := range uw {
				fw[wi] = w &^ pw[wi]
				pw[wi] = w
			}
			inBits = true
			if admitted == 0 {
				break
			}
		} else if sorted && size > n-uCount {
			// Dense sweep round: few non-members remain, so walk V∖U and
			// probe each non-member's frontier neighbours in ascending
			// order until one vouches — the same test prefix, far fewer
			// probes (the adaptive direction of setBuilderLazyInto).
			if !inBits {
				for _, u := range frontier {
					fw[u>>6] |= 1 << (uint(u) & 63)
				}
			}
			next = next[:0]
			if workers > 1 && n-uCount >= parallelFrontierMin {
				next, admitted = job.complementSweep(a, offs, tgts, sched, uw, fw, parent, n, workers, next)
			} else {
				for wi, w := range uw {
					inv := ^w
					if wi == len(uw)-1 {
						if tail := n & 63; tail != 0 {
							inv &= 1<<uint(tail) - 1
						}
					}
					for inv != 0 {
						v := int32(wi<<6 + bits.TrailingZeros64(inv))
						inv &= inv - 1
						if sched != nil {
							for si := range sched {
								st := &sched[si]
								if v&st.vMask != st.vVal {
									continue
								}
								u := v ^ st.mask
								if fw[u>>6]&(1<<(uint(u)&63)) == 0 || l.Test(u, v, parent[u]) != 0 {
									continue
								}
								parent[v] = u
								next = append(next, v)
								admitted++
								break
							}
							continue
						}
						var nbrs []int32
						if csr != nil {
							nbrs = tgts[offs[v]:offs[v+1]]
						} else {
							sc.nbuf = a.AppendNeighbors(v, sc.nbuf)
							nbrs = sc.nbuf
						}
						for _, u := range nbrs {
							if fw[u>>6]&(1<<(uint(u)&63)) == 0 || l.Test(u, v, parent[u]) != 0 {
								continue
							}
							parent[v] = u
							next = append(next, v)
							admitted++
							break
						}
					}
				}
			}
			if inBits {
				clear(fw)
				inBits = false
			} else {
				for _, u := range frontier {
					fw[u>>6] &^= 1 << (uint(u) & 63)
				}
			}
			if admitted == 0 {
				break
			}
			// The complement walk visits v ascending, so next is already
			// the sorted frontier; membership is applied afterwards
			// (admitted nodes are not frontier members this round, so
			// deferral is unobservable — see setBuilderLazyInto).
			for _, v := range next {
				uw[v>>6] |= 1 << (uint(v) & 63)
			}
		} else {
			// Small (or unsorted) round: the devirtualised reference
			// sweep (as in setBuilderLazyInto) beats whole-bitset
			// permutes and is the only order-preserving option for a
			// scrambled U_1 frontier.
			if inBits {
				frontier = appendBits(frontier[:0], fw)
				clear(fw)
				inBits = false
			}
			for _, u := range frontier {
				tu := parent[u]
				var nbrs []int32
				if csr != nil {
					nbrs = tgts[offs[u]:offs[u+1]]
				} else {
					sc.nbuf = a.AppendNeighborsUnordered(u, sc.nbuf)
					nbrs = sc.nbuf
				}
				for _, v := range nbrs {
					if uw[v>>6]&(1<<(uint(v)&63)) != 0 {
						continue
					}
					if l.Test(u, v, tu) == 0 {
						uw[v>>6] |= 1 << (uint(v) & 63)
						parent[v] = u
						added.Add(int(v))
						admitted++
					}
				}
			}
			if admitted == 0 {
				break
			}
			next = added.Drain(next[:0])
			sorted = true
		}
		uCount += admitted
		size = admitted
		frontier, next = next, frontier
		res.Rounds++
	}
	sc.frontier, sc.next = frontier, next

	// Reconstruct the contributor set: exactly the parents of admitted
	// nodes (a node was marked contributor when it admitted someone, and
	// every admission records its parent). AllHealthy is monotone in the
	// contributor count, so the final count decides it — identical to
	// the per-round checks of the reference pass.
	for wi, w := range uw {
		for ; w != 0; w &= w - 1 {
			if p := parent[wi<<6+bits.TrailingZeros64(w)]; p >= 0 {
				res.Contributors.Add(int(p))
			}
		}
	}
	res.AllHealthy = res.Contributors.Count() > delta
	if workers > 1 {
		job.end(workers)
	}
	res.Lookups = l.Lookups() - start
	if rec := sc.prefixRec; rec != nil {
		// Clean to termination: the whole result is behaviour-
		// independent and members adopt it outright (see finalPrefix).
		rec.snapshotComplete(res, uCount, res.Lookups)
		sc.prefixRec = nil
	}
	return res
}

// complementSweepShard is one worker's slice of a parallel dense sweep
// round: walk the non-members whose ids fall in words [lo, hi) of uw
// and probe each one's frontier neighbours in ascending order until one
// vouches — along the XOR schedule when sched is set, as in the
// sequential branch of runWordKernel. It is kept separate (with a
// concrete *syndrome.Shard) so the sequential path stays devirtualised
// on *syndrome.Lazy. Membership stays deferred: uw is read-only here,
// next collects admissions in ascending order.
func complementSweepShard(a graph.Adjacencer, offs, tgts []int32, sched []xorStep, uw, fw []uint64, parent []int32, sh *syndrome.Shard, n, lo, hi int, next, nbuf []int32) ([]int32, []int32, int) {
	admitted := 0
	csrOK := offs != nil
	for wi := lo; wi < hi; wi++ {
		inv := ^uw[wi]
		if wi == len(uw)-1 {
			if tail := n & 63; tail != 0 {
				inv &= 1<<uint(tail) - 1
			}
		}
		for inv != 0 {
			v := int32(wi<<6 + bits.TrailingZeros64(inv))
			inv &= inv - 1
			if sched != nil {
				for si := range sched {
					st := &sched[si]
					if v&st.vMask != st.vVal {
						continue
					}
					u := v ^ st.mask
					if fw[u>>6]&(1<<(uint(u)&63)) == 0 || sh.Test(u, v, parent[u]) != 0 {
						continue
					}
					parent[v] = u
					next = append(next, v)
					admitted++
					break
				}
				continue
			}
			var nbrs []int32
			if csrOK {
				nbrs = tgts[offs[v]:offs[v+1]]
			} else {
				nbuf = a.AppendNeighbors(v, nbuf)
				nbrs = nbuf
			}
			for _, u := range nbrs {
				if fw[u>>6]&(1<<(uint(u)&63)) == 0 || sh.Test(u, v, parent[u]) != 0 {
					continue
				}
				parent[v] = u
				next = append(next, v)
				admitted++
				break
			}
		}
	}
	return next, nbuf, admitted
}

// appendBits appends the set bits of words to dst in ascending order.
func appendBits(dst []int32, words []uint64) []int32 {
	for wi, w := range words {
		for ; w != 0; w &= w - 1 {
			dst = append(dst, int32(wi<<6+bits.TrailingZeros64(w)))
		}
	}
	return dst
}
