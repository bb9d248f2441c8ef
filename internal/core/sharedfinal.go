package core

import (
	"math/bits"

	"comparisondiag/internal/bitset"
	"comparisondiag/internal/graph"
)

// finalPrefix is the shared-final-prefix checkpoint of a grouped batch
// (BatchOptions.ShareFinalPrefix): the final Set_Builder state — U, the
// tree, the frontier and the look-up count — at the boundary of the
// behaviour-independent prefix of the pass.
//
// Why a prefix exists. A test result s_u(v, w) depends on the faulty-
// tester behaviour only when the tester u is hypothesised faulty, and
// on the hypothesis only through the membership of u, v and w in F. The
// final pass grows U from a healthy seed by consulting s_u(v, t(u))
// for frontier nodes u; as long as the frontier avoids F ∪ N(F), every
// consulted comparison has a healthy tester, a healthy tree parent and
// a healthy candidate, so every answer is 0 under every behaviour —
// the rounds are a plain BFS expansion whose admissions, tree parents
// and look-up trace are identical for all behaviours of one fault
// hypothesis. The recorder therefore runs the pass once (on the group
// representative), checks each round's start frontier against the
// hazard mask F ∪ N(F), and snapshots the state the moment the next
// round would consult a comparison involving a hypothesised-faulty
// node. Members load the snapshot and resume with their own behaviour;
// if the whole pass stayed clean (e.g. the empty hypothesis), the
// checkpoint is the complete result and members consult nothing.
//
// The conservative boundary (any involvement of a faulty node, not
// just faulty testers) keeps the argument one induction deep: while
// rounds are clean, only healthy nodes enter U, so the frontier can
// never smuggle in a faulty tester unnoticed.
//
// Concurrency: a checkpoint is written once by the representative's
// worker (phase A of diagnoseGrouped) and read concurrently by member
// workers (phase B); the phases are separated by a pool barrier.
// Encoding. U grows from empty (the caller resets the tree before the
// pass), so the checkpoint state is fully described by the non-zero U
// words and the parents of their set bits. The checkpoint is that
// sparse delta encoding — dirtyIdx/dirtyW list the touched words,
// parents packs the tree entries of their set bits in ascending node
// order — which costs O(touched words + |U|) to record and restore
// instead of full-array O(n) copies per batch member.
type finalPrefix struct {
	valid    bool  // a checkpoint was recorded; members may resume
	complete bool  // the whole pass was clean; members adopt everything
	u0       int32 // seed the prefix grew from (resume sanity check)
	rounds   int   // growth rounds contained in the prefix
	lookups  int64 // syndrome consultations the prefix spent
	uCount   int   // |U| at the checkpoint

	dirtyIdx []int32  // indices of non-zero U words, ascending
	dirtyW   []uint64 // their word values
	parents  []int32  // tree parents of the set bits, packed ascending

	frontier []int32 // round-start frontier at the boundary (sorted)

	hazard []uint64 // F ∪ N(F) mask, used only while recording
	nbuf   []int32  // neighbour buffer for implicit adjacencies
}

// begin arms the recorder for one final pass: it materialises the
// hazard mask F ∪ N(F) and pins the seed. It returns false — and the
// checkpoint stays invalid — when even the seed's own pair scan would
// consult a hazardous comparison (u0 faulty or adjacent to a fault):
// the shareable prefix is empty and members simply run in full.
func (fp *finalPrefix) begin(a graph.Adjacencer, faults *bitset.Set, u0 int32) bool {
	g := graph.CSR(a)
	words := (a.N() + 63) / 64
	if len(fp.hazard) != words {
		fp.hazard = make([]uint64, words)
	} else {
		for i := range fp.hazard {
			fp.hazard[i] = 0
		}
	}
	for wi, w := range faults.Words() {
		for ; w != 0; w &= w - 1 {
			f := int32(wi<<6 + bits.TrailingZeros64(w))
			fp.hazard[f>>6] |= 1 << (uint32(f) & 63)
			var nbrs []int32
			if g != nil {
				nbrs = g.Neighbors(f)
			} else {
				fp.nbuf = a.AppendNeighbors(f, fp.nbuf)
				nbrs = fp.nbuf
			}
			for _, nb := range nbrs {
				fp.hazard[nb>>6] |= 1 << (uint32(nb) & 63)
			}
		}
	}
	fp.u0 = u0
	return !fp.hazardous(u0)
}

// hazardous reports whether v is faulty or has a faulty neighbour.
func (fp *finalPrefix) hazardous(v int32) bool {
	return fp.hazard[v>>6]&(1<<(uint32(v)&63)) != 0
}

// frontierHazardous reports whether any frontier node touches the
// hazard mask — i.e. whether the next round would consult a comparison
// involving a hypothesised-faulty node.
func (fp *finalPrefix) frontierHazardous(frontier []int32) bool {
	for _, u := range frontier {
		if fp.hazard[u>>6]&(1<<(uint32(u)&63)) != 0 {
			return true
		}
	}
	return false
}

// wordsHazardous is frontierHazardous for a frontier held as a bitset.
func (fp *finalPrefix) wordsHazardous(fw []uint64) bool {
	for wi, w := range fw {
		if w&fp.hazard[wi] != 0 {
			return true
		}
	}
	return false
}

// snapshot records the checkpoint at a round boundary: the pass's
// state before the first round that would consult a hazardous
// comparison. frontier must be the (sorted) round-start frontier.
func (fp *finalPrefix) snapshot(res *SetBuilderResult, frontier []int32, uCount, rounds int, lookups int64) {
	uw := res.U.Words()
	// Size the lists exactly before filling them: one popcount-free
	// pass counts the dirty words, and uCount is the parent count, so
	// recording costs at most two allocations sized to the boundary
	// tree — no append-doubling churn, and nothing proportional to the
	// graph.
	nz := 0
	for _, w := range uw {
		if w != 0 {
			nz++
		}
	}
	if cap(fp.dirtyIdx) < nz {
		fp.dirtyIdx = make([]int32, 0, nz)
		fp.dirtyW = make([]uint64, 0, nz)
	}
	if cap(fp.parents) < uCount {
		fp.parents = make([]int32, 0, uCount)
	}
	fp.dirtyIdx = fp.dirtyIdx[:0]
	fp.dirtyW = fp.dirtyW[:0]
	fp.parents = fp.parents[:0]
	parent := res.Parent
	for wi, w := range uw {
		if w == 0 {
			continue
		}
		fp.dirtyIdx = append(fp.dirtyIdx, int32(wi))
		fp.dirtyW = append(fp.dirtyW, w)
		for ; w != 0; w &= w - 1 {
			fp.parents = append(fp.parents, parent[wi<<6+bits.TrailingZeros64(w)])
		}
	}
	fp.frontier = append(fp.frontier[:0], frontier...)
	fp.uCount, fp.rounds, fp.lookups = uCount, rounds, lookups
	fp.valid, fp.complete = true, false
}

// snapshotComplete records a pass that stayed clean to termination:
// the checkpoint is the whole result and members resume past the loop,
// consulting nothing.
func (fp *finalPrefix) snapshotComplete(res *SetBuilderResult, uCount int, lookups int64) {
	fp.snapshot(res, nil, uCount, res.Rounds, lookups)
	fp.complete = true
}

// loadInto restores the checkpoint into a member's scratch-backed
// result: the dirty U words and their tree parents are written back and
// the round-start frontier is copied into the scratch's frontier
// buffer. The caller must already have called resetTree, so U is empty
// and Parent is -1 outside the restored words. The contributor set is
// NOT restored here: the word-kernel driver defers contributors and
// rebuilds them from the final parents anyway, so only the generic
// sweep (which tracks them live) calls restoreContributors.
func (fp *finalPrefix) loadInto(sc *Scratch, res *SetBuilderResult) (frontier []int32) {
	uw := res.U.Words()
	parent := res.Parent
	pi := 0
	for i, wi := range fp.dirtyIdx {
		w := fp.dirtyW[i]
		uw[wi] = w
		for ; w != 0; w &= w - 1 {
			parent[int32(wi)<<6+int32(bits.TrailingZeros64(w))] = fp.parents[pi]
			pi++
		}
	}
	return append(sc.frontier[:0], fp.frontier...)
}

// restoreContributors rebuilds the checkpoint's contributor set from
// the tree — the contributors are exactly the parents of admitted
// nodes — and returns its count.
func (fp *finalPrefix) restoreContributors(res *SetBuilderResult) int {
	for _, p := range fp.parents {
		if p >= 0 {
			res.Contributors.Add(int(p))
		}
	}
	return res.Contributors.Count()
}
