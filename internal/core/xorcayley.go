package core

import (
	"math/bits"

	"comparisondiag/internal/graph"
	"comparisondiag/internal/syndrome"
)

// The XOR-Cayley kernel: word-parallel final-pass rounds for any graph
// with N(u) = {u ⊕ m : m ∈ masks} — plain hypercubes (single-bit
// masks, the paper's flagship Q_n family) and the multi-bit variants
// (folded/enhanced hypercubes' complement mask, augmented cubes' run
// masks). XOR by a mask permutes the node bitset, and that permutation
// is a composition of one delta swap per low mask bit (d < 6, in-word
// butterflies) plus one word-index XOR for the high bits — so each
// round discovers 64 admission candidates per handful of ALU ops
// instead of one adjacency visit per edge.
//
// Exactness. The reference pass tests each candidate v by its frontier
// neighbours in ascending node order until one answers 0. For XOR
// generators the tester via mask m is u = v ⊕ m, and for two masks
// m1, m2 the order of their testers is decided by one bit of v:
//
//	v⊕m1 < v⊕m2  ⇔  v_h = (m1)_h,  h = msb(m1 ⊕ m2)
//
// (the two testers differ exactly at the bits of m1⊕m2, so the highest
// such bit decides). compileXORSchedule turns that comparator into a
// fixed sequence of steps (mask, condition-on-v) whose per-candidate
// subsequence is sorted for every v: split the mask set at the highest
// bit h where it disagrees into A (bit set) and B (bit clear); for
// candidates with v_h = 1 all of A's testers precede all of B's, and
// vice versa; within each side the order depends only on lower bits.
// Emitting the smaller side twice under complementary v_h conditions
// around the other side realises both orders in one linear schedule:
//
//	[A | v_h=1]  [B]  [A | v_h=0]
//
// For Q_n this compiles to exactly the two-phase dimension sweep of the
// PR 2 kernel (descending dimensions over v_d=1, ascending over
// v_d=0); for FQ_n/AQ_n it interleaves the multi-bit masks at their
// v-dependent rank. Step conditions are conjunctions of single-bit
// literals, encoded as a word-index filter (bits ≥ 6) plus an in-word
// pattern (bits < 6), so a step still costs a handful of ALU ops per
// 64 candidates.
//
// Admissions update U immediately, so a node admitted by one step
// vanishes from every later step's candidate words — exactly the
// reference's prefix-until-0 suppression (see runWordKernel for the
// shared round loop and the full equivalence argument).
//
// Fused runs. Consecutive steps that read the same frontier word (same
// word-index XOR — for Q_n, the whole in-word block of masks 1..32)
// under the same word condition form one run, applied word by word
// with the frontier and candidate words held in registers: one pass
// over the bitset instead of one per step. This is exact for the
// reason word ranges are (see rangedRounder): candidate suppression
// lives in the candidate's own word and the frontier is frozen for the
// round, so within a word the steps still run in schedule order and
// no other word can observe the interleaving.
//
// The schedule also serves single nodes: filtering it by one node's
// condition (vMask/vVal) lists that node's neighbours in ascending
// order without a sort, which the dense complement sweep of an
// implicit engine walks until the first vouching frontier tester.

// deltaSwapMasks[d] selects the lower element of each bit pair at
// distance 2^d — the classic butterfly masks. Its complement is the
// set of in-word positions whose node id has bit d set.
var deltaSwapMasks = [6]uint64{
	0x5555555555555555, 0x3333333333333333, 0x0f0f0f0f0f0f0f0f,
	0x00ff00ff00ff00ff, 0x0000ffff0000ffff, 0x00000000ffffffff,
}

// xorStep is one compiled schedule entry: test the candidates v with
// v&vMask == vVal against their frontier neighbour across mask. Bits
// ≥ 6 of the condition filter word indices; bits < 6 compile to the
// in-word candidate pattern pat.
type xorStep struct {
	mask        int32  // generator; the tester of candidate v is v ^ mask
	low         uint32 // mask & 63: in-word delta-swap composition
	pat         uint64 // in-word candidate pattern from bit literals < 6
	vMask, vVal int32  // the whole condition on one candidate v
}

// xorRun is a maximal block of consecutive schedule steps sharing the
// frontier word they read (wordXor = mask >> 6) and their word
// condition (process wi iff wi&wiMask == wiVal), applied word by word
// (see the file comment). A step that differs from its neighbours in
// either forms a run of its own.
type xorRun struct {
	steps         []xorStep
	wordXor       uint32
	wiMask, wiVal uint32
}

type xorKernel struct {
	steps     []xorStep // the compiled schedule, in order
	runs      []xorRun  // steps grouped for word rounds
	multi     bool
	threshold int // frontier size where word rounds beat the sweep
}

// bindXORKernel binds the kernel to a graph declared (and verified) to
// be XOR-Cayley. Floors: ≥ 64 nodes (below that the word logic cannot
// win) and ≤ 32 generators; the descriptor must match the graph order
// and carry well-formed masks.
func bindXORKernel(desc graph.CayleyDescriptor, a graph.Adjacencer) finalKernel {
	xc, ok := desc.(graph.XORCayley)
	if !ok {
		return nil
	}
	n := a.N()
	if n < 64 || n&(n-1) != 0 || xc.Order() != n {
		return nil
	}
	if len(xc.Masks) == 0 || len(xc.Masks) > 32 {
		return nil
	}
	for _, m := range xc.Masks {
		if m <= 0 || int(m) >= n {
			return nil
		}
	}
	sched := compileXORSchedule(xc.Masks)
	if sched == nil {
		return nil
	}
	steps := make([]xorStep, len(sched))
	for i, s := range sched {
		st := xorStep{mask: s.mask, low: uint32(s.mask & 63), pat: ^uint64(0)}
		for _, lt := range s.lits {
			st.vMask |= 1 << uint(lt.bit)
			if lt.val {
				st.vVal |= 1 << uint(lt.bit)
			}
			if lt.bit < 6 {
				if lt.val {
					st.pat &= ^deltaSwapMasks[lt.bit]
				} else {
					st.pat &= deltaSwapMasks[lt.bit]
				}
			}
		}
		steps[i] = st
	}
	// A run's key: the frontier word index XOR and the word condition.
	key := func(st xorStep) [3]uint32 {
		return [3]uint32{uint32(st.mask >> 6), uint32(st.vMask >> 6), uint32(st.vVal >> 6)}
	}
	var runs []xorRun
	for i := 0; i < len(steps); {
		c := key(steps[i])
		j := i + 1
		for j < len(steps) && key(steps[j]) == c {
			j++
		}
		runs = append(runs, xorRun{steps: steps[i:j:j], wordXor: c[0], wiMask: c[1], wiVal: c[2]})
		i = j
	}
	// Round cost: word visits per round, each weighted by its
	// delta-swap chain (a step conditioned on j word-index bits touches
	// words/2^j words).
	words := n / 64
	cost := 0
	for _, st := range steps {
		cost += (words >> bits.OnesCount32(uint32(st.vMask>>6))) * (1 + bits.OnesCount32(st.low))
	}
	return &xorKernel{steps: steps, runs: runs, multi: xc.MultiBit(), threshold: sweepThresholdFor(cost, a)}
}

// xorLit is one condition literal: node bit `bit` of the candidate must
// equal val.
type xorLit struct {
	bit int
	val bool
}

// xorSched is one schedule entry before encoding: a mask plus the
// conjunction of literals gating it.
type xorSched struct {
	mask int32
	lits []xorLit
}

// compileXORSchedule emits the order-exact step sequence for a mask
// set (see the file comment for the construction). Returns nil on a
// degenerate mask set (duplicates — no disagreement bit to split on).
// The duplicate-smaller-side recursion keeps the schedule linear for
// every deployed family (2n-1 steps for Q_n, 2n+4 for FQ_n, ~6n for
// AQ_n); a pathological set could still blow up, so the length is
// capped and oversized schedules refuse to bind.
func compileXORSchedule(masks []int32) []xorSched {
	const maxSteps = 4096
	if len(masks) == 1 {
		return []xorSched{{mask: masks[0]}}
	}
	var or int32
	and := int32(-1)
	for _, m := range masks {
		or |= m
		and &= m
	}
	if or&^and == 0 {
		return nil // all masks equal: duplicates in the generator set
	}
	h := 31 - bits.LeadingZeros32(uint32(or&^and))
	a := make([]int32, 0, len(masks))
	b := make([]int32, 0, len(masks))
	for _, m := range masks {
		if m&(1<<uint(h)) != 0 {
			a = append(a, m)
		} else {
			b = append(b, m)
		}
	}
	sa, sb := compileXORSchedule(a), compileXORSchedule(b)
	if sa == nil || sb == nil {
		return nil
	}
	// For v_h = 1, A's testers (bit h flipped off) all precede B's; for
	// v_h = 0 the order reverses. Duplicate the smaller compiled side
	// under complementary v_h literals around the other side.
	var out []xorSched
	if len(sa) <= len(sb) {
		out = make([]xorSched, 0, 2*len(sa)+len(sb))
		out = append(out, withXORLit(sa, h, true)...)
		out = append(out, sb...)
		out = append(out, withXORLit(sa, h, false)...)
	} else {
		out = make([]xorSched, 0, len(sa)+2*len(sb))
		out = append(out, withXORLit(sb, h, false)...)
		out = append(out, sa...)
		out = append(out, withXORLit(sb, h, true)...)
	}
	if len(out) > maxSteps {
		return nil
	}
	return out
}

// withXORLit copies the schedule with one literal prepended to every
// entry's condition.
func withXORLit(s []xorSched, bit int, val bool) []xorSched {
	out := make([]xorSched, len(s))
	for i, e := range s {
		lits := make([]xorLit, 0, len(e.lits)+1)
		lits = append(lits, xorLit{bit, val})
		lits = append(lits, e.lits...)
		out[i] = xorSched{mask: e.mask, lits: lits}
	}
	return out
}

// Name implements finalKernel.
func (k *xorKernel) Name() string {
	if k.multi {
		return "xor-cayley[multi-bit]"
	}
	return "xor-cayley"
}

func (k *xorKernel) run(sc *Scratch, a graph.Adjacencer, l *syndrome.Lazy, u0 int32, delta int) *SetBuilderResult {
	return runWordKernel(sc, a, l, u0, delta, k)
}

func (k *xorKernel) sweepThreshold() int { return k.threshold }

// round implements wordRounder: one sweep of the compiled schedule,
// run by run. Word indices matching a run's condition are enumerated
// directly (submask iteration over the free bits), so a run
// conditioned on j word bits touches only a 2^-j fraction of the
// bitset; each visited word runs the run's steps in order on register
// copies of its frontier and candidate words.
func (k *xorKernel) round(fw, uw []uint64, parent []int32, l *syndrome.Lazy) int {
	admitted := 0
	last := uint32(len(uw) - 1) // len(uw) is a power of two
	for ri := range k.runs {
		r := &k.runs[ri]
		free := last &^ r.wiMask
		s := uint32(0)
		for {
			wi := r.wiVal | s
			// The frontier word holding the testers of wi's candidates,
			// and the candidates' own membership word (a full word has
			// no candidates left).
			if f, c := fw[wi^r.wordXor], uw[wi]; f != 0 && c != ^uint64(0) {
				base := int32(wi) << 6
				for si := range r.steps {
					st := &r.steps[si]
					// Permute the testers into candidate positions: one
					// delta swap per low mask bit.
					w := f
					for rr := st.low; rr != 0; rr &= rr - 1 {
						d := uint(bits.TrailingZeros32(rr))
						lo := deltaSwapMasks[d]
						sh := uint(1) << d
						w = (w&lo)<<sh | (w>>sh)&lo
					}
					for w &= st.pat &^ c; w != 0; w &= w - 1 {
						b := bits.TrailingZeros64(w)
						v := base + int32(b)
						u := v ^ st.mask
						if l.Test(u, v, parent[u]) == 0 {
							c |= 1 << uint(b)
							parent[v] = u
							admitted++
						}
					}
				}
				uw[wi] = c
			}
			s = (s - free) & free
			if s == 0 {
				break
			}
		}
	}
	return admitted
}

// roundRange implements rangedRounder: the compiled schedule restricted
// to the candidate words [lo, hi). Candidate suppression (the uw mask
// in each step) lives in the candidate's own word, so a worker that
// owns a word for the whole round observes exactly the admissions the
// sequential schedule would — results and look-ups are bit-identical.
// Each run enumerates only the owned words matching its condition.
// The per-word body mirrors round's; it is kept separate (on a
// concrete *syndrome.Shard) so the sequential path stays devirtualised
// on *syndrome.Lazy.
func (k *xorKernel) roundRange(fw, uw []uint64, parent []int32, sh *syndrome.Shard, lo, hi int) int {
	admitted := 0
	last := uint32(len(uw) - 1) // len(uw) is a power of two
	for ri := range k.runs {
		r := &k.runs[ri]
		free := last &^ r.wiMask
		for wi := firstCondWord(uint32(lo), r.wiMask, r.wiVal); wi < uint32(hi); {
			admitted += r.testWord(wi, fw, uw, parent, sh)
			s := ((wi &^ r.wiVal) - free) & free
			if s == 0 {
				break
			}
			wi = r.wiVal | s
		}
	}
	return admitted
}

// firstCondWord returns the least word index ≥ lo whose bits under
// mask equal val (val ⊆ mask), or the largest uint32 when none fits.
func firstCondWord(lo, mask, val uint32) uint32 {
	diff := (lo ^ val) & mask
	if diff == 0 {
		return lo
	}
	h := uint(31 - bits.LeadingZeros32(diff))
	below := uint32(1)<<(h+1) - 1 // bits 0..h
	if val&(1<<h) != 0 {
		// lo has a 0 where val needs a 1: keep lo above h and take the
		// least completion from bit h down.
		return lo&^below | val&below
	}
	// lo has a 1 where val needs a 0: carry into the lowest free bit
	// above h that lo leaves clear.
	t := (lo | mask | below) + 1
	if t == 0 {
		return ^uint32(0)
	}
	return t&^mask | val
}

// testWord runs the run's steps against one candidate word: permute
// the frontier word into candidate positions, mask to live candidates,
// and test the survivors across each step's generator.
func (r *xorRun) testWord(wi uint32, fw, uw []uint64, parent []int32, sh *syndrome.Shard) int {
	f, c := fw[wi^r.wordXor], uw[wi]
	if f == 0 || c == ^uint64(0) {
		return 0
	}
	admitted := 0
	base := int32(wi) << 6
	for si := range r.steps {
		st := &r.steps[si]
		w := f
		for rr := st.low; rr != 0; rr &= rr - 1 {
			d := uint(bits.TrailingZeros32(rr))
			lo := deltaSwapMasks[d]
			shft := uint(1) << d
			w = (w&lo)<<shft | (w>>shft)&lo
		}
		for w &= st.pat &^ c; w != 0; w &= w - 1 {
			b := bits.TrailingZeros64(w)
			v := base + int32(b)
			u := v ^ st.mask
			if sh.Test(u, v, parent[u]) == 0 {
				c |= 1 << uint(b)
				parent[v] = u
				admitted++
			}
		}
	}
	uw[wi] = c
	return admitted
}
