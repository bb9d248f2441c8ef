package core

import (
	"sync"
	"sync/atomic"

	"comparisondiag/internal/bitset"
	"comparisondiag/internal/graph"
	"comparisondiag/internal/syndrome"
)

// roundJob is one parallel growth round of a final pass, split into
// contiguous ranges, one per worker: a word-kernel round (rangedRounder)
// or dense complement sweep over candidate words, or a generic barrier
// round over frontier nodes (setBuilderParallelInto). It lives in the
// Scratch, so the per-worker syndrome views, admission buffers and
// neighbour buffers grow once and are reused across rounds and calls,
// and the round runs on the package's persistent crew: a warm parallel
// final pass allocates nothing.
type roundJob struct {
	kind       roundKind
	rk         rangedRounder
	a          graph.Adjacencer
	offs, tgts []int32   // CSR arrays; nil on an implicit adjacency
	sched      []xorStep // XOR schedule for implicit sweeps (see runWordKernel)
	uw, fw     []uint64
	parent     []int32
	n          int // node count (sweep rounds)
	items      int // words or frontier nodes being split
	chunk      int
	// Barrier rounds: the frontier to scan, the round-start U and the
	// optional restriction mask.
	work     []int32
	u        *bitset.Set
	restrict *bitset.Set

	shards []paddedShard
	views  []syndrome.Syndrome // per-worker syndrome (barrier rounds)
	wadm   []int               // per-worker admission counts (word rounds)
	admits [][]parallelAdmission
	pnext  [][]int32 // per-worker next frontiers (sweep rounds)
	pnbuf  [][]int32 // per-worker neighbour-generation buffers
	wg     sync.WaitGroup
}

// paddedShard gives each worker's shard a cache line of its own: every
// look-up bumps the shard's counter, and 16-byte shards packed side by
// side would make workers write the same line.
type paddedShard struct {
	syndrome.Shard
	_ [48]byte
}

type roundKind uint8

const (
	kernelRound roundKind = iota
	sweepRound
	barrierRound
)

// begin gives each of workers workers its own view of s — a reused
// shard of a Lazy, so look-up counting stays exact without a contended
// counter; other syndromes are concurrency-safe themselves — growing
// the per-worker state to workers entries.
func (j *roundJob) begin(s syndrome.Syndrome, workers int) {
	for len(j.shards) < workers {
		j.shards = append(j.shards, paddedShard{})
		j.views = append(j.views, nil)
		j.wadm = append(j.wadm, 0)
		j.admits = append(j.admits, nil)
		j.pnext = append(j.pnext, nil)
		j.pnbuf = append(j.pnbuf, nil)
	}
	l, _ := s.(*syndrome.Lazy)
	for w := 0; w < workers; w++ {
		if l != nil {
			j.views[w] = l.ShardInto(&j.shards[w].Shard)
		} else {
			j.views[w] = syndrome.ForConcurrent(s)
		}
	}
}

// end merges every shard's look-ups into the syndrome and drops the
// job's references into the finished pass.
func (j *roundJob) end(workers int) {
	for w := 0; w < workers; w++ {
		j.shards[w].Close()
		j.shards[w] = paddedShard{}
		j.views[w] = nil
	}
	j.rk, j.a, j.u, j.restrict = nil, nil, nil, nil
	j.offs, j.tgts, j.sched, j.uw, j.fw, j.parent, j.work = nil, nil, nil, nil, nil, nil, nil
}

// kernelRound runs one rangedRounder round over fixed contiguous word
// ranges: an admission in one step must suppress the same candidate in
// every later step, so word ownership cannot move mid-round. Results
// and look-ups are bit-identical to the sequential round.
func (j *roundJob) kernelRound(rk rangedRounder, fw, uw []uint64, parent []int32, workers int) int {
	j.kind, j.rk, j.fw, j.uw, j.parent = kernelRound, rk, fw, uw, parent
	j.fanOut(workers, len(uw))
	admitted := 0
	for _, c := range j.wadm[:workers] {
		admitted += c
	}
	return admitted
}

// complementSweep runs one dense complement-walk round. Membership is
// deferred until after the walk even in the sequential sweep, so
// candidate words are independent and the split keeps the test
// prefixes — and thus the look-up count — bit-identical. Worker ranges
// ascend, so concatenating their next buffers in worker order
// reproduces the sorted frontier.
func (j *roundJob) complementSweep(a graph.Adjacencer, offs, tgts []int32, sched []xorStep, uw, fw []uint64, parent []int32, n, workers int, next []int32) ([]int32, int) {
	j.kind, j.a, j.offs, j.tgts, j.sched, j.uw, j.fw, j.parent, j.n = sweepRound, a, offs, tgts, sched, uw, fw, parent, n
	j.fanOut(workers, len(uw))
	admitted := 0
	for w := 0; w < workers; w++ {
		admitted += j.wadm[w]
		next = append(next, j.pnext[w]...)
	}
	return next, admitted
}

// barrierRound scans disjoint chunks of frontier against the
// round-start membership u (it only changes at the caller's merge) and
// leaves each worker's 0-answers in admits[w].
func (j *roundJob) barrierRound(a graph.Adjacencer, offs, tgts []int32, u, restrict *bitset.Set, parent, frontier []int32, workers int) [][]parallelAdmission {
	j.kind, j.a, j.offs, j.tgts, j.u, j.restrict, j.parent, j.work = barrierRound, a, offs, tgts, u, restrict, parent, frontier
	j.fanOut(workers, len(frontier))
	return j.admits[:workers]
}

// fanOut splits items into workers contiguous ranges and runs range 0
// on the calling goroutine and the rest on the crew, returning when all
// are done.
func (j *roundJob) fanOut(workers, items int) {
	j.items = items
	j.chunk = (items + workers - 1) / workers
	growCrew(workers - 1)
	j.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		crewTasks <- roundTask{job: j, w: w}
	}
	j.run(0)
	j.wg.Wait()
}

// run is worker w's share of the round: items [lo, hi).
func (j *roundJob) run(w int) {
	lo := w * j.chunk
	hi := min(lo+j.chunk, j.items)
	j.wadm[w] = 0
	j.pnext[w] = j.pnext[w][:0]
	j.admits[w] = j.admits[w][:0]
	if lo >= hi {
		return
	}
	switch j.kind {
	case kernelRound:
		j.wadm[w] = j.rk.roundRange(j.fw, j.uw, j.parent, &j.shards[w].Shard, lo, hi)
	case sweepRound:
		j.pnext[w], j.pnbuf[w], j.wadm[w] = complementSweepShard(
			j.a, j.offs, j.tgts, j.sched, j.uw, j.fw, j.parent, &j.shards[w].Shard, j.n, lo, hi, j.pnext[w], j.pnbuf[w])
	case barrierRound:
		j.admits[w], j.pnbuf[w] = barrierShard(
			j.a, j.offs, j.tgts, j.u, j.restrict, j.parent, j.work[lo:hi], j.views[w], j.admits[w], j.pnbuf[w])
	}
}

// roundTask hands range w of job to a crew worker.
type roundTask struct {
	job *roundJob
	w   int
}

// The crew is a package-wide set of long-lived round workers, grown to
// the widest fan-out requested so far and never shrunk. Persistent
// workers keep goroutine creation (and its closure) off the per-round
// path; sharing one crew across scratches means a pooled Scratch that
// is dropped leaves no goroutine behind. Workers only ever run a range
// and signal its job, so concurrent passes queue rather than deadlock.
var (
	crewTasks = make(chan roundTask, 256)
	crewMu    sync.Mutex
	crewSize  atomic.Int32
)

// growCrew makes sure at least n crew workers are running.
func growCrew(n int) {
	if int(crewSize.Load()) >= n {
		return
	}
	crewMu.Lock()
	defer crewMu.Unlock()
	for int(crewSize.Load()) < n {
		crewSize.Add(1)
		go crewWorker()
	}
}

func crewWorker() {
	for t := range crewTasks {
		t.job.run(t.w)
		t.job.wg.Done()
	}
}
