package mem

import "nephele/internal/vclock"

// Shard-affinity planning for batch clone scheduling (DESIGN.md §14).
//
// A clone of parent P by child C takes shard locks in two places: the
// sharer-bump pass over P's frames (the shards P's extents occupy) and the
// child's metadata allocations (starting at C's home shard). Two clones
// whose shard sets are disjoint never contend; two clones whose sets
// overlap serialize on every shared shard. PlanWaves packs a batch into
// waves of pairwise-disjoint requests so the scheduler can interleave work
// from different waves' parents instead of letting request order pile
// co-located parents onto the same locks.

// ShardOccupancy reports the set of shards this space's frames currently
// live in, as a bitmask over shard indices of the pool's published layout.
// Present page-table entries and the space's metadata frames all count.
// The value is advisory — a concurrent re-stride or COW fault can move the
// picture — which is fine for its one consumer, lock-affinity scheduling:
// a stale mask costs contention, never correctness.
func (s *Space) ShardOccupancy() uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	lay := s.mem.lay.Load()
	var mask uint32
	addRun := func(start, end MFN) { // [start, end), contiguous
		lo := lay.shardIdx(start)
		hi := lay.shardIdx(end - 1)
		for si := lo; si <= hi; si++ {
			mask |= 1 << si
		}
	}
	for lo := 0; lo < len(s.ptes); {
		if !s.ptes[lo].present() {
			lo++
			continue
		}
		start := s.ptes[lo].mfn()
		if int(start) >= lay.total {
			lo++
			continue
		}
		end := start + 1
		hi := lo + 1
		for hi < len(s.ptes) && s.ptes[hi]&(pteMFNMask|ptePresent) == pte(end)|ptePresent && int(end) < lay.total {
			hi++
			end++
		}
		addRun(start, end)
		lo = hi
	}
	for _, mfn := range s.ptFrames {
		if int(mfn) < lay.total {
			mask |= 1 << lay.shardIdx(mfn)
		}
	}
	for _, mfn := range s.p2mFrames {
		if int(mfn) < lay.total {
			mask |= 1 << lay.shardIdx(mfn)
		}
	}
	return mask
}

// PlanWaves partitions request indices 0..len(masks)-1 into waves of
// requests with pairwise-disjoint shard masks, plus the number of
// conflicts (a request observed overlapping an earlier same-wave
// candidate and deferred to a later wave).
//
// The plan is a pure function of the mask slice — greedy first-fit in
// index order, no randomization, no map iteration — so a batch's schedule
// is deterministic given its request slice. Each pass scans the unplaced
// requests in ascending index order and admits every one whose mask is
// disjoint from the wave's accumulated cover; the first unplaced request
// always opens the next wave, so the loop always makes progress, and a
// batch whose masks all overlap degenerates to one request per wave — the
// original request order, which is the explicit fallback when conflicts
// are unavoidable. A zero mask (nothing known about the request) never
// conflicts and rides in the first wave that reaches it.
func PlanWaves(masks []uint32) (waves [][]int, conflicts int) {
	placed := make([]bool, len(masks))
	remaining := len(masks)
	for remaining > 0 {
		var wave []int
		var cover uint32
		for i, mask := range masks {
			if placed[i] {
				continue
			}
			if len(wave) > 0 && cover&mask != 0 {
				conflicts++
				continue
			}
			wave = append(wave, i)
			cover |= mask
			placed[i] = true
			remaining--
		}
		waves = append(waves, wave)
	}
	return waves, conflicts
}

// PackOrder turns per-job shard masks into the dequeue order for a pool of
// `window` workers. It runs the same unit-duration pool model as
// SimulateRound forward in time: whenever a worker frees up, the packer
// emits the earliest unemitted job all of whose shards are free — that job
// starts without stalling — and only when every remaining job would stall
// does it force out the one that can start soonest (earliest index on
// ties), counting the emission in `forced`. That is the request-order
// fallback for unavoidable conflicts: a batch whose masks all overlap
// comes back in its original order with every overlapping emission forced.
// A window of one (or less) serializes the pool, so the original order
// comes back unchanged with no conflicts.
//
// PlanWaves answers "which requests could run together"; PackOrder answers
// "in what order should a W-worker pool pull them so that they actually
// do". Like PlanWaves it is a pure function of its arguments — no
// randomization, no map iteration — so a batch's dequeue order is
// deterministic given the request slice and the pool width.
func PackOrder(masks []uint32, window int) (order []int, forced int) {
	order = make([]int, 0, len(masks))
	if window < 1 {
		window = 1
	}
	emitted := make([]bool, len(masks))
	workerFree := make([]int, window) // unit-duration model, as SimulateRound
	var shardFree [MaxShards]int
	for len(order) < len(masks) {
		w := 0
		for k := 1; k < window; k++ {
			if workerFree[k] < workerFree[w] {
				w = k
			}
		}
		now := workerFree[w]
		pick, pickStart := -1, 0
		for i := range masks {
			if emitted[i] {
				continue
			}
			start := now
			for s := 0; s < MaxShards; s++ {
				if masks[i]&(1<<s) != 0 && shardFree[s] > start {
					start = shardFree[s]
				}
			}
			if pick < 0 || start < pickStart {
				pick, pickStart = i, start
			}
			if start == now {
				break // earliest job that starts stall-free
			}
		}
		if pickStart > now {
			forced++
		}
		end := pickStart + 1
		workerFree[w] = end
		for s := 0; s < MaxShards; s++ {
			if masks[pick]&(1<<s) != 0 {
				shardFree[s] = end
			}
		}
		emitted[pick] = true
		order = append(order, pick)
	}
	return order, forced
}

// SimulateRound computes the virtual makespan of one batch round drained by
// a build pool of `workers` virtual cores: jobs are pulled strictly in
// `order` (the scheduler's dequeue order), each job occupies its worker for
// its whole duration, and a job cannot start while an earlier-started job
// still holds any shard in its mask — exactly the serialization the shard
// mutexes impose. A worker that pulls a conflicting job blocks with it,
// wasting its slot; that wasted slot is what affinity ordering removes.
//
// The model is a pure function of (order, masks, durs, workers): virtual
// durations come from the deterministic cost meters, so the makespan — and
// the fixed-vs-affinity ratio built on it — is reproducible on any host,
// independent of the machine's real core count. This is the number the
// scheduled BenchmarkMultiParentClone variants report.
func SimulateRound(order []int, masks []uint32, durs []vclock.Duration, workers int) vclock.Duration {
	if workers < 1 {
		workers = 1
	}
	workerFree := make([]vclock.Duration, workers)
	var shardFree [MaxShards]vclock.Duration
	var makespan vclock.Duration
	for _, j := range order {
		// The next free worker pulls the next job in order.
		w := 0
		for k := 1; k < workers; k++ {
			if workerFree[k] < workerFree[w] {
				w = k
			}
		}
		start := workerFree[w]
		for s := 0; s < MaxShards; s++ {
			if masks[j]&(1<<s) != 0 && shardFree[s] > start {
				start = shardFree[s]
			}
		}
		end := start + durs[j]
		workerFree[w] = end
		for s := 0; s < MaxShards; s++ {
			if masks[j]&(1<<s) != 0 {
				shardFree[s] = end
			}
		}
		if end > makespan {
			makespan = end
		}
	}
	return makespan
}
