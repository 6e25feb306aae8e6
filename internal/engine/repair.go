package engine

import (
	"context"
	"fmt"
	"sync"
	"time"

	"scalia/internal/cloud"
	"scalia/internal/core"
	"scalia/internal/erasure"
	"scalia/internal/obs"
	"scalia/internal/stats"
)

// This file is the production repair path (§IV-E). A repair pass scans
// for objects with chunks at unreachable providers and, under the
// active policy, fixes each one the cheapest way the market allows:
//
//  1. chunk swap — when a same-(m,n) replacement set is feasible, m
//     surviving chunks are read, ONLY the missing chunks are re-encoded
//     and written to the swap targets, and the metadata is updated in
//     place ("only the faulty chunk needs to be written, which
//     corresponds to the cheapest case");
//  2. re-stripe — otherwise the object is fully re-placed through the
//     planner and migrated, rewriting every chunk.
//
// Swap plans come from core.Planner.Repair — the same entry point the
// cost simulator uses — so simulated and production repair decisions
// provably agree.

// RepairReport summarizes an active-repair pass (§IV-E).
type RepairReport struct {
	Checked  int
	Affected int // objects with chunks at unreachable providers
	Repaired int
	Waited   int // objects left for the provider to recover (wait policy)
	// Swapped and Restriped split Repaired by mechanism: same-(m,n)
	// chunk swaps versus full re-placements.
	Swapped   int
	Restriped int
	// Skipped counts active-policy objects left unrepaired: no feasible
	// plan on the current market, or the repair write failed.
	Skipped int
	// ChunksWritten and BytesWritten total the replacement chunks the
	// pass wrote — a swap writes only the missing chunks, a re-stripe
	// all n of every stripe.
	ChunksWritten int
	BytesWritten  int64
}

// RepairPolicy selects how to treat chunks at failed providers.
type RepairPolicy int

// Repair policies: wait for recovery, or actively move chunks.
const (
	RepairWait RepairPolicy = iota
	RepairActive
)

// RepairTotals accumulates repair activity over the broker's lifetime;
// the gateway surfaces it on GET /v1/stats.
type RepairTotals struct {
	Passes        int   `json:"passes"`
	Repaired      int   `json:"repaired"`
	Swapped       int   `json:"swapped"`
	Restriped     int   `json:"restriped"`
	Skipped       int   `json:"skipped"`
	ChunksWritten int   `json:"chunksWritten"`
	BytesWritten  int64 `json:"bytesWritten"`
}

// RepairTotals returns the cumulative repair counters.
func (b *Broker) RepairTotals() RepairTotals {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.repairTotals
}

// recordRepair folds one pass's report into the lifetime totals.
func (b *Broker) recordRepair(rep RepairReport) {
	b.mu.Lock()
	b.repairTotals.Passes++
	b.repairTotals.Repaired += rep.Repaired
	b.repairTotals.Swapped += rep.Swapped
	b.repairTotals.Restriped += rep.Restriped
	b.repairTotals.Skipped += rep.Skipped
	b.repairTotals.ChunksWritten += rep.ChunksWritten
	b.repairTotals.BytesWritten += rep.BytesWritten
	b.mu.Unlock()
}

// Repair applies the policy to objects with chunks at unreachable
// providers. The candidate set is enumerated through the provider→
// objects inverted index — only objects holding a chunk on an
// unreachable (or deregistered) provider are examined, so a
// single-provider outage costs O(affected), not O(store). Under
// RepairActive each affected object is repaired by the cheapest
// feasible mechanism — chunk swap first, full re-placement as the
// fallback. Like Optimize, the scan is sharded across all alive engines
// and runs in parallel.
func (b *Broker) Repair(ctx context.Context, policy RepairPolicy) (RepairReport, error) {
	affected := b.provIndex.ObjectsOn(b.unreachableProviders())
	b.metrics.repairIndexed.Add(int64(len(affected)))
	return b.repairScan(ctx, policy, affected)
}

// RepairFullScan is the pre-index repair pass: every known object is
// checked, whether or not any of its providers changed. Kept as the
// ablation baseline BenchmarkRepairAffected compares the indexed
// enumeration against.
func (b *Broker) RepairFullScan(ctx context.Context, policy RepairPolicy) (RepairReport, error) {
	return b.repairScan(ctx, policy, b.statsDB.Objects())
}

// unreachableProviders returns the indexed providers that are currently
// unregistered or unavailable — the providers whose objects a repair
// pass must examine. Cost is O(providers carrying data), not O(objects).
func (b *Broker) unreachableProviders() []string {
	var down []string
	for _, name := range b.provIndex.ProviderNames() {
		s, ok := b.registry.Store(name)
		if !ok || !s.Available() {
			down = append(down, name)
		}
	}
	return down
}

// repairScan runs one repair pass over the given candidate objects.
func (b *Broker) repairScan(ctx context.Context, policy RepairPolicy, objs []string) (RepairReport, error) {
	// One pass at a time: swap repairs reuse the live version's chunk
	// keys, so two concurrent passes planning the same deterministic
	// swap would race commit-vs-rollback on the same keys. (The commit
	// failure path additionally refuses to roll back chunks the live
	// version references — see commitSwap — but serializing the passes
	// keeps the race from arising at all.)
	b.repairMu.Lock()
	defer b.repairMu.Unlock()
	defer b.observeStage(obs.TraceFrom(ctx), "repair", time.Now())
	leader := b.electLeader()
	if leader == nil {
		return RepairReport{}, ErrNoLeader
	}
	b.FlushStats()
	now := b.clock.Period()

	alive := b.aliveEngines()
	shards := shardObjects(objs, len(alive))

	var report RepairReport
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i, e := range alive {
		if len(shards[i]) == 0 {
			continue
		}
		wg.Add(1)
		go func(e *Engine, objs []string) {
			defer wg.Done()
			local := e.repairShard(ctx, objs, policy, now)
			mu.Lock()
			report.Checked += local.Checked
			report.Affected += local.Affected
			report.Repaired += local.Repaired
			report.Waited += local.Waited
			report.Swapped += local.Swapped
			report.Restriped += local.Restriped
			report.Skipped += local.Skipped
			report.ChunksWritten += local.ChunksWritten
			report.BytesWritten += local.BytesWritten
			mu.Unlock()
		}(e, shards[i])
	}
	wg.Wait()
	b.recordRepair(report)
	return report, ctx.Err()
}

// repairShard applies the repair policy to one engine's share of the
// object population.
func (e *Engine) repairShard(ctx context.Context, objs []string, policy RepairPolicy, now int64) (report RepairReport) {
	aliveFn := func(name string) bool {
		s, ok := e.b.registry.Store(name)
		return ok && s.Available()
	}
	// Prepared single-stripe swaps are batched per target provider so
	// many small objects repaired onto the same spare cost one provider
	// round-trip per batch. The deferred flush writes into the named
	// return value, so swaps still pending at loop exit are counted.
	batch := newSwapBatcher(e, e.b.cfg.SwapBatchSize)
	defer batch.flush(ctx, &report)
	for _, obj := range objs {
		if ctx.Err() != nil {
			break
		}
		noteProgress(ctx, 1)
		container, key, ok := splitObjectName(obj)
		if !ok {
			continue
		}
		meta, err := e.Head(ctx, container, key)
		if err != nil {
			continue
		}
		report.Checked++
		affected := false
		for _, name := range meta.Chunks {
			if !aliveFn(name) {
				affected = true
				break
			}
		}
		if !affected {
			continue
		}
		report.Affected++
		if policy == RepairWait {
			report.Waited++
			continue
		}
		rule := e.b.rules.Resolve(container, key, meta.Class)
		h := e.b.statsDB.History(obj)
		sum := stats.Summary{Periods: 1, StorageBytes: float64(meta.Size)}
		if h != nil {
			sum = h.Summary(now, e.decisionWindow(obj, now))
			sum.StorageBytes = float64(meta.Size)
		}
		// Plan through the shared planner — the same entry point the
		// simulator uses: a same-(m,n) swap when feasible, the best full
		// re-placement otherwise. ForceRestripeRepair (the benchmark
		// ablation) skips straight to the re-placement.
		var restripeTo core.Placement
		if !e.b.cfg.ForceRestripeRepair {
			epoch, specs, free := e.b.market()
			plan, perr := e.b.planner.Repair(epoch, specs, rule,
				e.placementFromChunks(meta), aliveFn, sum, meta.Size, free)
			if perr == nil && plan.Mode == core.RepairSwap {
				if batch.size > 1 && meta.StripeCount() == 1 {
					// Small object: prepare the replacement chunks now,
					// defer the provider writes to a per-provider batch.
					ps, serr := e.prepareSwap(ctx, meta, plan)
					if serr == nil {
						batch.add(ctx, ps, &report)
						continue
					}
					if ctx.Err() != nil {
						break
					}
					// Preparation failed (a survivor died mid-fetch, rot);
					// fall through to the full re-placement.
				} else {
					written, wbytes, serr := e.swapRepair(ctx, meta, plan)
					if serr == nil {
						e.b.setPlacement(obj, plan.Placement)
						report.Repaired++
						report.Swapped++
						report.ChunksWritten += written
						report.BytesWritten += wbytes
						continue
					}
					if ctx.Err() != nil {
						break
					}
					// The swap failed at execution (a target died
					// mid-write); fall through to the full re-placement.
				}
			} else if perr == nil && e.placementReachable(plan.Placement) {
				// Reuse the planner's re-stripe plan rather than running
				// the same search again; the reachability re-check mirrors
				// placeWithRetry's.
				restripeTo = plan.Placement
			}
		}
		if restripeTo.N() == 0 {
			// placeWithRetry plans through the shared planner and
			// guarantees every chosen provider is reachable right now.
			res, err := e.placeWithRetry(rule, sum, meta.Size)
			if err != nil {
				report.Skipped++
				continue
			}
			restripeTo = res.Placement
		}
		if err := e.migrate(ctx, meta, restripeTo); err != nil {
			if ctx.Err() != nil {
				break
			}
			report.Skipped++
			continue
		}
		e.b.setPlacement(obj, restripeTo)
		report.Repaired++
		report.Restriped++
		chunks, wbytes := restripeWritten(meta, restripeTo)
		report.ChunksWritten += chunks
		report.BytesWritten += wbytes
	}
	return report
}

// placementReachable reports whether every provider of p is currently
// registered and available — the re-check placeWithRetry performs on
// freshly planned placements.
func (e *Engine) placementReachable(p core.Placement) bool {
	for _, spec := range p.Providers {
		s, ok := e.b.registry.Store(spec.Name)
		if !ok || !s.Available() {
			return false
		}
	}
	return true
}

// placementFromChunks rebuilds the slot-ordered placement from stored
// chunk locations: index i of the result is the provider holding chunk
// i, which is the alignment the swap planner and executor need (unlike
// the broker's placement cache, whose provider order is arbitrary).
// Providers that left the registry are represented by name alone; the
// alive predicate reports them dead and the planner replaces them.
func (e *Engine) placementFromChunks(meta ObjectMeta) core.Placement {
	p := core.Placement{M: meta.M, Providers: make([]cloud.Spec, len(meta.Chunks))}
	for i, name := range meta.Chunks {
		if s, ok := e.b.registry.Store(name); ok {
			p.Providers[i] = s.Spec()
		} else {
			p.Providers[i] = cloud.Spec{Name: name}
		}
	}
	return p
}

// restripeWritten accounts the chunk writes of a full re-placement:
// every stripe is re-encoded under the target (m, n) and all n chunks
// are written.
func restripeWritten(meta ObjectMeta, to core.Placement) (chunks int, bytes int64) {
	stripes := meta.StripeCount()
	chunks = stripes * to.N()
	for s := 0; s < stripes; s++ {
		c := (meta.stripeLen(s) + int64(to.M) - 1) / int64(to.M)
		if c == 0 {
			c = 1 // zero-length stripes still produce 1-byte chunks
		}
		bytes += c * int64(to.N())
	}
	return chunks, bytes
}

// swapRepair executes a chunk-swap repair plan: stripe by stripe it
// fetches m surviving chunks, reconstructs only the missing ones and
// writes them to the plan's replacement providers; then the metadata is
// updated in place under the row lock. The object version's identity
// (UUID, storage key, per-stripe digests) is preserved — chunk keys and
// cached stripes stay valid, and only the MVCC version advances — so
// concurrent readers are never cut off: pre-commit readers fall back
// from the dead provider to the survivors, post-commit readers find the
// replacement chunk already written. On any failure, including ctx
// cancellation mid-swap, every replacement chunk already written is
// rolled back and the old metadata stays live.
func (e *Engine) swapRepair(ctx context.Context, meta ObjectMeta, plan core.RepairPlan) (chunksWritten int, bytesWritten int64, err error) {
	n := len(meta.Chunks)
	if plan.Placement.N() != n || plan.Placement.M != meta.M || len(plan.Replaced) == 0 {
		return 0, 0, fmt.Errorf("engine: swap plan does not match the stored layout")
	}
	coder, err := erasure.Cached(meta.M, n)
	if err != nil {
		return 0, 0, err
	}
	replaced := make(map[int]bool, len(plan.Replaced))
	targets := make(map[int]cloud.Backend, len(plan.Replaced))
	for _, i := range plan.Replaced {
		if i < 0 || i >= n {
			return 0, 0, fmt.Errorf("engine: swap plan slot %d out of range", i)
		}
		name := plan.Placement.Providers[i].Name
		st, ok := e.b.registry.Store(name)
		if !ok || !st.Available() {
			return 0, 0, fmt.Errorf("%w: swap target %s", cloud.ErrUnavailable, name)
		}
		replaced[i] = true
		targets[i] = st
	}
	// The repair read follows the serving path's "m cheapest providers"
	// ranking, with the replaced slots excluded.
	order, err := e.rankChunks(meta, replaced)
	if err != nil {
		return 0, 0, err
	}

	// Stripes are independent — each one is fetched, reconstructed,
	// verified and written on its own — so the repair fans whole stripes
	// out over a bounded worker pool instead of serializing one provider
	// round-trip after another. The first failure cancels the rest and
	// rolls every written replacement chunk back.
	stripes := meta.StripeCount()
	swapCtx, cancelSwap := context.WithCancel(ctx)
	defer cancelSwap()
	workers := e.b.cfg.ReadParallelism
	if workers < 1 {
		workers = 1
	}
	if workers > stripes {
		workers = stripes
	}
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	sem := make(chan struct{}, workers)
	for s := 0; s < stripes; s++ {
		if swapCtx.Err() != nil {
			break
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			defer func() { <-sem }()
			wrote, err := e.repairStripe(swapCtx, meta, plan, coder, order, targets, s)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
					cancelSwap()
				}
				return
			}
			chunksWritten += len(plan.Replaced)
			bytesWritten += wrote
		}(s)
	}
	wg.Wait()
	if firstErr == nil {
		firstErr = ctx.Err()
	}
	if firstErr != nil {
		e.rollbackSwap(meta, plan, stripes, nil)
		return 0, 0, firstErr
	}

	if err := e.commitSwap(meta, plan, stripes); err != nil {
		return 0, 0, err
	}
	return chunksWritten, bytesWritten, nil
}

// commitSwap installs a completed chunk swap's metadata under the row
// lock, and only if the version repaired is still the live one: a
// client write or delete that landed while the replacement chunks were
// copying must win. On failure every replacement chunk of stripes
// [0, stripes) is rolled back; on success the dead providers' stale
// copies become postponed deletes (§III-D3).
func (e *Engine) commitSwap(meta ObjectMeta, plan core.RepairPlan, stripes int) error {
	row := RowKey(meta.Container, meta.Key)
	lk := e.b.rowLock(row)
	lk.Lock()
	cur, losers := e.currentVersion(row)
	if cur == nil || cur.UUID != meta.UUID || cur.SKey != meta.SKey || !sameChunks(cur.Chunks, meta.Chunks) {
		lk.Unlock()
		// Roll back only slots the live version does not reference: if a
		// concurrent pass committed the same swap (same version, same
		// chunk keys), deleting "our" replacement chunks would destroy
		// the chunks its metadata now points at.
		e.rollbackSwap(meta, plan, stripes, func(slot int) bool {
			return cur == nil || cur.UUID != meta.UUID || cur.SKey != meta.SKey ||
				cur.Chunks[slot] != plan.Placement.Providers[slot].Name
		})
		e.cleanupVersions(losers)
		return fmt.Errorf("engine: swap repair: object changed mid-repair")
	}
	newMeta := *cur
	newMeta.Chunks = append([]string(nil), cur.Chunks...)
	for _, i := range plan.Replaced {
		newMeta.Chunks[i] = plan.Placement.Providers[i].Name
	}
	ts := e.b.clock.Timestamp()
	version, err := encodeMeta(newMeta, ts)
	if err != nil {
		lk.Unlock()
		e.rollbackSwap(meta, plan, stripes, nil)
		return err
	}
	if err := e.b.meta.Put(e.dc, row, version); err != nil {
		lk.Unlock()
		e.rollbackSwap(meta, plan, stripes, nil)
		return fmt.Errorf("engine: swap repair metadata write: %w", err)
	}
	lk.Unlock()
	e.cleanupVersions(losers)
	// The dead providers' stale copies of the replaced chunks: deletion
	// is postponed until the provider recovers (§III-D3).
	for _, i := range plan.Replaced {
		for s := 0; s < stripes; s++ {
			e.deleteChunkAt(meta.Chunks[i], meta.chunkKey(s, i))
		}
	}
	return nil
}

// repairStripe repairs one stripe: fetch m surviving chunks, let the
// erasure coder reconstruct the missing slots, verify the stripe
// payload against its stored SHA-256 (a surviving provider serving rotted
// bytes must fail the repair, not propagate the rot into the
// replacement chunks), and write the replacement chunks to their
// targets. Returns the bytes written.
func (e *Engine) repairStripe(ctx context.Context, meta ObjectMeta, plan core.RepairPlan,
	coder *erasure.Coder, order []int, targets map[int]cloud.Backend, s int) (int64, error) {
	chunks, err := e.fetchRanked(ctx, meta, s, order, false)
	if err != nil {
		return 0, err
	}
	payload, err := coder.Decode(chunks, int(meta.stripeLen(s)))
	if err != nil {
		return 0, err
	}
	if err := meta.verifyStripe(s, payload); err != nil {
		return 0, fmt.Errorf("%w during swap repair", err)
	}
	if err := e.writeSwapChunks(ctx, meta, s, chunks, plan.Replaced, targets); err != nil {
		return 0, err
	}
	var wrote int64
	for _, i := range plan.Replaced {
		wrote += int64(len(chunks[i]))
	}
	return wrote, nil
}

// writeSwapChunks fans out one stripe's replacement chunks to their
// target providers concurrently. The first error (a target failure or
// ctx cancellation) is returned; the remaining writes run to completion
// so rollback sees a consistent picture.
func (e *Engine) writeSwapChunks(ctx context.Context, meta ObjectMeta, s int, chunks [][]byte, slots []int, targets map[int]cloud.Backend) error {
	var wg sync.WaitGroup
	errs := make([]error, len(slots))
	for j, i := range slots {
		wg.Add(1)
		go func(j, i int) {
			defer wg.Done()
			t0 := time.Now()
			err := targets[i].Put(ctx, meta.chunkKey(s, i), chunks[i])
			e.b.observeProviderOp(targets[i].Spec().Name, "put", t0, err)
			if err != nil {
				errs[j] = fmt.Errorf("engine: swap chunk write to %s: %w",
					targets[i].Spec().Name, err)
			}
		}(j, i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// rollbackSwap best-effort deletes the replacement chunks of stripes
// [0, upto) from the swap targets, limited to the slots safe reports
// true for (nil = all). Cleanup runs detached from the request context:
// a cancelled repair must still release the chunks it managed to write.
func (e *Engine) rollbackSwap(meta ObjectMeta, plan core.RepairPlan, upto int, safe func(slot int) bool) {
	for _, i := range plan.Replaced {
		if safe != nil && !safe(i) {
			continue
		}
		for s := 0; s < upto; s++ {
			e.deleteChunkAt(plan.Placement.Providers[i].Name, meta.chunkKey(s, i))
		}
	}
}

// sameChunks reports whether two chunk->provider maps are identical.
func sameChunks(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// --- batched swap writes ---

// pendingSwap is one single-stripe object's prepared chunk swap: the
// replacement chunks are reconstructed and verified but not yet written.
type pendingSwap struct {
	obj  string
	meta ObjectMeta
	plan core.RepairPlan
	// data holds the replacement chunk per replaced slot.
	data  map[int][]byte
	bytes int64
}

// prepareSwap reconstructs and verifies a single-stripe object's
// replacement chunks without writing them, so the writes can be batched
// with other objects repairing onto the same providers. Validation
// mirrors swapRepair's.
func (e *Engine) prepareSwap(ctx context.Context, meta ObjectMeta, plan core.RepairPlan) (*pendingSwap, error) {
	n := len(meta.Chunks)
	if plan.Placement.N() != n || plan.Placement.M != meta.M || len(plan.Replaced) == 0 {
		return nil, fmt.Errorf("engine: swap plan does not match the stored layout")
	}
	coder, err := erasure.Cached(meta.M, n)
	if err != nil {
		return nil, err
	}
	replaced := make(map[int]bool, len(plan.Replaced))
	for _, i := range plan.Replaced {
		if i < 0 || i >= n {
			return nil, fmt.Errorf("engine: swap plan slot %d out of range", i)
		}
		name := plan.Placement.Providers[i].Name
		st, ok := e.b.registry.Store(name)
		if !ok || !st.Available() {
			return nil, fmt.Errorf("%w: swap target %s", cloud.ErrUnavailable, name)
		}
		replaced[i] = true
	}
	order, err := e.rankChunks(meta, replaced)
	if err != nil {
		return nil, err
	}
	chunks, err := e.fetchRanked(ctx, meta, 0, order, false)
	if err != nil {
		return nil, err
	}
	payload, err := coder.Decode(chunks, int(meta.stripeLen(0)))
	if err != nil {
		return nil, err
	}
	if err := meta.verifyStripe(0, payload); err != nil {
		return nil, fmt.Errorf("%w during swap repair", err)
	}
	ps := &pendingSwap{
		obj:  objectName(meta.Container, meta.Key),
		meta: meta,
		plan: plan,
		data: make(map[int][]byte, len(plan.Replaced)),
	}
	for _, i := range plan.Replaced {
		ps.data[i] = chunks[i]
		ps.bytes += int64(len(chunks[i]))
	}
	return ps, nil
}

// swapBatcher accumulates prepared single-stripe swaps and flushes
// their replacement-chunk writes grouped per target provider: one
// PutBatch round-trip per provider per flush, instead of one Put per
// chunk. Metadata commits stay per-object (row lock, live-version
// check) after the writes land.
type swapBatcher struct {
	e    *Engine
	size int
	pend []*pendingSwap
}

func newSwapBatcher(e *Engine, size int) *swapBatcher {
	if size < 1 {
		size = 1
	}
	return &swapBatcher{e: e, size: size}
}

// add appends a prepared swap, flushing when the batch is full.
func (sb *swapBatcher) add(ctx context.Context, ps *pendingSwap, report *RepairReport) {
	sb.pend = append(sb.pend, ps)
	if len(sb.pend) >= sb.size {
		sb.flush(ctx, report)
	}
}

// flush writes every pending replacement chunk, one batch per target
// provider, then commits each object whose writes all landed. Objects
// with a failed target are rolled back (best effort, succeeded
// providers only) and counted Skipped.
func (sb *swapBatcher) flush(ctx context.Context, report *RepairReport) {
	if len(sb.pend) == 0 {
		return
	}
	pend := sb.pend
	sb.pend = nil

	// Group the chunk writes by target provider.
	groups := make(map[string][]cloud.BatchItem)
	for _, ps := range pend {
		for slot, data := range ps.data {
			name := ps.plan.Placement.Providers[slot].Name
			groups[name] = append(groups[name], cloud.BatchItem{
				Key:  ps.meta.chunkKey(0, slot),
				Data: data,
			})
		}
	}
	failed := make(map[string]error)
	for name, items := range groups {
		failed[name] = sb.e.putBatch(ctx, name, items)
	}

	for _, ps := range pend {
		bad := false
		for slot := range ps.data {
			if failed[ps.plan.Placement.Providers[slot].Name] != nil {
				bad = true
				break
			}
		}
		if bad {
			// Roll back this object's chunks on the providers that did
			// accept their batch; the failed provider wrote nothing
			// (PutBatch validates before landing anything).
			for slot := range ps.data {
				name := ps.plan.Placement.Providers[slot].Name
				if failed[name] == nil {
					sb.e.deleteChunkAt(name, ps.meta.chunkKey(0, slot))
				}
			}
			report.Skipped++
			continue
		}
		if err := sb.e.commitSwap(ps.meta, ps.plan, 1); err != nil {
			report.Skipped++
			continue
		}
		sb.e.b.setPlacement(ps.obj, ps.plan.Placement)
		report.Repaired++
		report.Swapped++
		report.ChunksWritten += len(ps.plan.Replaced)
		report.BytesWritten += ps.bytes
	}
}

// putBatch writes one provider's batch: through cloud.BatchWriter when
// the backend supports it (one simulated round-trip), item by item
// otherwise. On a per-item failure the already-written items of the
// batch are rolled back so the batch is all-or-nothing either way.
func (e *Engine) putBatch(ctx context.Context, provider string, items []cloud.BatchItem) error {
	st, ok := e.b.registry.Store(provider)
	if !ok {
		return fmt.Errorf("%w: %s", cloud.ErrUnavailable, provider)
	}
	t0 := time.Now()
	if bw, isBatch := st.(cloud.BatchWriter); isBatch {
		err := bw.PutBatch(ctx, items)
		e.b.observeProviderOp(provider, "put-batch", t0, err)
		return err
	}
	for i, it := range items {
		if err := st.Put(ctx, it.Key, it.Data); err != nil {
			e.b.observeProviderOp(provider, "put-batch", t0, err)
			for j := 0; j < i; j++ {
				e.deleteChunkAt(provider, items[j].Key)
			}
			return err
		}
	}
	e.b.observeProviderOp(provider, "put-batch", t0, nil)
	return nil
}
